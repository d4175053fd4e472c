"""SQL front end: tokenizer, parser, LIKE translation, end-to-end."""

import numpy as np
import pytest

from repro.common.records import (Column, Schema, default_schema,
                                  string_schema)
from repro.core.compile import (ParsedWrite, SqlSyntaxError, bind_select,
                                like_to_regex, parse_sql)
from repro.operators.regex_engine import compile_pattern
from repro.operators.selection import And, Compare, Not, Or


class _Handle:
    """A catalog-handle stand-in: binding only needs .name and .schema."""

    def __init__(self, name, schema):
        self.name, self.schema = name, schema


class _Catalog:
    def __init__(self, schemas):
        self.schemas = schemas

    def lookup(self, name):
        return _Handle(name, self.schemas[name])


CATALOG = _Catalog({
    "S": Schema([Column("a", "int64"), Column("b", "float64"),
                 Column("c", "float64")]),
    "t": Schema([Column(n, "int64") for n in ("a", "b", "c", "id")]
                + [Column("s", "char")]),
    "T": Schema([Column("A", "int64")]),
})


def _head(statement, catalog=CATALOG):
    """The head Query a SELECT binds to."""
    return bind_select(parse_sql(statement), catalog).query


# --- basic statements ---------------------------------------------------------

def test_select_star():
    parsed = parse_sql("SELECT * FROM S")
    assert parsed.table == "S"
    query = bind_select(parsed, CATALOG).query
    assert query.projection is None
    assert query.predicate is None


def test_select_columns():
    assert _head("SELECT a, b FROM t;").projection == ("a", "b")


def test_table_qualified_columns_resolve():
    parsed = parse_sql("SELECT S.a FROM S WHERE S.c > 3.14;")
    assert parsed.table == "S"
    query = bind_select(parsed, CATALOG).query
    assert query.projection == ("a",)
    assert query.predicate == Compare("c", ">", 3.14)


def test_keywords_case_insensitive():
    query = _head("select A From T wHeRe A < 5")
    assert query.predicate == Compare("A", "<", 5)


def test_paper_selection_query():
    """§6.4: SELECT * FROM S WHERE S.a < X AND S.b < Y."""
    query = _head("SELECT * FROM S WHERE S.a < 17 AND S.b < 0.5")
    assert query.predicate == And(Compare("a", "<", 17),
                                  Compare("b", "<", 0.5))


def test_distinct():
    query = _head("SELECT DISTINCT a FROM S")
    assert query.distinct
    assert query.projection == ("a",)


def test_group_by_sum():
    """§6.5: SELECT S.a, SUM(S.b) FROM S GROUP BY S.a."""
    q = _head("SELECT a, SUM(b) FROM S GROUP BY a")
    assert q.group_by == ("a",)
    assert len(q.aggregates) == 1
    assert q.aggregates[0].func == "sum"
    assert q.aggregates[0].column == "b"


def test_aggregates_with_aliases():
    specs = _head(
        "SELECT a, COUNT(*) AS n, AVG(b) AS mean FROM t GROUP BY a"
    ).aggregates
    assert [s.alias for s in specs] == ["n", "mean"]
    assert specs[0].column == "*"


def test_standalone_aggregate():
    query = _head("SELECT COUNT(*), MAX(a) FROM t")
    assert query.group_by is None
    assert len(query.aggregates) == 2


# --- WHERE expressions ------------------------------------------------------------

def test_boolean_nesting():
    query = _head("SELECT * FROM t WHERE (a < 1 OR b > 2.0) AND NOT c = 3")
    expected = And(Or(Compare("a", "<", 1), Compare("b", ">", 2.0)),
                   Not(Compare("c", "==", 3)))
    assert query.predicate == expected


def test_operator_spellings():
    query = _head("SELECT * FROM t WHERE a <> 1 AND b != 2 AND c = 3")
    expected = And(And(Compare("a", "!=", 1), Compare("b", "!=", 2)),
                   Compare("c", "==", 3))
    assert query.predicate == expected


def test_string_literal_with_escaped_quote():
    query = _head("SELECT * FROM t WHERE s = 'it''s'")
    assert query.predicate == Compare("s", "==", "it's")


def test_regexp_term():
    query = _head("SELECT * FROM t WHERE s REGEXP 'far(view|sight)'")
    assert query.regex is not None
    assert query.regex.pattern == "far(view|sight)"
    assert query.predicate is None


def test_like_combined_with_predicate():
    query = _head("SELECT * FROM t WHERE id < 100 AND s LIKE '%farview%'")
    assert query.predicate == Compare("id", "<", 100)
    assert query.regex is not None


# --- LIKE translation ----------------------------------------------------------------

def test_like_percent_and_underscore():
    regex = like_to_regex("a%b_c")
    assert regex == "^a.*b.c$"
    compiled = compile_pattern(regex)
    assert compiled.search(b"aXXXbYc")
    assert not compiled.search(b"aXXXbYYc")


def test_like_escapes_metacharacters():
    regex = like_to_regex("50.5%")
    compiled = compile_pattern(regex)
    assert compiled.search(b"50.5 percent")
    assert not compiled.search(b"50x5 percent")


def test_like_is_full_match():
    compiled = compile_pattern(like_to_regex("abc"))
    assert compiled.search(b"abc")
    assert not compiled.search(b"xabcx")  # SQL LIKE matches whole value


# --- syntax errors -------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "",
    "SELECT FROM t",
    "SELECT * t",
    "SELECT *, a FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t WHERE a <",
    "SELECT a FROM t WHERE a < 1 extra",
    "SELECT a FROM t GROUP BY",
    "SELECT a, SUM(b) FROM t",                    # aggregates need GROUP BY
    "SELECT b, SUM(b) FROM t GROUP BY a",         # b not in GROUP BY
    "SELECT a FROM t GROUP BY a",                 # GROUP BY needs aggregates
    "SELECT DISTINCT SUM(a) FROM t",
    "SELECT a FROM t WHERE s LIKE 5",
    "SELECT a FROM t WHERE s LIKE 'x' AND s LIKE 'y'",
    "SELECT a FROM t WHERE a < 1 OR s LIKE 'x'",  # regex under OR
    "SELECT a FROM t WHERE NOT s LIKE 'x'",
    "SELECT a FROM t WHERE a ~ 1",
])
def test_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse_sql(bad)


# --- end-to-end through the node ----------------------------------------------------------

@pytest.fixture
def bench():
    from repro.experiments.common import make_bench, upload_table
    from repro.workloads.generator import make_rows

    b = make_bench()
    schema = default_schema()
    rows = make_rows(schema, 512)
    rows["c"] = np.arange(512) % 7
    table = upload_table(b, "S", schema, rows)
    return b, rows, table


def test_sql_selection_end_to_end(bench):
    b, rows, table = bench
    result, _ = b.client.sql("SELECT * FROM S WHERE c < 3")
    expected = rows[rows["c"] < 3]
    np.testing.assert_array_equal(result.rows()["a"], expected["a"])


def test_sql_groupby_end_to_end(bench):
    b, rows, table = bench
    result, _ = b.client.sql(
        "SELECT c, COUNT(*) AS n FROM S GROUP BY c")
    got = {int(r["c"]): int(r["n"]) for r in result.rows()}
    expected = {}
    for v in rows["c"]:
        expected[int(v)] = expected.get(int(v), 0) + 1
    assert got == expected


def test_sql_distinct_end_to_end(bench):
    b, rows, table = bench
    result, _ = b.client.sql("SELECT DISTINCT c FROM S")
    assert sorted(result.rows()["c"].tolist()) == sorted(set(rows["c"].tolist()))


def test_sql_like_end_to_end():
    from repro.experiments.common import make_bench, upload_table
    from repro.workloads.generator import string_workload

    b = make_bench()
    schema, rows = string_workload(64, 64, match_fraction=0.5)
    table = upload_table(b, "docs", schema, rows)
    result, _ = b.client.sql("SELECT * FROM docs WHERE s LIKE '%farview%'")
    expected = {int(r["id"]) for r in rows if b"farview" in bytes(r["s"])}
    assert set(result.rows()["id"].tolist()) == expected


def test_sql_unknown_table_raises(bench):
    b, _, _ = bench
    from repro.common.errors import CatalogError
    with pytest.raises(CatalogError):
        b.client.sql("SELECT * FROM missing")


# --- write statements (versioned write path) ----------------------------------

def test_insert_values():
    parsed = parse_sql(
        "INSERT INTO t VALUES (1, 2.5, 'x'), (-3, 4, 'y');")
    assert isinstance(parsed, ParsedWrite)
    assert parsed.kind == "insert"
    assert parsed.table == "t"
    assert parsed.values == ((1, 2.5, "x"), (-3, 4, "y"))


def test_update_set_where():
    parsed = parse_sql("UPDATE t SET a = 5, b = -2.5 WHERE c >= 10 AND d < 3")
    assert isinstance(parsed, ParsedWrite)
    assert parsed.kind == "update"
    assert parsed.assignments == (("a", 5), ("b", -2.5))
    assert parsed.predicate == And(Compare("c", ">=", 10),
                                   Compare("d", "<", 3))


def test_update_without_where_hits_every_row():
    parsed = parse_sql("UPDATE t SET a = 'z'")
    assert parsed.predicate is None
    assert parsed.assignments == (("a", "z"),)


def test_delete_from_where():
    parsed = parse_sql("DELETE FROM t WHERE a = 7;")
    assert isinstance(parsed, ParsedWrite)
    assert parsed.kind == "delete"
    assert parsed.predicate == Compare("a", "==", 7)


def test_delete_without_where():
    parsed = parse_sql("DELETE FROM t")
    assert parsed.kind == "delete" and parsed.predicate is None


def test_negative_literal_in_select_predicate():
    query = _head("SELECT * FROM t WHERE a > -5")
    assert query.predicate == Compare("a", ">", -5)


@pytest.mark.parametrize("bad", [
    "INSERT INTO t",                          # missing VALUES
    "INSERT INTO t VALUES ()",                # empty tuple
    "INSERT INTO t VALUES (1,)",              # dangling comma
    "UPDATE t SET",                           # missing assignment
    "UPDATE t SET a = 1, a = 2",              # duplicate column
    "UPDATE t SET a = 1 WHERE s LIKE 'x%'",   # regex stage in a write
    "DELETE FROM t WHERE s REGEXP 'a+'",      # regex stage in a write
    "UPDATE t SET a = -",                     # dangling minus
    "INSERT INTO t VALUES (1) trailing",      # trailing junk
    "/*+ placement(ship) */ DELETE FROM t",   # hints apply to reads only
])
def test_write_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse_sql(bad)


# --- JOIN clause (the §7 small-table join) -------------------------------------

def _schemas():
    probe = Schema([Column("k", "int64"), Column("v", "float64"),
                    Column("rate", "int64")])
    build = Schema([Column("id", "int64"), Column("rate", "float64"),
                    Column("zone", "int64")])
    return probe, build


JOIN_CATALOG = _Catalog(dict(zip(("fact", "dim"), _schemas())))


def _join_head(statement):
    return _head(statement, JOIN_CATALOG)


def test_join_clause_parses_qualified_on():
    from repro.core.ir import Col, Join

    parsed = parse_sql(
        "SELECT fact.k, dim.rate FROM fact JOIN dim ON fact.k = dim.id")
    assert parsed.table == "fact"
    join = parsed.ir.child
    assert isinstance(join, Join)
    assert join.table == "dim"
    assert join.left == Col("k", "fact")
    assert join.right == Col("id", "dim")
    assert [item for item, _alias in parsed.ir.items] == [
        Col("k", "fact"), Col("rate", "dim")]
    assert not parsed.ir.star


def test_inner_join_keyword_and_star():
    from repro.core.ir import Join

    parsed = parse_sql("SELECT * FROM f INNER JOIN d ON f.a = d.b;")
    assert parsed.ir.star and isinstance(parsed.ir.child, Join)


def test_join_resolution_splits_select_list():
    query = _join_head(
        "SELECT fact.k, dim.rate, fact.v FROM fact JOIN dim "
        "ON fact.k = dim.id WHERE fact.v < 2.5")
    assert query.join.build_key == "id"
    assert query.join.probe_key == "k"
    assert query.join.payload == ("rate",)
    # Payload "rate" collides with a probe column -> renamed in the
    # projection, probe columns keep their order.
    assert query.projection == ("k", "build_rate", "v")
    assert query.predicate == Compare("v", "<", 2.5)


def test_join_resolution_unqualified_and_swapped_on_sides():
    query = _join_head("SELECT k, zone FROM fact JOIN dim ON id = k")
    assert (query.join.build_key, query.join.probe_key) == ("id", "k")
    assert query.join.payload == ("zone",)
    assert query.projection == ("k", "zone")


def test_join_resolution_build_key_select_maps_to_probe_key():
    query = _join_head(
        "SELECT dim.id, dim.zone FROM fact JOIN dim ON fact.k = dim.id")
    assert query.projection == ("k", "zone")
    assert query.join.payload == ("zone",)


def test_join_resolution_star_appends_non_key_build_columns():
    query = _join_head("SELECT * FROM fact JOIN dim ON fact.k = dim.id")
    assert query.projection is None
    assert query.join.payload == ("rate", "zone")


def test_join_resolution_semi_join_borrows_payload():
    query = _join_head("SELECT k, v FROM fact JOIN dim ON fact.k = dim.id")
    assert query.projection == ("k", "v")     # payload projected away
    assert len(query.join.payload) == 1


def test_join_resolution_errors():
    for statement, message in [
        ("SELECT k FROM fact JOIN dim ON other.k = dim.id",
         "unknown table qualifier"),
        ("SELECT k FROM fact JOIN dim ON fact.k = fact.v",
         "must relate"),
        ("SELECT k FROM fact JOIN dim ON fact.k = dim.nope",
         "unknown column"),
        ("SELECT fact.nope, dim.rate FROM fact JOIN dim "
         "ON fact.k = dim.id", "unknown column"),
    ]:
        with pytest.raises(SqlSyntaxError, match=message):
            _join_head(statement)


@pytest.mark.parametrize("bad", [
    "SELECT a FROM f JOIN",                       # missing build table
    "SELECT a FROM f JOIN d",                     # missing ON
    "SELECT a FROM f JOIN d ON a < b",            # non-equality
    "SELECT a FROM f INNER d ON a = b",           # INNER without JOIN
])
def test_join_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse_sql(bad)


def test_multi_join_parses_to_chained_stages():
    """Multi-way joins are no longer a syntax error: they parse to an IR
    that chains one Join node per stage."""
    from repro.core.ir import Join, Scan

    parsed = parse_sql(
        "SELECT a FROM f JOIN d ON a = b JOIN e ON c = k")
    join2 = parsed.ir.child          # Project -> Join(e) -> Join(d) -> Scan
    join1 = join2.child
    assert isinstance(join2, Join) and join2.table == "e"
    assert isinstance(join1, Join) and join1.table == "d"
    assert isinstance(join1.child, Scan) and join1.child.table == "f"


# ---------------------------------------------------------------------------
# Error quality: positions, fragments, golden messages
# ---------------------------------------------------------------------------

def _error_for(statement: str) -> SqlSyntaxError:
    with pytest.raises(SqlSyntaxError) as excinfo:
        parse_sql(statement)
    return excinfo.value


def test_error_carries_position_and_fragment():
    err = _error_for("SELECT a FROM t WHERE a ** 3")
    assert err.position == len("SELECT a FROM t WHERE a ")
    assert err.fragment == "*"
    assert f"offset {err.position}" in str(err)


def test_error_position_survives_placement_hint():
    """Positions are measured in the *original* statement, so stripping
    the ``/*+ placement(...) */`` hint must not shift them."""
    plain = "SELECT a FROM t WHERE a ** 3"
    hinted = "/*+ placement(ship) */ " + plain
    assert _error_for(hinted).position == (_error_for(plain).position
                                           + len("/*+ placement(ship) */ "))


@pytest.mark.parametrize("statement,message", [
    ("SELECT *, a FROM t", "'\\*' cannot be mixed with other select items"),
    ("SELECT *, * FROM t", "'\\*' cannot be mixed with other select items"),
    ("SELECT a, * FROM t", "'\\*' cannot be mixed with other select items"),
    ("SELECT a FROM t ORDER BY", "expected a column"),
    ("SELECT a FROM t LIMIT x", "LIMIT expects"),
    ("SELECT a FROM t LIMIT -1", "LIMIT expects"),
    ("SELECT a FROM t HAVING COUNT(*) > 1", "HAVING requires GROUP BY"),
    ("SELECT a, COUNT(*) FROM t",
     "plain columns next to aggregates need a GROUP BY"),
])
def test_golden_error_messages(statement, message):
    with pytest.raises(SqlSyntaxError, match=message):
        parse_sql(statement)


def test_expression_item_without_alias_rejected_at_bind_time():
    """``SELECT (a + 1) FROM t`` parses (the IR is valid) but binding
    demands a deterministic output name."""
    parsed = parse_sql("SELECT (a + 1) FROM t ORDER BY a")
    with pytest.raises(SqlSyntaxError,
                       match="expression select items need an AS alias"):
        bind_select(parsed, _Catalog({"t": Schema([Column("a", "int64")])}))


def test_star_mixing_rejected_under_distinct_too():
    with pytest.raises(SqlSyntaxError,
                       match="cannot be mixed with other select items"):
        parse_sql("SELECT DISTINCT *, a FROM t")
