"""Property tests: IR -> SQL -> IR round-trips, and execution matches
the serial reference model.

Two properties lock the compiler front end:

* **Structural round-trip** — random canonical IR DAGs rendered through
  :func:`repro.core.ir.render_sql` re-parse to the *identical* tree
  (rendering is fully parenthesized, so operator precedence can never
  reassociate a condition).
* **Differential execution** — the executable subset of those DAGs runs
  through the real engine (single node, offload and ship) and must be
  sha256-identical to :mod:`repro.baselines.sql_model`.

Generator invariants mirror the grammar's own validation rules (tested
separately in test_core_sql.py): grouped queries select only group
columns and aggregates, expression items carry aliases, HAVING
aggregates also appear in the select list, ORDER BY keys come from the
select list, and output names never collide.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.sql_model import execute_model
from repro.common.records import Column, Schema
from repro.core.api import FarviewClient, canonical_result_bytes
from repro.core.ir import (AggCall, Arith, BoolAnd, BoolNot, BoolOr, Cmp,
                           Col, Distinct, Filter, Join, Lit, Limit, Project,
                           Scan, Sort, render_sql)
from repro.core.node import FarviewNode
from repro.core.table import FTable
from repro.core.ir import Aggregate
from repro.core.compile import parse_sql
from repro.sim.engine import Simulator

T_SCHEMA = Schema([Column("a", "int64"), Column("b", "int64"),
                   Column("c", "int64"), Column("f", "float64")])
D_SCHEMA = Schema([Column("id", "int64"), Column("v", "int64")])

INT_COLS = ("a", "b", "c")
NUM_COLS = INT_COLS + ("f",)
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
AGG_FUNCS = ("count", "sum", "min", "max", "avg")

NUM_ROWS = 64
DIM_ROWS = 16


def make_rows(seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = T_SCHEMA.empty(NUM_ROWS)
    for name in INT_COLS:
        rows[name] = rng.integers(0, 12, NUM_ROWS)
    rows["f"] = rng.integers(0, 40, NUM_ROWS) * 0.25
    return rows


def make_dim(seed: int = 43) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = D_SCHEMA.empty(DIM_ROWS)
    rows["id"] = np.arange(DIM_ROWS)          # unique build keys
    rows["v"] = rng.integers(0, 100, DIM_ROWS)
    return rows


# -- strategies ---------------------------------------------------------------

cols = st.sampled_from([Col(name) for name in INT_COLS])
int_lits = st.integers(min_value=0, max_value=12).map(Lit)

comparisons = st.builds(Cmp, op=st.sampled_from(CMP_OPS), left=cols,
                        right=int_lits)

conditions = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(BoolAnd, left=inner, right=inner),
        st.builds(BoolOr, left=inner, right=inner),
        st.builds(BoolNot, operand=inner)),
    max_leaves=4)

# Single-level arithmetic: col op (col | small literal); '/' only by a
# non-zero literal so the model's python division can never trap where
# numpy would emit inf.
safe_arith = st.one_of(
    st.builds(Arith, op=st.sampled_from(("+", "-", "*")),
              left=cols, right=st.one_of(cols, int_lits)),
    st.builds(Arith, op=st.just("/"), left=cols,
              right=st.integers(min_value=2, max_value=9).map(Lit)))


@st.composite
def plain_selects(draw):
    """Non-aggregated SELECT: columns + aliased expressions, optional
    DISTINCT / WHERE / ORDER BY / LIMIT (and optionally one join)."""
    star = draw(st.booleans())
    join = draw(st.booleans())
    items: list[tuple] = []
    out_names: list[str] = []
    if star:
        out_names = list(INT_COLS) + ["f"] + (["v"] if join else [])
    else:
        picked = draw(st.lists(st.sampled_from(NUM_COLS + (("v",) if join
                                                           else ())),
                               min_size=1, max_size=4, unique=True))
        for name in picked:
            items.append((Col(name), None))
            out_names.append(name)
        for i, expr in enumerate(draw(st.lists(safe_arith, max_size=2))):
            alias = f"e{i}"
            items.append((expr, alias))
            out_names.append(alias)
    rel = Scan("t")
    if join:
        rel = Join(rel, "d", Col("a"), Col("id"))
    condition = draw(st.none() | conditions)
    if condition is not None:
        rel = Filter(rel, condition)
    rel = Project(rel, items=tuple(items), star=star)
    if draw(st.booleans()):
        rel = Distinct(rel)
    sort_names = draw(st.lists(st.sampled_from(out_names), max_size=2,
                               unique=True))
    if sort_names:
        rel = Sort(rel, tuple((Col(name), draw(st.booleans()))
                              for name in sort_names))
    limit = draw(st.none() | st.integers(min_value=1, max_value=32))
    if limit is not None:
        rel = Limit(rel, limit)
    return rel


@st.composite
def aggregate_selects(draw):
    """Grouped / whole-table aggregation with optional HAVING and
    ORDER BY over the output columns, optionally over a join whose build
    column ``v`` can be grouped on or aggregated."""
    join = draw(st.booleans())
    build_cols = ("v",) if join else ()
    group_names = draw(st.lists(st.sampled_from(INT_COLS + build_cols),
                                max_size=2, unique=True))
    aggs: list[AggCall] = []
    n_aggs = draw(st.integers(min_value=1, max_value=3))
    for i in range(n_aggs):
        func = draw(st.sampled_from(AGG_FUNCS))
        if func == "count" and draw(st.booleans()):
            arg = None
        elif draw(st.booleans()):
            arg = Col(draw(st.sampled_from(NUM_COLS + build_cols)))
        else:
            arg = draw(safe_arith)
        aggs.append(AggCall(func, arg, alias=f"g{i}"))
    having = None
    if group_names and draw(st.booleans()):
        target = draw(st.sampled_from(aggs))
        having = Cmp(draw(st.sampled_from(CMP_OPS)),
                     AggCall(target.func, target.arg, alias=""),
                     Lit(draw(st.integers(min_value=0, max_value=20))))
    condition = draw(st.none() | conditions)
    rel = Scan("t")
    if join:
        rel = Join(rel, "d", Col("a"), Col("id"))
    if condition is not None:
        rel = Filter(rel, condition)
    rel = Aggregate(rel, tuple(Col(n) for n in group_names),
                    tuple(aggs), having)
    items = ([(Col(n), None) for n in group_names]
             + [(agg, None) for agg in aggs])
    rel = Project(rel, items=tuple(items), star=False)
    out_names = list(group_names) + [agg.alias for agg in aggs]
    sort_names = draw(st.lists(st.sampled_from(out_names), max_size=2,
                               unique=True))
    if sort_names:
        rel = Sort(rel, tuple((Col(name), draw(st.booleans()))
                              for name in sort_names))
    limit = draw(st.none() | st.integers(min_value=1, max_value=8))
    if limit is not None:
        rel = Limit(rel, limit)
    return rel


select_dags = st.one_of(plain_selects(), aggregate_selects())

#: ``SELECT v, SUM(b) AS s FROM t JOIN d ON a = id GROUP BY v``: grouping
#: on a build column reads the post-join schema.
GROUP_ON_BUILD_COLUMN = Project(
    Aggregate(Join(Scan("t"), "d", Col("a"), Col("id")), (Col("v"),),
              (AggCall("sum", Col("b"), alias="s"),), None),
    items=((Col("v"), None), (AggCall("sum", Col("b"), alias="s"), None)),
    star=False)


# -- properties ---------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(select_dags)
def test_render_parse_roundtrip(rel):
    """render_sql(ir) re-parses to the structurally identical DAG."""
    statement = render_sql(rel)
    parsed = parse_sql(statement)
    assert parsed.ir == rel, (
        f"round-trip changed the DAG for {statement!r}:\n"
        f"  sent   {rel}\n  got    {parsed.ir}")
    # And rendering is a fixpoint: render(parse(render(ir))) == render(ir).
    assert render_sql(parsed.ir) == statement


def _engine_client() -> FarviewClient:
    client = FarviewClient(FarviewNode(Simulator()))
    client.open_connection()
    for name, schema, rows in (("t", T_SCHEMA, make_rows()),
                               ("d", D_SCHEMA, make_dim())):
        table = FTable(name, schema, len(rows))
        client.alloc_table_mem(table)
        client.table_write(table, rows)
    return client


MODEL_TABLES = {"t": (T_SCHEMA, make_rows()), "d": (D_SCHEMA, make_dim())}


@settings(max_examples=40, deadline=None)
@given(select_dags)
@example(GROUP_ON_BUILD_COLUMN)
def test_execution_matches_model(rel):
    """The engine's bytes (offload and ship) equal the serial model's."""
    statement = render_sql(rel)
    schema, rows = execute_model(statement, MODEL_TABLES)
    expected = hashlib.sha256(schema.to_bytes(rows)).hexdigest()
    for placement in ("offload", "ship"):
        client = _engine_client()
        result, _ = client.sql(statement, placement=placement)
        digest = hashlib.sha256(
            canonical_result_bytes(result)).hexdigest()
        assert digest == expected, (
            f"{placement} diverged from the model for {statement!r} "
            f"({len(rows)} model rows)")
