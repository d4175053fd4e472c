"""Small-table join operator (§7 extension): unit + end-to-end tests."""

import numpy as np
import pytest

from repro.common.config import FarviewConfig, MemoryConfig, OperatorStackConfig
from repro.common.errors import (JoinBuildOverflowError, OperatorError,
                                 PipelineCompilationError, QueryError)
from repro.common.records import Column, Schema, default_schema
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.pipeline_compiler import compile_query
from repro.core.query import JoinSpec, Query
from repro.core.table import FTable
from repro.operators.join import SmallTableJoinOperator
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import make_rows

KB = 1024
MB = 1024 * KB

DIM_SCHEMA = Schema([
    Column("id", "int64"),
    Column("rate", "float64"),
    Column("zone", "int64"),
])


def make_dim(n=16):
    rows = DIM_SCHEMA.empty(n)
    rows["id"] = np.arange(n)
    rows["rate"] = np.arange(n) * 0.1
    rows["zone"] = np.arange(n) % 4
    return rows


def make_fact(n=100, key_mod=20):
    schema = default_schema()
    rows = schema.empty(n)
    rows["a"] = np.arange(n) % key_mod  # join key; some keys miss the dim
    rows["b"] = np.arange(n) * 1.0
    return schema, rows


# --- operator unit tests -------------------------------------------------------

def test_join_matches_nested_loop_oracle():
    dim = make_dim(16)
    schema, fact = make_fact(100, key_mod=20)
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate", "zone"])
    op.load_build(dim)
    out_schema = op.bind(schema)
    out = op.process(fact)
    # Oracle: keys 0..15 match, 16..19 do not.
    expected = [(int(r["a"]), float(r["b"])) for r in fact if r["a"] < 16]
    assert len(out) == len(expected)
    for row, (key, b) in zip(out, expected):
        assert int(row["a"]) == key
        assert float(row["b"]) == b
        assert float(row["rate"]) == pytest.approx(key * 0.1)
        assert int(row["zone"]) == key % 4
    assert out_schema.names[-2:] == ("rate", "zone")


def test_join_unmatched_probe_dropped():
    dim = make_dim(4)
    schema, fact = make_fact(10, key_mod=10)
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"])
    op.load_build(dim)
    op.bind(schema)
    out = op.process(fact)
    assert set(out["a"].tolist()) == {0, 1, 2, 3}


def test_join_duplicate_build_key_rejected():
    dim = make_dim(4)
    dim["id"] = [1, 1, 2, 3]
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"])
    with pytest.raises(OperatorError, match="unique"):
        op.load_build(dim)


def test_join_build_overflow_rejected():
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"],
                                ways=1, slots_per_way=4, max_kicks=1)
    dim = make_dim(16)
    with pytest.raises(OperatorError, match="does not fit"):
        op.load_build(dim)


def test_refused_build_leaves_the_operator_unchanged():
    """A refused build must not leave half a table behind: the next
    build that fits succeeds and joins exactly."""
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"],
                                ways=1, slots_per_way=4, max_kicks=1)
    with pytest.raises(JoinBuildOverflowError):
        op.load_build(make_dim(16))
    dup = make_dim(3)
    dup["id"] = [0, 1, 0]
    with pytest.raises(OperatorError, match="duplicate build key at row 2"):
        op.load_build(dup)
    assert len(op.table) == 0 and op.build_rows_loaded == 0
    op.load_build(make_dim(2))
    schema, fact = make_fact(6, key_mod=3)
    op.bind(schema)
    out = op.process(fact)
    assert out["a"].tolist() == [0, 1, 0, 1]
    assert out["rate"].tolist() == pytest.approx([0.0, 0.1, 0.0, 0.1])


def test_join_probe_before_build_rejected():
    schema, fact = make_fact(4)
    op = SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["rate"])
    op.bind(schema)
    with pytest.raises(OperatorError, match="before the build"):
        op.process(fact)


def test_join_key_type_mismatch_rejected():
    schema, _ = make_fact(1)
    op = SmallTableJoinOperator(DIM_SCHEMA, "rate", "a", ["zone"])
    with pytest.raises(OperatorError, match="mismatch"):
        op.bind(schema)


def test_join_column_name_collision_prefixed():
    dim_schema = Schema([Column("id", "int64"), Column("b", "float64")])
    dim = dim_schema.empty(2)
    dim["id"] = [0, 1]
    dim["b"] = [10.0, 20.0]
    schema, fact = make_fact(4, key_mod=2)
    op = SmallTableJoinOperator(dim_schema, "id", "a", ["b"])
    op.load_build(dim)
    out_schema = op.bind(schema)
    assert "build_b" in out_schema.names
    out = op.process(fact)
    assert float(out["build_b"][0]) == 10.0
    assert float(out["b"][0]) == fact["b"][0]


def test_join_validation():
    with pytest.raises(OperatorError):
        SmallTableJoinOperator(DIM_SCHEMA, "id", "a", [])
    with pytest.raises(OperatorError):
        SmallTableJoinOperator(DIM_SCHEMA, "id", "a", ["id"])


# --- query / compiler integration ----------------------------------------------------

def test_joinspec_validation():
    with pytest.raises(QueryError):
        JoinSpec(None, "id", "a", ())


def test_query_join_with_smart_addressing_rejected():
    dim_table = FTable("dim", DIM_SCHEMA, 4)
    with pytest.raises(QueryError):
        Query(join=JoinSpec(dim_table, "id", "a", ("rate",)),
              smart_addressing=True)


def test_compile_rejects_oversized_build():
    config = FarviewConfig(
        operator_stack=OperatorStackConfig(cuckoo_slots=16, cuckoo_tables=1))
    dim_table = FTable("dim", DIM_SCHEMA, 1000)
    fact_table = FTable("fact", default_schema(), 10)
    query = Query(join=JoinSpec(dim_table, "id", "a", ("rate",)))
    with pytest.raises(PipelineCompilationError, match="capacity"):
        compile_query(query, fact_table, config)


# --- end-to-end over the node -----------------------------------------------------------

@pytest.fixture
def client():
    config = FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=8 * MB,
                            page_size=64 * KB))
    sim = Simulator()
    node = FarviewNode(sim, config)
    c = FarviewClient(node)
    c.open_connection()
    return c


def test_offloaded_join_end_to_end(client):
    dim = make_dim(16)
    dim_table = FTable("dim", DIM_SCHEMA, len(dim))
    client.alloc_table_mem(dim_table)
    client.table_write(dim_table, dim)

    schema, fact = make_fact(500, key_mod=32)
    fact_table = FTable("fact", schema, len(fact))
    client.alloc_table_mem(fact_table)
    client.table_write(fact_table, fact)

    query = Query(join=JoinSpec(dim_table, "id", "a", ("rate",)),
                  label="dim-join")
    result, elapsed = client.far_view(fact_table, query)
    got = result.rows()
    expected = fact[fact["a"] < 16]
    assert len(got) == len(expected)
    np.testing.assert_array_equal(got["a"], expected["a"])
    np.testing.assert_allclose(got["rate"], expected["a"] * 0.1)
    # Build table bytes were scanned in addition to the probe.
    assert result.report.bytes_scanned >= fact_table.size_bytes
    assert elapsed > 0


def test_offloaded_join_composes_with_selection_and_projection(client):
    dim = make_dim(8)
    dim_table = FTable("dim", DIM_SCHEMA, len(dim))
    client.alloc_table_mem(dim_table)
    client.table_write(dim_table, dim)

    schema, fact = make_fact(200, key_mod=16)
    fact_table = FTable("fact", schema, len(fact))
    client.alloc_table_mem(fact_table)
    client.table_write(fact_table, fact)

    query = Query(predicate=Compare("a", "<", 12),
                  join=JoinSpec(dim_table, "id", "a", ("rate",)),
                  projection=("a", "rate"))
    result, _ = client.far_view(fact_table, query)
    got = result.rows()
    assert got.dtype.names == ("a", "rate")
    mask = (fact["a"] < 12) & (fact["a"] < 8)
    assert len(got) == int(mask.sum())
