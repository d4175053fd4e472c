"""Grouping operators: distinct, group-by + aggregation, standalone aggregates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OperatorError, QueryError
from repro.common.records import default_schema
from repro.operators.aggregate import (
    Accumulator,
    AggregateSpec,
    StandaloneAggregateOperator,
)
from repro.operators.distinct import DistinctOperator
from repro.operators.groupby import GroupByOperator


def make_batch(values_a, values_b=None):
    schema = default_schema()
    batch = schema.empty(len(values_a))
    batch["a"] = values_a
    if values_b is not None:
        batch["b"] = values_b
    return schema, batch


# --- AggregateSpec / Accumulator ----------------------------------------------------

def test_spec_default_alias():
    assert AggregateSpec("sum", "b").alias == "sum_b"
    assert AggregateSpec("count", "*").alias == "count_star"


def test_spec_rejects_unknown_func():
    with pytest.raises(QueryError):
        AggregateSpec("median", "a")


def test_spec_rejects_char_column():
    from repro.common.records import string_schema
    spec = AggregateSpec("sum", "s")
    with pytest.raises(QueryError):
        spec.validate(string_schema(32))


def test_accumulator_updates():
    acc = Accumulator(1)
    for v in (3.0, 1.0, 2.0):
        acc.update((v,))
    spec_sum = AggregateSpec("sum", "x")
    spec_min = AggregateSpec("min", "x")
    spec_max = AggregateSpec("max", "x")
    spec_avg = AggregateSpec("avg", "x")
    spec_count = AggregateSpec("count", "*")
    assert acc.result(spec_sum, 0) == 6.0
    assert acc.result(spec_min, 0) == 1.0
    assert acc.result(spec_max, 0) == 3.0
    assert acc.result(spec_avg, 0) == 2.0
    assert acc.result(spec_count, 0) == 3


def test_accumulator_merge():
    a = Accumulator(1)
    b = Accumulator(1)
    a.update((5.0,))
    b.update((1.0,))
    b.update((9.0,))
    a.merge(b)
    assert a.count == 3
    assert a.sums[0] == 15.0
    assert a.mins[0] == 1.0
    assert a.maxs[0] == 9.0


def test_empty_accumulator_result_raises():
    with pytest.raises(OperatorError):
        Accumulator(1).result(AggregateSpec("sum", "x"), 0)


# --- standalone aggregation -------------------------------------------------------------

def test_standalone_aggregate_single_row_at_flush():
    schema, batch = make_batch([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
    op = StandaloneAggregateOperator([
        AggregateSpec("count", "*"),
        AggregateSpec("sum", "a"),
        AggregateSpec("min", "b"),
        AggregateSpec("max", "b"),
        AggregateSpec("avg", "a"),
    ])
    out_schema = op.bind(schema)
    assert len(op.process(batch)) == 0  # nothing while streaming
    row = op.flush()
    assert len(row) == 1
    assert row["count_star"][0] == 4
    assert row["sum_a"][0] == 10
    assert row["min_b"][0] == 1.0
    assert row["max_b"][0] == 4.0
    assert row["avg_a"][0] == pytest.approx(2.5)
    assert out_schema.row_width == 40


def test_standalone_aggregate_multiple_batches():
    schema, batch1 = make_batch([1, 2])
    _, batch2 = make_batch([3, 4])
    op = StandaloneAggregateOperator([AggregateSpec("sum", "a")])
    op.bind(schema)
    op.process(batch1)
    op.process(batch2)
    assert op.flush()["sum_a"][0] == 10


def test_standalone_aggregate_empty_input():
    schema, _ = make_batch([])
    op = StandaloneAggregateOperator([AggregateSpec("sum", "a")])
    op.bind(schema)
    assert len(op.flush()) == 0


def test_standalone_aggregate_validation():
    with pytest.raises(OperatorError):
        StandaloneAggregateOperator([])
    schema, _ = make_batch([1])
    dup = StandaloneAggregateOperator(
        [AggregateSpec("sum", "a", alias="x"), AggregateSpec("min", "a", alias="x")])
    with pytest.raises(OperatorError):
        dup.bind(schema)


# --- distinct -----------------------------------------------------------------------------

def test_distinct_drops_duplicates():
    schema, batch = make_batch([1, 2, 1, 3, 2, 1])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out = op.process(batch)
    assert sorted(out["a"].tolist()) == [1, 2, 3]
    assert op.duplicates_dropped == 3
    assert op.distinct_seen == 3


def test_distinct_across_batches():
    schema, batch1 = make_batch([1, 2])
    _, batch2 = make_batch([2, 3])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out1 = op.process(batch1)
    out2 = op.process(batch2)
    assert sorted(np.concatenate([out1, out2])["a"].tolist()) == [1, 2, 3]


def test_distinct_defaults_to_all_columns():
    schema, batch = make_batch([1, 1], [1.0, 2.0])
    op = DistinctOperator()
    op.bind(schema)
    out = op.process(batch)
    assert len(out) == 2  # rows differ in column b


def test_distinct_streaming_emits_first_occurrence():
    schema, batch = make_batch([5, 5, 6])
    op = DistinctOperator(["a"])
    op.bind(schema)
    out = op.process(batch)
    assert out["a"].tolist() == [5, 6]


def test_distinct_overflow_contract():
    """With a tiny table, overflow keys are emitted and reported."""
    schema, batch = make_batch(list(range(100)))
    op = DistinctOperator(["a"], ways=1, slots_per_way=16, max_kicks=2,
                          lru_depth_per_way=2)
    op.bind(schema)
    out = op.process(batch)
    # All 100 distinct values must be emitted exactly once (first sight).
    assert sorted(out["a"].tolist()) == list(range(100))
    assert op.overflow_count > 0
    keys = op.drain_overflow_keys()
    assert len(keys) == op.overflow_count
    assert op.drain_overflow_keys() == []


def test_distinct_duplicates_of_overflowed_key_leak_and_client_dedups():
    """Overflowed keys can be re-emitted — exactly the paper's contract:
    the client deduplicates the overflow in software."""
    schema, _ = make_batch([])
    op = DistinctOperator(["a"], ways=1, slots_per_way=4, max_kicks=1,
                          lru_depth_per_way=1)
    op.bind(schema)
    emitted = []
    for chunk in ([list(range(32))], [list(range(32))]):
        _, batch = make_batch(chunk[0])
        emitted.extend(op.process(batch)["a"].tolist())
    # Software dedup restores exactness.
    assert sorted(set(emitted)) == list(range(32))


def test_distinct_validates_columns():
    schema, _ = make_batch([1])
    op = DistinctOperator(["nope"])
    with pytest.raises(QueryError):
        op.bind(schema)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=200))
def test_distinct_property_exact_when_not_overflowing(values):
    schema, batch = make_batch(values)
    op = DistinctOperator(["a"])  # default large table: no overflow
    op.bind(schema)
    out = op.process(batch)
    assert sorted(out["a"].tolist()) == sorted(set(values))
    assert op.overflow_count == 0


# --- group by ---------------------------------------------------------------------------------

def test_groupby_sum():
    """The paper's §6.5 query: SELECT S.a, SUM(S.b) FROM S GROUP BY S.a."""
    schema, batch = make_batch([1, 2, 1, 2, 3], [10.0, 20.0, 5.0, 1.0, 7.0])
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")])
    out_schema = op.bind(schema)
    assert out_schema.names == ("a", "sum_b")
    assert len(op.process(batch)) == 0  # nothing during streaming (§5.4)
    result = op.flush()
    got = dict(zip(result["a"].tolist(), result["sum_b"].tolist()))
    assert got == {1: 15.0, 2: 21.0, 3: 7.0}


def test_groupby_flush_preserves_insertion_order():
    schema, batch = make_batch([3, 1, 2, 1], [1.0, 1.0, 1.0, 1.0])
    op = GroupByOperator(["a"], [AggregateSpec("count", "*")])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    assert result["a"].tolist() == [3, 1, 2]


def test_groupby_multiple_aggregates():
    schema, batch = make_batch([1, 1, 2], [4.0, 6.0, 10.0])
    op = GroupByOperator(["a"], [
        AggregateSpec("count", "*"),
        AggregateSpec("avg", "b"),
        AggregateSpec("min", "b"),
    ])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    by_key = {int(r["a"]): r for r in result}
    assert by_key[1]["count_star"] == 2
    assert by_key[1]["avg_b"] == pytest.approx(5.0)
    assert by_key[2]["min_b"] == 10.0


def test_groupby_multi_key():
    schema = default_schema()
    batch = schema.empty(4)
    batch["a"] = [1, 1, 2, 1]
    batch["c"] = [7, 8, 7, 7]
    batch["b"] = [1.0, 1.0, 1.0, 1.0]
    op = GroupByOperator(["a", "c"], [AggregateSpec("count", "*")])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    counts = {(int(r["a"]), int(r["c"])): int(r["count_star"]) for r in result}
    assert counts == {(1, 7): 2, (1, 8): 1, (2, 7): 1}


def test_groupby_flush_cycles_scale_with_groups():
    schema, batch = make_batch(list(range(64)), [1.0] * 64)
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")])
    op.bind(schema)
    op.process(batch)
    assert op.flush_cycles() == 4 * 64


def test_groupby_overflow_groups_merge_exactly():
    """Client-side merge of overflow accumulators restores exact results."""
    n = 200
    schema, batch = make_batch(list(range(n)), [float(i) for i in range(n)])
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b")],
                         ways=1, slots_per_way=64, max_kicks=2)
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    merged = {int(r["a"]): float(r["sum_b"]) for r in result}
    key_schema = schema.project(["a"])
    for key_bytes, acc in op.drain_overflow_groups().items():
        key = int(key_schema.from_bytes(key_bytes)["a"][0])
        assert key not in merged
        merged[key] = acc.result(AggregateSpec("sum", "b"), 0)
    assert merged == {i: float(i) for i in range(n)}


def test_groupby_validation():
    schema, _ = make_batch([1])
    with pytest.raises(OperatorError):
        GroupByOperator([], [AggregateSpec("sum", "b")])
    with pytest.raises(OperatorError):
        GroupByOperator(["a"], [])
    clash = GroupByOperator(["a"], [AggregateSpec("sum", "b", alias="a")])
    with pytest.raises(OperatorError):
        clash.bind(schema)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10),
                          st.integers(min_value=-100, max_value=100)),
                min_size=1, max_size=100))
def test_groupby_matches_python_dict_oracle(rows):
    keys = [k for k, _ in rows]
    vals = [float(v) for _, v in rows]
    schema, batch = make_batch(keys, vals)
    op = GroupByOperator(["a"], [AggregateSpec("sum", "b"),
                                 AggregateSpec("count", "*")])
    op.bind(schema)
    op.process(batch)
    result = op.flush()
    got = {int(r["a"]): (float(r["sum_b"]), int(r["count_star"]))
           for r in result}
    expected = {}
    for k, v in zip(keys, vals):
        s, c = expected.get(k, (0.0, 0))
        expected[k] = (s + v, c + 1)
    assert got == expected


# --- batched operators vs a scalar replay ------------------------------------------
#
# The operators and the client kernels fold whole batches with numpy.  The
# replay below is the row-at-a-time model they must match bit for bit:
# ``ShiftRegisterLru.lookup_or_insert`` per key, ``Accumulator.update`` per
# row, one ``CuckooHashTable.put`` per new key, and per-element assignment
# of the results.

from hypothesis import example  # noqa: E402

from repro.baselines.sw_ops import (  # noqa: E402
    software_distinct,
    software_groupby,
)
from repro.common.records import Column, Schema  # noqa: E402
from repro.operators.cuckoo import CuckooHashTable  # noqa: E402
from repro.operators.lru_cache import ShiftRegisterLru  # noqa: E402

REPLAY_SCHEMA = Schema([Column("k", "int64"), Column("f", "float64"),
                        Column("s", "char", 3), Column("v", "float64"),
                        Column("w", "int64"), Column("u", "uint64")])
KEY_SETS = (["k"], ["f"], ["s"], ["k", "f"], ["f", "s", "k"])
SPECIAL_FLOATS = (float("nan"), -float("nan"), -0.0, 0.0, float("inf"),
                  -float("inf"), 0.1, 0.2, 1 / 3, -7.5, 1e308, -1e308)
BIG_INTS = (2**53 + 1, 2**62, -(2**62), 2**63 - 1, -(2**63))

replay_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
replay_rows = st.lists(st.tuples(
    st.integers(-3, 3), st.sampled_from(SPECIAL_FLOATS),
    st.sampled_from([b"", b"a", b"ab", b"abc"]), replay_floats,
    st.one_of(st.sampled_from(BIG_INTS), st.integers(-1000, 1000)),
    st.one_of(st.sampled_from([2**64 - 1, 2**63, 2**53 + 1]),
              st.integers(0, 1000))), min_size=1, max_size=80)
replay_specs = st.lists(st.one_of(st.just(("count", "*")), st.tuples(
    st.sampled_from(["count", "sum", "min", "max", "avg"]),
    st.sampled_from(["v", "w", "u", "k", "f"]))), min_size=1, max_size=4)
replay_tables = st.fixed_dictionaries({
    "ways": st.integers(1, 4), "slots_per_way": st.sampled_from([2, 4, 16_384]),
    "max_kicks": st.integers(1, 4), "lru_depth_per_way": st.integers(1, 4)})


def _replay_specs(pairs):
    return [AggregateSpec(func, column, alias=f"x{i}")
            for i, (func, column) in enumerate(pairs)]


def _replay_batch(rows):
    batch = REPLAY_SCHEMA.empty(len(rows))
    for name, values in zip(REPLAY_SCHEMA.names, zip(*rows)):
        batch[name] = np.array(values, dtype=batch[name].dtype)
    return batch


def _value_columns(specs):
    return sorted({s.column for s in specs
                   if not (s.func == "count" and s.column == "*")})


def _scalar_images(batch, key_schema):
    keys = key_schema.empty(len(batch))
    for name in key_schema.names:
        keys[name] = batch[name]
    raw = key_schema.to_bytes(keys)
    width = key_schema.row_width
    return [raw[i * width:(i + 1) * width] for i in range(len(batch))]


def _scalar_rows(out_schema, key_schema, groups, specs, value_columns):
    """Per-element assignment of each group's results, as a row loop."""
    out = out_schema.empty(len(groups))
    for i, (key, acc) in enumerate(groups):
        key_row = key_schema.from_bytes(key)
        for name in key_schema.names:
            out[name][i] = key_row[name][0]
        for spec in specs:
            idx = (value_columns.index(spec.column)
                   if spec.column in value_columns else 0)
            out[spec.alias][i] = acc.result(spec, idx)
    return out


def _outcome(fn):
    """``fn()``'s value, or the type of what it raised."""
    try:
        return fn()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class ScalarGroupBy:
    """GROUP BY one row at a time (the replay model)."""

    def __init__(self, key_columns, specs, ways, slots_per_way, max_kicks,
                 lru_depth_per_way):
        self.key_schema = REPLAY_SCHEMA.project(key_columns)
        self.specs = specs
        self.value_columns = _value_columns(specs)
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        self.queue, self.resident, self.overflow = [], {}, {}

    def process(self, batch):
        values = [tuple(float(batch[c][i]) for c in self.value_columns)
                  for i in range(len(batch))]
        for key, row in zip(_scalar_images(batch, self.key_schema), values):
            self.lru.lookup_or_insert(key)
            acc = self.overflow.get(key) or self.resident.get(key)
            if acc is None:
                acc = self.resident[key] = Accumulator(len(row))
                self.queue.append(key)
                if not self.table.put(key, acc):
                    for evicted, evicted_acc in self.table.drain_overflow():
                        self.overflow[evicted] = evicted_acc
                        self.resident.pop(evicted, None)
            acc.update(row)

    def flush(self, out_schema):
        groups = [(k, self.resident[k]) for k in self.queue
                  if k in self.resident]
        return _scalar_rows(out_schema, self.key_schema, groups, self.specs,
                            self.value_columns)


class ScalarDistinct:
    """DISTINCT one row at a time (the replay model)."""

    def __init__(self, key_columns, ways, slots_per_way, max_kicks,
                 lru_depth_per_way):
        self.key_schema = REPLAY_SCHEMA.project(key_columns)
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        self.resident = set()
        self.dropped = self.overflowed = 0

    def process(self, batch):
        keep = np.zeros(len(batch), dtype=bool)
        for i, key in enumerate(_scalar_images(batch, self.key_schema)):
            if self.lru.lookup_or_insert(key) or key in self.resident:
                self.dropped += 1
                continue
            keep[i] = True
            self.resident.add(key)
            if not self.table.put(key, True):
                self.overflowed += 1
                self.resident.discard(self.table.overflow[-1][0])
        return batch[keep]


def _map_resizes(num_keys):
    """Growths of a 16-slot map doubling at 7/8 load, one insert at a time."""
    slots, resizes = 16, 0
    for size in range(1, num_keys + 1):
        if size * 8 >= slots * 7:
            slots *= 2
            resizes += 1
    return resizes


def _scalar_software_groupby(rows, key_columns, specs):
    key_schema = REPLAY_SCHEMA.project(key_columns)
    value_columns = _value_columns(specs)
    groups = {}
    for i, key in enumerate(_scalar_images(rows, key_schema)):
        groups.setdefault(key, Accumulator(len(value_columns))).update(
            tuple(float(rows[c][i]) for c in value_columns))
    out_schema = Schema([REPLAY_SCHEMA.column(k) for k in key_columns]
                        + [s.output_column(REPLAY_SCHEMA) for s in specs])
    return (_scalar_rows(out_schema, key_schema, list(groups.items()), specs,
                         value_columns).tobytes(),
            len(groups), _map_resizes(len(groups)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KEY_SETS), replay_specs, replay_tables,
       st.lists(replay_rows, min_size=1, max_size=4))
@example(["k"], [("min", "v"), ("max", "v"), ("sum", "v")],
         {"ways": 1, "slots_per_way": 16_384, "max_kicks": 1,
          "lru_depth_per_way": 1},
         [[(1, 0.0, b"", float("nan"), 0, 0), (1, 0.0, b"", 2.0, 0, 0),
           (2, 0.0, b"", -0.0, 0, 0), (2, 0.0, b"", 0.0, 0, 0),
           (3, 0.0, b"", float("inf"), 0, 0),
           (3, 0.0, b"", -float("inf"), 0, 0),
           (3, 0.0, b"", float("nan"), 0, 0)]
         + [(k, 0.0, b"", v, 0, 0) for k, seed in ((4, 1.0), (5, -1.0))
            for v in (seed, 0.0, -0.0)]
         + [(k, 0.0, b"", v, 0, 0) for k, seed in ((6, 1.0), (7, -1.0))
            for v in (seed, -0.0, 0.0)],
          [(2, 0.0, b"", 0.0, 0, 0), (2, 0.0, b"", -0.0, 0, 0),
           (1, 0.0, b"", -1.0, 0, 0)]])
@example(["k"], [("max", "v"), ("min", "w"), ("max", "u")],
         {"ways": 4, "slots_per_way": 16_384, "max_kicks": 4,
          "lru_depth_per_way": 4},
         [[(1, 0.0, b"", 1.0, 5, 7), (1, 0.0, b"", 5.0, -2, 9),
           (1, 0.0, b"", 3.0, 4, 1)], [(1, 0.0, b"", 9.0, -9, 2**63)]])
@example(["f"], [("sum", "w"), ("min", "w"), ("avg", "u")],
         {"ways": 1, "slots_per_way": 2, "max_kicks": 1,
          "lru_depth_per_way": 1},
         [[(0, x, b"", 0.0, 2**62, 2**63) for x in SPECIAL_FLOATS]] * 2)
def test_batched_grouping_replays_the_scalar_model(keys, spec_pairs, table,
                                                    batches):
    specs = _replay_specs(spec_pairs)
    batches = [_replay_batch(rows) for rows in batches]
    value_columns = _value_columns(specs)

    op = GroupByOperator(keys, specs, **table)
    out_schema = op.bind(REPLAY_SCHEMA)
    ref = ScalarGroupBy(keys, specs, **table)
    for batch in batches:
        op.process(batch)
        ref.process(batch)
    assert (_outcome(lambda: op.flush().tobytes())
            == _outcome(lambda: ref.flush(out_schema).tobytes()))
    assert op.flush_cycles() == 4 * len(ref.queue)
    assert op.table.kicks == ref.table.kicks
    assert (op.lru.hits, op.lru.misses) == (ref.lru.hits, ref.lru.misses)
    assert op.lru.resident == ref.lru.resident
    assert op.num_groups == len(ref.table) + len(ref.overflow)
    drained = op.drain_overflow_groups()
    assert list(drained) == list(ref.overflow)

    def overflow_rows(groups):
        return _scalar_rows(out_schema, ref.key_schema, list(groups.items()),
                            specs, value_columns).tobytes()
    assert (_outcome(lambda: overflow_rows(drained))
            == _outcome(lambda: overflow_rows(ref.overflow)))
    assert op.drain_overflow_groups() == {}

    dop = DistinctOperator(keys, **table)
    dop.bind(REPLAY_SCHEMA)
    dref = ScalarDistinct(keys, **table)
    for batch in batches:
        assert dop.process(batch).tobytes() == dref.process(batch).tobytes()
    assert dop.duplicates_dropped == dref.dropped
    assert dop.overflow_count == dref.overflowed
    assert dop.table.kicks == dref.table.kicks
    assert (dop.lru.hits, dop.lru.misses) == (dref.lru.hits, dref.lru.misses)
    assert dop.lru.resident == dref.lru.resident
    assert dop.drain_overflow_keys() == [k for k, _ in dref.table.overflow]

    rows = np.concatenate(batches)
    shipped = software_distinct(rows, REPLAY_SCHEMA, keys)
    images = _scalar_images(rows, REPLAY_SCHEMA.project(keys))
    firsts = sorted({key: i for i, key in reversed(list(
        enumerate(images)))}.values())
    assert shipped.rows.tobytes() == rows[firsts].tobytes()
    assert shipped.map_resizes == _map_resizes(len(firsts))

    def shipped_groups():
        out = software_groupby(rows, REPLAY_SCHEMA, keys, specs)
        return out.rows.tobytes(), out.num_groups, out.map_resizes
    assert (_outcome(shipped_groups)
            == _outcome(lambda: _scalar_software_groupby(rows, keys, specs)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8),
       st.lists(st.lists(st.integers(0, 24), max_size=120), max_size=4))
def test_probe_batch_replays_lookup_or_insert(depth, batches):
    batched, scalar = ShiftRegisterLru(depth), ShiftRegisterLru(depth)
    for keys in batches:
        images = np.array(keys, dtype="<i8").view(np.dtype((np.void, 8)))
        expected = [scalar.lookup_or_insert(k) for k in images.tolist()]
        assert batched.probe_batch(images).tolist() == expected
        assert (batched.hits, batched.misses) == (scalar.hits, scalar.misses)
        assert batched.resident == scalar.resident
