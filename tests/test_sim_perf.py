"""Regression guards for the event-loop fast path and zero-copy data plane.

Budgets are deliberately generous (events exact-ish, wall clock ~10x
headroom) — they exist to catch order-of-magnitude regressions such as the
per-callback heap scheduling or per-burst byte copies this PR removed, not
to flake on slow CI machines.
"""

import time

import numpy as np
import pytest

from repro.baselines.sw_ops import (
    software_distinct,
    software_groupby,
    software_join,
)
from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.records import Column, Schema, default_schema
from repro.common.units import MB
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import select_distinct
from repro.core.table import FTable
from repro.operators import hashing
from repro.operators.aggregate import Accumulator, AggregateSpec
from repro.operators.distinct import DistinctOperator
from repro.operators.groupby import GroupByOperator
from repro.operators.join import SmallTableJoinOperator
from repro.operators.lru_cache import ShiftRegisterLru
from repro.sim.engine import Simulator
from repro.workloads.generator import distinct_workload

KB = 1024


def _run_reference_workload():
    """Two concurrent DISTINCT clients over 256 KB tables (fig12-style)."""
    sim = Simulator()
    config = FarviewConfig(memory=MemoryConfig(channels=2,
                                               channel_capacity=16 * MB))
    node = FarviewNode(sim, config)
    clients, tables = [], []
    nrows = 256 * KB // 64
    for i in range(2):
        client = FarviewClient(node)
        client.open_connection()
        schema, rows = distinct_workload(nrows, 64, seed=i)
        table = FTable(f"T{i}", schema, nrows)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        clients.append(client)
        tables.append(table)
    query = select_distinct(["a"])
    for client, table in zip(clients, tables):
        client.far_view(table, query)  # deploy pipelines

    results = {}

    def run_one(client, table, tag):
        result = yield from client.far_view_proc(table, query)
        results[tag] = result

    events_before = sim.events_processed
    start_sim = sim.now
    start_wall = time.perf_counter()
    procs = [sim.process(run_one(c, t, i))
             for i, (c, t) in enumerate(zip(clients, tables))]
    sim.run()
    wall = time.perf_counter() - start_wall
    assert all(p.triggered for p in procs)
    for i in range(2):
        assert len(results[i].rows()) == 64
    return {
        "events": sim.events_processed - events_before,
        "sim_ns": sim.now - start_sim,
        "wall_s": wall,
        "digests": [results[i].data for i in range(2)],
    }


def test_event_count_budget():
    """The measured phase stays within an event budget (~10x headroom).

    At the fast-path commit the workload executes ~420 simulator
    callbacks; a regression to per-callback heap scheduling or per-tuple
    processing would blow straight through the budget.
    """
    stats = _run_reference_workload()
    assert 0 < stats["events"] < 5_000


def test_wall_clock_budget():
    """~20 ms at the fast-path commit; 100x slack for slow CI machines."""
    stats = _run_reference_workload()
    assert stats["wall_s"] < 2.0


def test_run_is_deterministic():
    """Same workload, same simulated time and byte-identical results."""
    a = _run_reference_workload()
    b = _run_reference_workload()
    assert a["sim_ns"] == b["sim_ns"]
    assert a["events"] == b["events"]
    assert a["digests"] == b["digests"]


# -- host work proportional to the data (counts, not wall clock) --------------

def test_receive_buffer_storage_tracks_the_bytes_deposited():
    """A 4 KiB result into an 8 MiB receive buffer stores 4 KiB, not 8."""
    config = FarviewConfig(memory=MemoryConfig(channels=2,
                                               channel_capacity=16 * MB))
    client = FarviewClient(FarviewNode(Simulator(), config))
    conn = client.open_connection()
    assert conn.qp.buffer.capacity == 8 * MB
    assert conn.qp.buffer.stored_bytes == 0
    schema = default_schema()
    nrows = 4 * KB // schema.row_width
    rows = schema.empty(nrows)
    rows["a"] = np.arange(nrows)
    table = FTable("T", schema, nrows)
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    data, _elapsed = client.table_read(table)
    assert data == schema.to_bytes(rows)
    buffer = conn.qp.buffer
    assert buffer.bytes_received == 4 * KB
    assert buffer.stored_bytes <= buffer.bytes_received


def test_join_build_and_probe_hash_each_batch_not_each_key(monkeypatch):
    """Without evictions, neither join kernel hashes a key on its own."""
    calls = []
    scalar = hashing.hash_key

    def counting_hash_key(key, seed=0):
        calls.append(key)
        return scalar(key, seed)

    monkeypatch.setattr(hashing, "hash_key", counting_hash_key)
    dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
    dim = dim_schema.empty(512)
    dim["id"] = np.arange(512) * 3
    dim["rate"] = np.arange(512) * 0.5
    schema = default_schema()
    fact = schema.empty(4096)
    fact["a"] = np.arange(4096) % 1024
    op = SmallTableJoinOperator(dim_schema, "id", "a", ["rate"])
    op.load_build(dim)
    op.bind(schema)
    out = op.process(fact)
    assert op.table.kicks == 0
    shipped = software_join(fact, schema, dim, dim_schema, "id", "a",
                            ["rate"])
    assert len(out) == len(shipped) == 4 * 342
    assert calls == []
    # The counter is live: a scalar lookup is seen.
    assert (b"\0" * 8) in op.table
    assert calls


def test_grouping_batches_make_no_per_row_calls(monkeypatch):
    """A 256-row GROUP BY or DISTINCT batch probes the LRU once and never
    steps an accumulator or the LRU row by row; nor do the client
    kernels."""
    calls = {"update": 0, "lookup_or_insert": 0, "probe_batch": 0}

    def counting(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(Accumulator, "update")
    counting(ShiftRegisterLru, "lookup_or_insert")
    counting(ShiftRegisterLru, "probe_batch")
    schema = default_schema()
    batch = schema.empty(256)
    batch["a"] = np.arange(256) % 40
    batch["b"] = np.arange(256) * 0.25
    aggregates = [AggregateSpec("sum", "b"), AggregateSpec("min", "b"),
                  AggregateSpec("count", "*")]
    for op in (GroupByOperator(["a"], aggregates), DistinctOperator(["a"])):
        op.bind(schema)
        op.process(batch)
        assert calls == {"update": 0, "lookup_or_insert": 0,
                         "probe_batch": 1}, type(op).__name__
        calls["probe_batch"] = 0
    assert len(software_groupby(batch, schema, ["a"], aggregates).rows) == 40
    assert len(software_distinct(batch, schema, ["a"]).rows) == 40
    assert calls == {"update": 0, "lookup_or_insert": 0, "probe_batch": 0}
    # The counters are live: a scalar step is seen.
    Accumulator(1).update((1.0,))
    ShiftRegisterLru(2).lookup_or_insert(b"k")
    assert calls == {"update": 1, "lookup_or_insert": 1, "probe_batch": 0}


# -- zero-copy from_bytes contract --------------------------------------------

def test_from_bytes_roundtrips_exactly():
    schema = default_schema()
    rows = schema.empty(16)
    rows["a"] = np.arange(16)
    rows["b"] = np.linspace(0.0, 1.5, 16)
    image = schema.to_bytes(rows)
    view = schema.from_bytes(image)
    np.testing.assert_array_equal(view["a"], rows["a"])
    np.testing.assert_array_equal(view["b"], rows["b"])
    assert schema.to_bytes(view) == image


def test_from_bytes_view_is_zero_copy_and_readonly():
    schema = default_schema()
    image = schema.to_bytes(schema.empty(8))
    view = schema.from_bytes(image)
    assert not view.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        view["a"] = 1


def test_from_bytes_never_aliases_writable_buffers():
    """Even a writable source (bytearray / plain memoryview) yields a
    read-only view — the zero-copy path can never scribble on a buffer the
    producer still owns."""
    schema = default_schema()
    source = bytearray(schema.to_bytes(schema.empty(4)))
    for buf in (source, memoryview(source)):
        view = schema.from_bytes(buf)
        assert not view.flags.writeable


def test_from_bytes_copy_flag_gives_writable_owned_array():
    schema = default_schema()
    image = schema.to_bytes(schema.empty(4))
    arr = schema.from_bytes(image, copy=True)
    assert arr.flags.writeable
    arr["a"] = 7  # must not raise
    # and the original image is untouched
    assert schema.from_bytes(image)["a"][0] == 0


def test_row_parser_handles_misaligned_bursts_over_memoryviews():
    """Split rows across memoryview chunks still parse byte-exactly."""
    from repro.operators.base import _RowParser

    schema = default_schema()
    rows = schema.empty(33)
    rows["a"] = np.arange(33)
    image = schema.to_bytes(rows)
    parser = _RowParser(schema)
    out = []
    cursor = 0
    mv = memoryview(image)
    for size in (100, 7, 512, 1, 1000, len(image)):  # ragged chunking
        chunk = mv[cursor:cursor + size]
        cursor += len(chunk)
        batch = parser.feed(chunk)
        if len(batch):
            out.append(schema.to_bytes(batch))
        if cursor >= len(image):
            break
    parser.finish()
    assert b"".join(out) == image
