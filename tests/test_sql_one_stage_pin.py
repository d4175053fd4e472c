"""Pins simulated time and result bytes of one-stage SQL statements.

A one-stage statement binds to a single offloadable head Query (no join
arm and no client kernel beyond the plain projection / DISTINCT the head
absorbs).  For each shape this asserts ``(elapsed_ns, sha256)`` on a
single-node :class:`FarviewClient` and on a 4-node
:class:`ClusterClient`, under every placement, so any change to how
such statements lower shows up as a timing or byte drift.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.common.records import Column, Schema
from repro.core.api import (ClusterClient, FarviewClient,
                            canonical_result_bytes)
from repro.core.cluster import FarviewCluster
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.table import FTable
from repro.sim.engine import Simulator

T_SCHEMA = Schema([Column("a", "int64"), Column("b", "int64"),
                   Column("c", "int64"), Column("f", "float64"),
                   Column("s", "char", 8)])
D_SCHEMA = Schema([Column("id", "int64"), Column("v", "int64"),
                   Column("w", "float64")])
FACT_SCHEMA = Schema([Column("key", "int64"), Column("seq", "int64"),
                      Column("val", "float64")])
DIMH_SCHEMA = Schema([Column("id", "int64"), Column("rate", "float64")])
DIMC_SCHEMA = Schema([Column("id2", "int64"), Column("rate2", "float64")])

PARTITIONS = {"fact": PartitionSpec("hash", key="key"),
              "dimh": PartitionSpec("hash", key="id")}


def _tables() -> dict[str, tuple[Schema, np.ndarray]]:
    rng = np.random.default_rng(1515)
    t = T_SCHEMA.empty(256)
    for name in ("a", "b", "c"):
        t[name] = rng.integers(0, 12, len(t))
    t["f"] = rng.integers(0, 40, len(t)) * 0.25
    t["s"] = [(b"x" if i % 3 else b"y") + bytes([97 + i % 7])
              for i in range(len(t))]
    d = D_SCHEMA.empty(16)
    d["id"] = np.arange(len(d))
    d["v"] = rng.integers(0, 5, len(d))
    d["w"] = rng.integers(0, 20, len(d)) * 0.5
    fact = FACT_SCHEMA.empty(384)
    fact["key"] = rng.integers(0, 96, len(fact))
    fact["seq"] = np.arange(len(fact))
    fact["val"] = rng.integers(0, 1000, len(fact)) * 0.5
    dimh = DIMH_SCHEMA.empty(64)
    dimh["id"] = np.arange(len(dimh))
    dimh["rate"] = rng.integers(0, 400, len(dimh)) * 0.25
    dimc = DIMC_SCHEMA.empty(96)
    dimc["id2"] = np.arange(len(dimc))
    dimc["rate2"] = rng.integers(0, 400, len(dimc)) * 0.25
    return {"t": (T_SCHEMA, t), "d": (D_SCHEMA, d),
            "fact": (FACT_SCHEMA, fact), "dimh": (DIMH_SCHEMA, dimh),
            "dimc": (DIMC_SCHEMA, dimc)}


SHAPES = {
    "star": "SELECT * FROM t",
    "reordered-projection": "SELECT c, a FROM t WHERE b < 6",
    "distinct": "SELECT DISTINCT a, b FROM t",
    "group-by": "SELECT a, SUM(b) AS s, COUNT(*) AS n FROM t GROUP BY a",
    "aggregate": "SELECT COUNT(*) AS n, MAX(f) AS m FROM t WHERE c > 2",
    "like-predicate": "SELECT a, s FROM t WHERE a < 8 AND s LIKE 'x%'",
    "star-join": "SELECT * FROM t JOIN d ON t.a = d.id",
    "projected-join":
        "SELECT t.b, d.v FROM t JOIN d ON t.a = d.id WHERE t.b > 3",
    "build-key-select": "SELECT d.id, d.v FROM t JOIN d ON t.a = d.id",
    "semi-join": "SELECT b, c FROM t JOIN d ON t.a = d.id",
    "distinct-join": "SELECT DISTINCT d.v FROM t JOIN d ON t.a = d.id",
    "join-colocated": "SELECT key, seq, val, rate FROM fact "
                      "JOIN dimh ON fact.key = dimh.id WHERE val < 250",
    "join-shuffle": "SELECT key, seq, val, rate2 FROM fact "
                    "JOIN dimc ON fact.key = dimc.id2",
}

PLACEMENTS = ("offload", "ship", "auto")


def _client(kind: str):
    sim = Simulator()
    tables = _tables()
    if kind == "node":
        client = FarviewClient(FarviewNode(sim))
        client.open_connection()
        for name, (schema, rows) in tables.items():
            table = FTable(name, schema, len(rows))
            client.alloc_table_mem(table)
            client.table_write(table, rows)
        return client
    client = ClusterClient(FarviewCluster(sim, 4))
    client.open_connection()
    for name, (schema, rows) in tables.items():
        client.create_table(name, schema, rows,
                            partition=PARTITIONS.get(name))
    return client


def run_shape(kind: str, shape: str, placement: str):
    """Elapsed ns of one statement on a fresh client -- cold, after an
    offloaded run has loaded its pipeline, and warm -- and the sha256
    prefix of the result, which every run must agree on."""
    client = _client(kind)
    elapsed, digests = [], set()
    for run in (placement, "offload", placement):
        result, ns = client.sql(SHAPES[shape], placement=run)
        elapsed.append(ns)
        digests.add(hashlib.sha256(
            canonical_result_bytes(result)).hexdigest()[:16])
    assert len(digests) == 1, (shape, kind, placement)
    return tuple(elapsed), digests.pop()


#: (shape, client kind, placement) -> ((cold, offloaded, warm) elapsed
#: ns, sha256 prefix).
PINNED = {
    ('aggregate', 'node', 'offload'): (
        (4003824.5827160496, 3824.5827160496265, 3824.5827160496265),
        '7b50386b7049d93d'),
    ('aggregate', 'node', 'ship'): (
        (22299.036049382714, 4003824.5827160496, 22299.0360493809),
        '7b50386b7049d93d'),
    ('aggregate', 'node', 'auto'): (
        (22299.036049382714, 4003824.5827160496, 3824.5827160496265),
        '7b50386b7049d93d'),
    ('aggregate', 'cluster4', 'offload'): (
        (4003107.545679013, 3107.545679012779, 3107.545679012779),
        '7b50386b7049d93d'),
    ('aggregate', 'cluster4', 'ship'): (
        (21402.799012345677, 4003107.545679013, 21402.799012345262),
        '7b50386b7049d93d'),
    ('aggregate', 'cluster4', 'auto'): (
        (21402.799012345677, 4003107.545679013, 3107.545679012779),
        '7b50386b7049d93d'),
    ('build-key-select', 'node', 'offload'): (
        (4004283.367901234, 4283.367901233956, 4283.367901233956),
        'cf940377696bf19e'),
    ('build-key-select', 'node', 'ship'): (
        (26928.861234567903, 4004283.3679012335, 26928.861234566197),
        'cf940377696bf19e'),
    ('build-key-select', 'node', 'auto'): (
        (26928.861234567903, 4004283.3679012335, 4283.367901233956),
        'cf940377696bf19e'),
    ('build-key-select', 'cluster4', 'offload'): (
        (4008253.226666667, 3301.370864197612, 3301.370864197612),
        'cf940377696bf19e'),
    ('build-key-select', 'cluster4', 'ship'): (
        (26001.682962962972, 4008253.226666667, 26001.682962962892),
        'cf940377696bf19e'),
    ('build-key-select', 'cluster4', 'auto'): (
        (26001.682962962972, 4008253.226666667, 26001.682962962892),
        'cf940377696bf19e'),
    ('distinct', 'node', 'offload'): (
        (4003983.3027160494, 3983.3027160493657, 3983.3027160493657),
        'fb9236db79949eab'),
    ('distinct', 'node', 'ship'): (
        (27675.036049382714, 4003983.3027160494, 27675.0360493809),
        'fb9236db79949eab'),
    ('distinct', 'node', 'auto'): (
        (27675.036049382714, 4003983.3027160494, 3983.3027160493657),
        'fb9236db79949eab'),
    ('distinct', 'cluster4', 'offload'): (
        (4003176.6656790124, 3176.6656790124252, 3176.6656790124252),
        'fb9236db79949eab'),
    ('distinct', 'cluster4', 'ship'): (
        (26778.799012345677, 4003176.6656790124, 26778.799012345262),
        'fb9236db79949eab'),
    ('distinct', 'cluster4', 'auto'): (
        (26778.799012345677, 4003176.6656790124, 3176.6656790124252),
        'fb9236db79949eab'),
    ('distinct-join', 'node', 'offload'): (
        (4003979.6879012347, 3979.68790123472, 3979.68790123472),
        '5eae0eea38a12b45'),
    ('distinct-join', 'node', 'ship'): (
        (29493.861234567903, 4003979.6879012343, 29493.861234566197),
        '5eae0eea38a12b45'),
    ('distinct-join', 'node', 'auto'): (
        (29493.861234567903, 4003979.6879012343, 3979.68790123472),
        '5eae0eea38a12b45'),
    ('distinct-join', 'cluster4', 'offload'): (
        (4008214.5066666673, 3262.6508641978726, 3262.6508641978726),
        '5eae0eea38a12b45'),
    ('distinct-join', 'cluster4', 'ship'): (
        (28566.682962962972, 4008214.5066666673, 28566.682962962892),
        '5eae0eea38a12b45'),
    ('distinct-join', 'cluster4', 'auto'): (
        (28566.682962962972, 4008214.5066666673, 28566.682962962892),
        '5eae0eea38a12b45'),
    ('group-by', 'node', 'offload'): (
        (4004030.3427160494, 4030.342716049403, 4030.342716049403),
        'f61e914ace11a9e4'),
    ('group-by', 'node', 'ship'): (
        (25525.436049382715, 4004030.3427160494, 25525.43604938127),
        'f61e914ace11a9e4'),
    ('group-by', 'node', 'auto'): (
        (25525.436049382715, 4004030.3427160494, 4030.342716049403),
        'f61e914ace11a9e4'),
    ('group-by', 'cluster4', 'offload'): (
        (4003313.3056790126, 3313.3056790125556, 3313.3056790125556),
        'f61e914ace11a9e4'),
    ('group-by', 'cluster4', 'ship'): (
        (24629.199012345685, 4003313.3056790126, 24629.199012345634),
        'f61e914ace11a9e4'),
    ('group-by', 'cluster4', 'auto'): (
        (24629.199012345685, 4003313.3056790126, 3313.3056790125556),
        'f61e914ace11a9e4'),
    ('join-colocated', 'node', 'offload'): (
        (4004162.0760493823, 4162.076049382333, 4162.076049382333),
        '632600543116f010'),
    ('join-colocated', 'node', 'ship'): (
        (26739.08938271605, 4004162.0760493823, 26739.089382714592),
        '632600543116f010'),
    ('join-colocated', 'node', 'auto'): (
        (26739.08938271605, 4004162.0760493823, 4162.076049382333),
        '632600543116f010'),
    ('join-colocated', 'cluster4', 'offload'): (
        (4003327.8214814817, 3327.82148148166, 3327.82148148166),
        '9789b787d238e54c'),
    ('join-colocated', 'cluster4', 'ship'): (
        (25898.974814814814, 4003327.8214814817, 25898.97481481498),
        '9789b787d238e54c'),
    ('join-colocated', 'cluster4', 'auto'): (
        (25898.974814814814, 4003327.8214814817, 25898.97481481498),
        '9789b787d238e54c'),
    ('join-shuffle', 'node', 'offload'): (
        (4004929.8785185167, 4929.8785185166635, 4929.8785185166635),
        'd8392509bf15dadb'),
    ('join-shuffle', 'node', 'ship'): (
        (30678.518518518515, 4004929.8785185167, 30678.518518516794),
        'd8392509bf15dadb'),
    ('join-shuffle', 'node', 'auto'): (
        (30678.518518518515, 4004929.8785185167, 4929.8785185166635),
        'd8392509bf15dadb'),
    ('join-shuffle', 'cluster4', 'offload'): (
        (4008530.359753086, 3537.212098765187, 3537.212098765187),
        '65679238d880becc'),
    ('join-shuffle', 'cluster4', 'ship'): (
        (29780.361481481486, 4008530.359753086, 29780.361481481697),
        '65679238d880becc'),
    ('join-shuffle', 'cluster4', 'auto'): (
        (29780.361481481486, 4008530.359753086, 29780.361481481697),
        '65679238d880becc'),
    ('like-predicate', 'node', 'offload'): (
        (4004002.8227160494, 4002.8227160493843, 4002.8227160493843),
        '6519ee0de06ecb74'),
    ('like-predicate', 'node', 'ship'): (
        (22551.836049382717, 4004002.8227160494, 22551.836049381178),
        '6519ee0de06ecb74'),
    ('like-predicate', 'node', 'auto'): (
        (22551.836049382717, 4004002.8227160494, 4002.8227160493843),
        '6519ee0de06ecb74'),
    ('like-predicate', 'cluster4', 'offload'): (
        (4003184.6656790124, 3184.6656790124252, 3184.6656790124252),
        '6519ee0de06ecb74'),
    ('like-predicate', 'cluster4', 'ship'): (
        (21655.59901234568, 4003184.6656790124, 21655.59901234554),
        '6519ee0de06ecb74'),
    ('like-predicate', 'cluster4', 'auto'): (
        (21655.59901234568, 4003184.6656790124, 3184.6656790124252),
        '6519ee0de06ecb74'),
    ('projected-join', 'node', 'offload'): (
        (4004189.2879012343, 4189.287901234347, 4189.287901234347),
        'e070d7a8e4b9b531'),
    ('projected-join', 'node', 'ship'): (
        (26074.861234567903, 4004189.287901234, 26074.861234566197),
        'e070d7a8e4b9b531'),
    ('projected-join', 'node', 'auto'): (
        (26074.861234567903, 4004189.287901234, 4189.287901234347),
        'e070d7a8e4b9b531'),
    ('projected-join', 'cluster4', 'offload'): (
        (4008251.306666667, 3299.4508641976863, 3299.4508641976863),
        'e070d7a8e4b9b531'),
    ('projected-join', 'cluster4', 'ship'): (
        (25147.682962962972, 4008251.306666667, 25147.682962962892),
        'e070d7a8e4b9b531'),
    ('projected-join', 'cluster4', 'auto'): (
        (25147.682962962972, 4008251.306666667, 25147.682962962892),
        'e070d7a8e4b9b531'),
    ('reordered-projection', 'node', 'offload'): (
        (4003954.1827160493, 3954.182716049254, 3954.182716049254),
        '6f2d4ebb00f75162'),
    ('reordered-projection', 'node', 'ship'): (
        (20684.636049382712, 4003954.1827160493, 20684.63604938099),
        '6f2d4ebb00f75162'),
    ('reordered-projection', 'node', 'auto'): (
        (20684.636049382712, 4003954.1827160493, 3954.182716049254),
        '6f2d4ebb00f75162'),
    ('reordered-projection', 'cluster4', 'offload'): (
        (4003121.9456790127, 3121.945679012686, 3121.945679012686),
        '6f2d4ebb00f75162'),
    ('reordered-projection', 'cluster4', 'ship'): (
        (19788.399012345675, 4003121.9456790127, 19788.399012345355),
        '6f2d4ebb00f75162'),
    ('reordered-projection', 'cluster4', 'auto'): (
        (19788.399012345675, 4003121.9456790127, 3121.945679012686),
        '6f2d4ebb00f75162'),
    ('semi-join', 'node', 'offload'): (
        (4004283.367901234, 4283.367901233956, 4283.367901233956),
        '9599d6c884659df4'),
    ('semi-join', 'node', 'ship'): (
        (26928.861234567903, 4004283.3679012335, 26928.861234566197),
        '9599d6c884659df4'),
    ('semi-join', 'node', 'auto'): (
        (26928.861234567903, 4004283.3679012335, 4283.367901233956),
        '9599d6c884659df4'),
    ('semi-join', 'cluster4', 'offload'): (
        (4008253.226666667, 3301.370864197612, 3301.370864197612),
        '9599d6c884659df4'),
    ('semi-join', 'cluster4', 'ship'): (
        (26001.682962962972, 4008253.226666667, 26001.682962962892),
        '9599d6c884659df4'),
    ('semi-join', 'cluster4', 'auto'): (
        (26001.682962962972, 4008253.226666667, 26001.682962962892),
        '9599d6c884659df4'),
    ('star', 'node', 'offload'): (
        (4004644.102716048, 4644.102716047782, 4644.102716047782),
        '6d2f62f3862ab240'),
    ('star', 'node', 'ship'): (
        (21137.436049382715, 4004644.102716048, 21137.43604938127),
        '6d2f62f3862ab240'),
    ('star', 'node', 'auto'): (
        (4004644.102716048, 4644.102716047782, 4644.102716047782),
        '6d2f62f3862ab240'),
    ('star', 'cluster4', 'offload'): (
        (4003267.865679012, 3267.865679012146, 3267.865679012146),
        '6d2f62f3862ab240'),
    ('star', 'cluster4', 'ship'): (
        (20241.199012345678, 4003267.865679012, 20241.199012345634),
        '6d2f62f3862ab240'),
    ('star', 'cluster4', 'auto'): (
        (4003267.865679012, 3267.865679012146, 3267.865679012146),
        '6d2f62f3862ab240'),
    ('star-join', 'node', 'offload'): (
        (4005150.5679012323, 5150.56790123228, 5150.56790123228),
        '30412e12bea65faf'),
    ('star-join', 'node', 'ship'): (
        (27799.261234567904, 4005150.5679012323, 27799.26123456657),
        '30412e12bea65faf'),
    ('star-join', 'node', 'auto'): (
        (27799.261234567904, 4005150.5679012323, 5150.56790123228),
        '30412e12bea65faf'),
    ('star-join', 'cluster4', 'offload'): (
        (4008461.2266666666, 3509.370864197146, 3509.370864197146),
        '30412e12bea65faf'),
    ('star-join', 'cluster4', 'ship'): (
        (26872.082962962966, 4008461.226666666, 26872.082962963264),
        '30412e12bea65faf'),
    ('star-join', 'cluster4', 'auto'): (
        (26872.082962962966, 4008461.226666666, 26872.082962963264),
        '30412e12bea65faf'),
}


@pytest.mark.parametrize("kind", ("node", "cluster4"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_stage_statement_is_pinned(shape, kind):
    for placement in PLACEMENTS:
        assert run_shape(kind, shape, placement) == \
            PINNED[(shape, kind, placement)], (shape, kind, placement)
