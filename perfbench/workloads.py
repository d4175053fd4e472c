"""The benchmark's four workloads.

Each workload is built from a seed alone: the seed fixes every table,
statement, commit and arrival the system receives.  A workload is run as
a sequence of *episodes*.  An episode starts from a fresh simulated pool
(its set-up is timed as ``setup_s``) and then makes a fixed list of
*calls* into the system.  Because every episode starts from the same
state and replays the same calls, every complete episode yields the same
simulated results, so the simulated metrics of a seed do not depend on
how fast the host is.

A call is a pair of functions.  ``run()`` makes the call into the system
and is the only part that is timed.  ``check(out)`` then verifies what
came back against the oracle, which was computed before any timing
started and shares no execution code with the engine, and returns one
:class:`Done` per operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.baselines.sql_model import execute_model
from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.records import Column, Schema
from repro.core.api import ClusterClient, FarviewClient
from repro.core.cluster import FarviewCluster
from repro.core.elasticity import RegionLeaseManager
from repro.core.node import FarviewNode
from repro.core.partition import PartitionSpec
from repro.core.query import Query, RegexFilter
from repro.core.serving import FrontDoor, ScanShape
from repro.core.table import FTable
from repro.operators.aggregate import AggregateSpec
from repro.operators.encryption_op import encrypt_table_image
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads import tpch
from stats import percentile

MB = 1 << 20

#: Pool nodes get the experiments' memory size: room for every table.
CONFIG = FarviewConfig(memory=MemoryConfig(channels=2, channel_capacity=64 * MB))

KEY = bytes(range(16))
NONCE = b"\x5a" * 12

INT_SCHEMA = Schema([Column(c, "int64") for c in "abcdefgh"])


@dataclass
class Done:
    """One operation as the benchmark saw it."""

    kind: str          # "query", "statement", "commit", "request.<rate>"
    sim_ns: float      # simulated latency of the operation
    scanned: int       # table bytes the operation scanned
    digest: str        # digest of what came back ("" if nothing did)
    ok: bool           # the digest matched the oracle
    written: int = 0   # bytes of row images a commit carried


@dataclass
class Call:
    """One call into the system: ``run`` is timed, ``check`` is not."""

    ops: int                          # operations the call carries
    run: Callable[[], object]
    check: Callable[[object], list]
    #: False: the call's host time stays out of ``host_op_ms``.
    timed: bool = True


@dataclass
class Episode:
    """A freshly set-up pool and the calls to make against it."""

    calls: list
    sims: list                        # every Simulator of the episode
    nodes: list                       # every FarviewNode of the episode
    clients: list = field(default_factory=list)
    #: Objects the runner reads counters and metrics from afterwards:
    #: ``subscriptions`` (views) and ``doors`` (serving).
    extra: dict = field(default_factory=dict)


# -- oracle helpers ---------------------------------------------------------

def rows_digest(rows) -> str:
    """sha256 of a row multiset, independent of output order and dtypes.

    ``rows`` is a numpy structured array or a list of tuples.  Numbers
    are compared as float64 (exact for every value these workloads
    produce), so an oracle need not guess whether the engine widened an
    aggregate to float64.
    """
    if isinstance(rows, np.ndarray):
        cols = [rows[name] for name in rows.dtype.names]
    else:
        cols = [np.array(col) for col in zip(*rows)]
    keys = []
    for col in cols:
        if col.dtype.kind == "S":
            keys.append(np.unique(col, return_inverse=True)[1])
        else:
            keys.append(col.astype(np.float64))
    order = np.lexsort(keys[::-1]) if keys else []
    digest = hashlib.sha256(str(len(order)).encode())
    for col, key in zip(cols, keys):
        if col.dtype.kind == "S":
            digest.update(b"\0".join(col[order].tolist()))
        else:
            digest.update(key[order].tobytes())
    return digest.hexdigest()


def _jitter(rng: np.random.Generator, base: int) -> int:
    """A seed-dependent size within 1/64 above ``base``, so simulated
    times differ from seed to seed while staying comparable."""
    return base + int(rng.integers(0, base // 64 + 1))


# -- offload_scan -----------------------------------------------------------

SCAN_CLIENTS = 6
SCAN_ROWS = 4096           # 256 KiB of 64 B rows per plain table
SCAN_WIDE_ROWS = 512       # 512 B rows for smart addressing
SCAN_REGEX_ROWS = 640      # 64 B strings; the regex engine is the dearest
SCAN_DISTINCT_KEYS = 64
SCAN_GROUP_KEYS = 3000
SCAN_ROUNDS = 12           # rounds per episode
REGEX_PATTERN = "far(view|sight)"
NEEDLE = b"farview"

WIDE_SCHEMA = Schema([Column(f"w{i}", "int64") for i in range(64)])
STRING_SCHEMA = Schema([Column("id", "int64"), Column("s", "char", 56)])


class OffloadScan:
    """C=6 clients share one node in closed-loop rounds (fig 12).

    Every client owns one table and one pipeline; a round issues one
    query per client and ends when all six have completed.
    """

    name = "offload_scan"
    extra_units: dict = {}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        n = _jitter(rng, SCAN_ROWS)

        def ints(hi: int) -> np.ndarray:
            rows = INT_SCHEMA.empty(n)
            for c in INT_SCHEMA.names:
                rows[c] = rng.integers(0, hi, n)
            return rows

        raw = ints(1 << 31)
        enc = ints(1 << 31)
        cutoff = int(rng.integers(1 << 29, 3 << 29))
        wide = WIDE_SCHEMA.empty(_jitter(rng, SCAN_WIDE_ROWS))
        for c in WIDE_SCHEMA.names:
            wide[c] = rng.integers(0, 1 << 31, len(wide))
        dist = ints(1 << 31)
        dist["a"] = rng.integers(0, SCAN_DISTINCT_KEYS, n)
        grp = ints(1000)
        grp["a"] = rng.integers(0, SCAN_GROUP_KEYS, n)
        strs = self._strings(rng, _jitter(rng, SCAN_REGEX_ROWS))
        proj = ("w1", "w7", "w33")
        self.specs = [
            ("raw", INT_SCHEMA, raw, None),
            ("enc", INT_SCHEMA, enc,
             Query(decrypt_input=True, predicate=Compare("a", "<", cutoff))),
            ("sa", WIDE_SCHEMA, wide,
             Query(projection=proj, smart_addressing=True)),
            ("distinct", INT_SCHEMA, dist,
             Query(projection=("a",), distinct=True)),
            ("groupby", INT_SCHEMA, grp,
             Query(group_by=("a",), aggregates=(AggregateSpec("sum", "b"),))),
            ("regex", STRING_SCHEMA, strs,
             Query(regex=RegexFilter("s", REGEX_PATTERN))),
        ]
        self._oracle_inputs = (raw, enc, cutoff, wide, proj, dist, grp, strs)

    @staticmethod
    def _strings(rng, n: int) -> np.ndarray:
        rows = STRING_SCHEMA.empty(n)
        rows["id"] = np.arange(n)
        # No 'f' in the filler, so only planted needles can match.
        alphabet = np.frombuffer(b"abcdeghijklmnopqrstuvwxyz0123456789",
                                 dtype=np.uint8)
        body = alphabet[rng.integers(0, len(alphabet), (n, 56))]
        planted = rng.random(n) < 0.3
        at = rng.integers(0, 56 - len(NEEDLE), n)
        needle = np.frombuffer(NEEDLE, dtype=np.uint8)
        for i in np.nonzero(planted)[0]:
            body[i, at[i]:at[i] + len(NEEDLE)] = needle
        rows["s"] = [row.tobytes() for row in body]
        return rows

    def oracle(self) -> dict:
        raw, enc, cutoff, wide, proj, dist, grp, strs = self._oracle_inputs
        sums: dict[int, int] = {}
        for k, v in zip(grp["a"].tolist(), grp["b"].tolist()):
            sums[k] = sums.get(k, 0) + v
        return {
            "raw": hashlib.sha256(INT_SCHEMA.to_bytes(raw)).hexdigest(),
            "enc": rows_digest(enc[enc["a"] < cutoff]),
            "sa": rows_digest(list(zip(*(wide[c].tolist() for c in proj)))),
            "distinct": rows_digest([(k,) for k in set(dist["a"].tolist())]),
            "groupby": rows_digest(list(sums.items())),
            "regex": rows_digest(strs[[NEEDLE in s for s in strs["s"]]]),
        }

    def setup(self, expected: dict) -> Episode:
        sim = Simulator()
        node = FarviewNode(sim, CONFIG)
        clients = []
        for name, schema, rows, query in self.specs:
            client = FarviewClient(node)
            client.open_connection()
            encrypted = name == "enc"
            table = FTable(name, schema, len(rows), encrypted=encrypted,
                           key=KEY if encrypted else None,
                           nonce=NONCE if encrypted else None)
            client.alloc_table_mem(table)
            image = schema.to_bytes(rows)
            client.table_write(
                table, encrypt_table_image(image, KEY, NONCE)
                if encrypted else image)
            if query is not None:
                client.far_view(table, query)   # deploy the pipeline
            clients.append((name, client, table, query))

        def run_round():
            out = {}

            def one(name, client, table, query):
                start = sim.now
                if query is None:
                    result = yield from client.table_read_proc(table)
                else:
                    result = yield from client.far_view_proc(table, query)
                out[name] = (result, sim.now - start, table.size_bytes)

            for spec in clients:
                sim.process(one(*spec))
            sim.run()
            return out

        def check_round(out):
            done = []
            for name, _client, table, _query in clients:
                if name not in out:      # the query raised or never finished
                    done.append(Done("query", 0.0, 0, "", False))
                    continue
                result, sim_ns, scanned = out[name]
                if name == "raw":
                    digest = hashlib.sha256(result).hexdigest()
                else:
                    digest = rows_digest(result.rows())
                done.append(Done("query", sim_ns, scanned, digest,
                                 digest == expected[name]))
            return done

        calls = [Call(SCAN_CLIENTS, run_round, check_round)
                 for _ in range(SCAN_ROUNDS)]
        return Episode(calls, [sim], [node],
                       clients=[c for _n, c, _t, _q in clients])


# -- analytics_sql ----------------------------------------------------------

SQL_NODES = 4
SQL_LINEITEM = 4096
SQL_ORDERS = 768
SQL_CUSTOMERS = 256
SQL_FACT = 8192
SQL_DIM_COLOCATED = 2048
SQL_DIM_SHUFFLE = 4096
PLACEMENTS = ("offload", "ship", "auto")

FACT_SCHEMA = Schema([Column("key", "int64"), Column("seq", "int64"),
                      Column("val", "float64")])
DIM_SCHEMA = Schema([Column("id", "int64"), Column("rate", "float64")])
DIM2_SCHEMA = Schema([Column("id2", "int64"), Column("rate2", "float64")])


class AnalyticsSql:
    """Serial SQL text through ``ClusterClient.sql`` on a 4-node pool.

    fig 18's Q1, Q1-HAVING, Q3 and Q6, plus fig 19-shaped equi-joins of a
    fact table hash-partitioned on the join key: against a dimension
    partitioned the same way (co-located) and against a chunk-partitioned
    one (re-keyed by shuffle).  Each statement runs under each placement.
    """

    name = "analytics_sql"
    latency_kind = "statement"
    extra_units: dict = {}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        s = [int(x) for x in rng.integers(0, 1 << 30, 3)]
        n_line = _jitter(rng, SQL_LINEITEM)
        n_fact = _jitter(rng, SQL_FACT)
        fact = FACT_SCHEMA.empty(n_fact)
        fact["key"] = rng.integers(0, SQL_DIM_SHUFFLE, n_fact)
        fact["seq"] = np.arange(n_fact)
        fact["val"] = rng.integers(0, 1000, n_fact) * 0.5
        dim = DIM_SCHEMA.empty(SQL_DIM_COLOCATED)
        dim["id"] = np.arange(SQL_DIM_COLOCATED)
        dim["rate"] = rng.integers(0, 400, SQL_DIM_COLOCATED) * 0.25
        dim2 = DIM2_SCHEMA.empty(SQL_DIM_SHUFFLE)
        dim2["id2"] = np.arange(SQL_DIM_SHUFFLE)
        dim2["rate2"] = rng.integers(0, 400, SQL_DIM_SHUFFLE) * 0.25
        self.tables = {
            "lineitem": (tpch.LINEITEM_SCHEMA,
                         tpch.lineitem_for_orders(n_line, SQL_ORDERS,
                                                  seed=s[0])),
            "orders": (tpch.ORDERS_SCHEMA,
                       tpch.orders(SQL_ORDERS, SQL_CUSTOMERS, seed=s[1])),
            "customer": (tpch.CUSTOMER_SCHEMA,
                         tpch.customer(SQL_CUSTOMERS, seed=s[2])),
            "fact": (FACT_SCHEMA, fact),
            "dimh": (DIM_SCHEMA, dim),
            "dimc": (DIM2_SCHEMA, dim2),
        }
        self.partitions = {"fact": PartitionSpec("hash", key="key"),
                           "dimh": PartitionSpec("hash", key="id")}
        self.statements = [
            ("Q1", tpch.q1_sql(), ("lineitem",)),
            ("Q1-having", tpch.q1_having_sql(), ("lineitem",)),
            ("Q3", tpch.q3_sql(), ("lineitem", "orders", "customer")),
            ("Q6", tpch.q6_sql(), ("lineitem",)),
            ("join-colocated",
             "SELECT key, seq, val, rate FROM fact "
             "JOIN dimh ON fact.key = dimh.id WHERE val < 250",
             ("fact", "dimh")),
            ("join-shuffle",
             "SELECT key, seq, val, rate2 FROM fact "
             "JOIN dimc ON fact.key = dimc.id2", ("fact", "dimc")),
        ]

    def oracle(self) -> dict:
        out = {}
        for label, stmt, _tables in self.statements:
            _schema, rows = execute_model(stmt, self.tables)
            out[label] = rows_digest(rows)
        return out

    def setup(self, expected: dict) -> Episode:
        sim = Simulator()
        client = ClusterClient(FarviewCluster(sim, SQL_NODES, CONFIG))
        client.open_connection()
        for name, (schema, rows) in self.tables.items():
            client.create_table(name, schema, rows,
                                partition=self.partitions.get(name))
        calls = []
        for label, stmt, tables in self.statements:
            scanned = sum(len(self.tables[t][1]) * self.tables[t][0].row_width
                          for t in tables)
            for placement in PLACEMENTS:
                calls.append(self._call(client, label, stmt, placement,
                                        scanned, expected))
        nodes = [client.cluster.node(i) for i in range(SQL_NODES)]
        return Episode(calls, [sim], nodes, clients=[client])

    @staticmethod
    def _call(client, label, stmt, placement, scanned, expected) -> Call:
        def run():
            return client.sql(stmt, placement=placement)

        def check(out):
            result, elapsed = out
            digest = rows_digest(result.rows())
            return [Done("statement", elapsed, scanned, digest,
                         digest == expected[label])]

        return Call(1, run, check)


# -- versioned_writes -------------------------------------------------------

WRITE_BASE_ROWS = 4096
WRITE_ROUNDS = 12          # rounds per episode
WRITE_BATCH = 64           # rows inserted per round
WRITE_UPDATE_SPAN = 192    # keys an update touches
WRITE_DELETE_SPAN = 24     # keys a delete removes
COMPACT_EVERY = 4
CATEGORIES = [f"c{i:02d}".encode() for i in range(16)]

WRITE_SCHEMA = Schema([Column("k", "int64"), Column("cat", "char", 4),
                       Column("val", "float64")])
VIEW_SQL = "SELECT cat, SUM(val) AS s, COUNT(*) AS n FROM t GROUP BY cat"


class VersionedWrites:
    """A versioned table with a subscribed GROUP BY view (fig 20).

    Each round commits an insert, an update and a delete, then scans the
    current snapshot; every few rounds a compaction folds the chain.  One
    call into the system is one round.
    """

    name = "versioned_writes"
    extra_units = {"sim_commit_us.p50": "us", "sim_commit_us.p95": "us"}

    @staticmethod
    def extra_metrics(dones, _episode) -> dict:
        commits = sorted(d.sim_ns for d in dones if d.kind == "commit")
        return {"sim_commit_us.p50": percentile(commits, 50) / 1e3,
                "sim_commit_us.p95": percentile(commits, 95) / 1e3}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        n = _jitter(rng, WRITE_BASE_ROWS)
        self.base = self._rows(rng, np.arange(n))
        self.rounds = []       # per round: (verb, argument) in order
        next_key = n
        for r in range(WRITE_ROUNDS):
            batch = self._rows(rng, np.arange(next_key,
                                              next_key + WRITE_BATCH))
            next_key += WRITE_BATCH
            lo = int(rng.integers(0, next_key - WRITE_UPDATE_SPAN))
            new_val = int(rng.integers(0, 4000)) * 0.25
            dlo = int(rng.integers(0, next_key - WRITE_DELETE_SPAN))
            cutoff = int(rng.integers(100, 900)) * 0.25
            steps = [
                ("insert", batch),
                ("update", (lo, lo + WRITE_UPDATE_SPAN, new_val)),
                ("delete", (dlo, dlo + WRITE_DELETE_SPAN)),
                ("scan", cutoff),
            ]
            if (r + 1) % COMPACT_EVERY == 0:
                steps.append(("compact", None))
            self.rounds.append(steps)

    @staticmethod
    def _rows(rng, keys: np.ndarray) -> np.ndarray:
        rows = WRITE_SCHEMA.empty(len(keys))
        rows["k"] = keys
        rows["cat"] = [CATEGORIES[i] for i in
                       rng.integers(0, len(CATEGORIES), len(keys))]
        rows["val"] = rng.integers(0, 4000, len(keys)) * 0.25
        return rows

    def oracle(self) -> list:
        """Per step: the digest the step's check compares against."""
        state = {int(r["k"]): (bytes(r["cat"]), float(r["val"]))
                 for r in self.base}
        out = []
        for verb, arg in (step for steps in self.rounds for step in steps):
            if verb == "insert":
                for r in arg:
                    state[int(r["k"])] = (bytes(r["cat"]), float(r["val"]))
            elif verb == "update":
                lo, hi, val = arg
                for k in range(lo, hi):
                    if k in state:
                        state[k] = (state[k][0], val)
            elif verb == "delete":
                for k in range(*arg):
                    state.pop(k, None)
            if verb == "scan":
                out.append(rows_digest([(k, c, v) for k, (c, v)
                                        in state.items() if v < arg]))
            else:
                groups: dict[bytes, list] = {}
                for c, v in state.values():
                    g = groups.setdefault(c, [0.0, 0])
                    g[0] += v
                    g[1] += 1
                out.append(rows_digest([(c, s, n) for c, (s, n)
                                        in groups.items()]))
        return out

    def setup(self, expected: list) -> Episode:
        sim = Simulator()
        node = FarviewNode(sim, CONFIG)
        client = FarviewClient(node)
        client.open_connection()
        vt = client.create_versioned_table("t", WRITE_SCHEMA, self.base)
        view, _ = client.create_view(VIEW_SQL, name="by_cat")
        sub = client.subscribe(view)
        wants = iter(expected)
        calls = [_round([self._call(client, vt, view, sub, verb, arg,
                                    next(wants)) for verb, arg in steps])
                 for steps in self.rounds]
        return Episode(calls, [sim], [node], clients=[client],
                       extra={"subscriptions": [sub]})

    def _call(self, client, vt, view, sub, verb, arg, want) -> Call:
        if verb == "scan":
            query = Query(predicate=Compare("val", "<", arg))

            def run():
                scanned = vt.size_bytes
                result, elapsed = client.scan_versioned(vt, query)
                return result, elapsed, scanned

            def check(out):
                result, elapsed, scanned = out
                digest = rows_digest(result.rows())
                return [Done("query", elapsed, scanned, digest,
                             digest == want)]

            return Call(1, run, check)

        def commit():
            if verb == "insert":
                return client.insert(vt, arg)
            if verb == "update":
                lo, hi, val = arg
                return client.update_where(
                    vt, Compare("k", ">=", lo) & Compare("k", "<", hi),
                    {"val": val})
            if verb == "delete":
                lo, hi = arg
                return client.delete_where(
                    vt, Compare("k", ">=", lo) & Compare("k", "<", hi))
            return client.compact(vt)

        def run():
            _epoch, elapsed = commit()
            # The view's rows right after this commit (16 groups): later
            # commits of the round change them before the check runs.
            return elapsed, view.materialize(), sub.materialize()

        written = 0
        if verb == "insert":
            written = len(arg) * WRITE_SCHEMA.row_width
        elif verb == "update":
            written = (arg[1] - arg[0]) * WRITE_SCHEMA.row_width

        def check(out):
            elapsed, view_rows, sub_rows = out
            digest = rows_digest(view_rows)
            ok = digest == want and rows_digest(sub_rows) == want
            return [Done("commit", elapsed, 0, digest, ok, written)]

        return Call(1, run, check)


def _round(steps: list) -> Call:
    """One call that makes each of ``steps`` in turn."""
    def run():
        return [step.run() for step in steps]

    def check(outs):
        return [done for step, out in zip(steps, outs)
                for done in step.check(out)]

    return Call(len(steps), run, check)


# -- tenant_serving ---------------------------------------------------------

SERVE_NODES = 2
SERVE_TENANTS = 200
SERVE_SHAPES = 48
SERVE_SHAPE_ROWS = 512     # 32 KiB per shape image
SERVE_ZIPF = 1.1
#: Offered rates (requests per simulated ms) of one episode.
SERVE_RATES = {"low": 3.0, "mid": 6.0, "high": 16.0}
#: Simulated ns of arrivals per rate.  The mid rate's p50 and p95 are the
#: workload's latency figures, so it runs longest: more requests, a
#: steadier tail from seed to seed.
SERVE_HORIZON_NS = {"low": 60e6, "mid": 240e6, "high": 60e6}
SERVE_BATCH = 48           # one call releases the next 48 arrivals
#: The p99 latency limit: about 3x the unloaded execution latency.
SLO_P99_NS = 12e6


class TenantServing:
    """Open-loop Poisson arrivals from 200 tenants through ``FrontDoor``.

    Tenants pick from 48 scan shapes with Zipf popularity, so hot shapes
    coalesce and cold ones execute alone; a 2-node lease manager admits
    executions under the fair policy.  One episode runs the three offered
    rates, each on a fresh pool.
    """

    name = "tenant_serving"
    latency_kind = "request.mid"
    extra_units = {**{f"sim_latency_us.p99.{label}": "us"
                      for label in SERVE_RATES},
                   "slo_rate_per_ms": "req/ms"}

    def extra_metrics(self, dones, episode) -> dict:
        """p99 at each offered rate, and the highest rate that meets the
        p99 limit and drains within one limit after its last arrival."""
        out, slo_rate = {}, 0.0
        for label, rate in SERVE_RATES.items():
            mine = [d for d in dones if d.kind == f"request.{label}"]
            p99 = percentile([d.sim_ns for d in mine], 99)
            out[f"sim_latency_us.p99.{label}"] = p99 / 1e3
            _door, track, _n = episode.extra["doors"][label]
            last_arrival = self.arrivals[label][-1][0]
            if (p99 <= SLO_P99_NS and all(d.ok for d in mine)
                    and track["last_ns"] <= last_arrival + SLO_P99_NS):
                slo_rate = max(slo_rate, rate)
        out["slo_rate_per_ms"] = slo_rate
        return out

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.shapes = [self._shape(rng, i) for i in range(SERVE_SHAPES)]
        weights = 1.0 / np.arange(1, SERVE_SHAPES + 1) ** SERVE_ZIPF
        weights /= weights.sum()
        self.arrivals = {}
        for label, rate in SERVE_RATES.items():
            horizon = SERVE_HORIZON_NS[label]
            count = int(rate * horizon / 1e6)
            times = np.sort(rng.uniform(0.0, horizon, count))
            tenants = rng.integers(0, SERVE_TENANTS, count)
            shapes = rng.choice(SERVE_SHAPES, count, p=weights)
            self.arrivals[label] = list(zip(times.tolist(), tenants.tolist(),
                                            shapes.tolist()))

    @staticmethod
    def _shape(rng, i: int) -> ScanShape:
        n = _jitter(rng, SERVE_SHAPE_ROWS)
        rows = INT_SCHEMA.empty(n)
        for c in INT_SCHEMA.names:
            rows[c] = rng.integers(0, 1 << 31, n)
        kind = i % 4
        if kind == 0:
            query = Query(predicate=Compare("a", "<", 1 << 30))
        elif kind == 1:
            rows["a"] = rng.integers(0, 64, n)
            query = Query(projection=("a",), distinct=True)
        elif kind == 2:
            rows["a"] = rng.integers(0, 32, n)
            rows["b"] = rng.integers(0, 1000, n)
            query = Query(group_by=("a",),
                          aggregates=(AggregateSpec("sum", "b"),))
        else:
            query = Query(projection=("a", "c"),
                          predicate=Compare("b", ">=", 1 << 30))
        return ScanShape(f"shape{i:02d}", INT_SCHEMA, rows, query)

    def oracle(self) -> dict:
        """Each shape's answer, computed serially with numpy."""
        out = {}
        for i, shape in enumerate(self.shapes):
            rows = shape.rows
            kind = i % 4
            if kind == 0:
                answer = rows[rows["a"] < 1 << 30]
            elif kind == 1:
                answer = [(k,) for k in set(rows["a"].tolist())]
            elif kind == 2:
                sums: dict[int, int] = {}
                for k, v in zip(rows["a"].tolist(), rows["b"].tolist()):
                    sums[k] = sums.get(k, 0) + v
                answer = list(sums.items())
            else:
                keep = rows[rows["b"] >= 1 << 30]
                answer = list(zip(keep["a"].tolist(), keep["c"].tolist()))
            out[shape.name] = rows_digest(answer)
        return out

    def setup(self, expected: dict) -> Episode:
        calls, sims, nodes, doors = [], [], [], {}
        for label in SERVE_RATES:
            sim = Simulator()
            pool = [FarviewNode(sim, CONFIG) for _ in range(SERVE_NODES)]
            door = FrontDoor(RegionLeaseManager(pool, policy="fair"))
            sessions = [door.session(t) for t in range(SERVE_TENANTS)]
            arrivals = self.arrivals[label]
            track = {"fresh": [], "finished": 0, "last_ns": 0.0}

            def arrival(session, shape, at, sim=sim, track=track):
                if at > sim.now:
                    yield sim.timeout(at - sim.now)
                late = sim.now - at
                result = yield from session.request_proc(shape)
                track["fresh"].append((sim.now - at, late, result, shape.name))
                track["last_ns"] = sim.now

            for at, tenant, shape in arrivals:
                sim.process(arrival(sessions[tenant], self.shapes[shape], at))
            sims.append(sim)
            nodes.extend(pool)
            doors[label] = (door, track, len(arrivals))
            for k in range(SERVE_BATCH, len(arrivals), SERVE_BATCH):
                calls.append(self._step(sim, track, label, arrivals[k][0],
                                        expected))
            calls.append(self._step(sim, track, label, None, expected,
                                    total=len(arrivals)))
        return Episode(calls, sims, nodes, extra={"doors": doors})

    @staticmethod
    def _step(sim, track, label, until, expected, total=None) -> Call:
        """One call: advance the open loop to ``until`` (``None``: drain).

        The drain call also fails every arrival that never completed."""
        def run():
            sim.run(until=until)
            return None

        def check(_out):
            # A coalesced request shares its leader's result object; both
            # complete at the same simulated time, so in the same call.
            done, seen = [], set()
            for latency, late, result, shape in track["fresh"]:
                digest = rows_digest(result.rows())
                scanned = 0 if id(result) in seen \
                    else result.report.bytes_scanned
                seen.add(id(result))
                # An arrival the generator released late counts as failed.
                done.append(Done(f"request.{label}", latency, scanned, digest,
                                 digest == expected[shape] and late == 0.0))
            track["finished"] += len(track["fresh"])
            track["fresh"].clear()
            if total is not None:
                done += [Done(f"request.{label}", float("inf"), 0, "", False)
                         for _ in range(total - track["finished"])]
            return done

        return Call(0, run, check, timed=label == "mid")


WORKLOADS = {w.name: w for w in (OffloadScan, AnalyticsSql, VersionedWrites,
                                 TenantServing)}
