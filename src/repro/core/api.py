"""Client-side data API, mirroring the paper's programmatic interface (§4.2).

The paper's C-style functions map onto :class:`FarviewClient` methods:

====================================  =======================================
Paper                                 This library
====================================  =======================================
``openConnection(qp, node)``          ``client = FarviewClient(node)`` /
                                      ``client.open_connection()``
``allocTableMem(qp, ft)``             ``client.alloc_table_mem(ft)``
``freeTableMem(qp, ft)``              ``client.free_table_mem(ft)``
``tableWrite(qp, ft)``                ``client.table_write(ft, rows)``
``tableRead(qp, ft)``                 ``client.table_read(ft)``
``farView(qp, ft, params)``           ``client.far_view(ft, query)``
``select(qp, ft, proj, sel, pred)``   ``client.select(ft, columns, predicate)``
====================================  =======================================

Each verb exists in two forms: a ``*_proc`` generator to compose inside a
running simulation (multi-client experiments) and a blocking convenience
that drives the simulator to completion and returns ``(result, elapsed_ns)``
— the paper's measurement endpoint is "until the final results are written
to the memory of the client machine" (§6.2), which is exactly when these
processes complete.

:class:`ClusterClient` lifts the same verbs onto a sharded
:class:`~repro.core.cluster.FarviewCluster` — the scatter-gather router the
paper's pool deployment implies.  Single-node verbs map onto cluster verbs
one to one:

====================================  =======================================
Single node (:class:`FarviewClient`)  Cluster (:class:`ClusterClient`)
====================================  =======================================
``open_connection()``                 ``open_connection()`` — one QP + region
                                      per node of the pool
``alloc_table_mem`` + ``table_write``  ``create_table(name, schema, rows,
                                      partition)`` — partition, allocate and
                                      scatter-write the per-node shards
``free_table_mem(ft)``                ``drop_table(st)``
``table_read(ft)``                    ``table_read(st)`` — scatter raw reads,
                                      gather bytes in shard order
``far_view(ft, query)``               ``far_view(st, query)`` — scatter the
                                      rewritten shard fragment, gather +
                                      merge (DISTINCT dedup, GROUP BY /
                                      aggregate partial re-merge); a join
                                      broadcasts the build table to every
                                      node first (replicas cached until
                                      the build table is dropped)
``select`` / ``select_distinct`` /    same helpers, same signatures, against
``group_by`` / ``sql``                the cluster catalog
====================================  =======================================

Cluster results come back as :class:`ClusterQueryResult`: merged rows in
single-node output order (byte-identical under order-preserving ``chunk``
partitioning — see :mod:`repro.core.cluster` for the exact contract),
response time measured until the *last* shard's results land client-side.

Beyond the paper's always-offload execution, both clients expose
cost-based **operator placement**: ``select``/``sql`` accept
``placement="auto" | "offload" | "ship"`` (default ``"offload"``, the
unchanged legacy path), and :meth:`FarviewClient.far_view_planned` /
:meth:`ClusterClient.far_view_planned` run any query under the
:mod:`repro.core.planner` decision — offload a prefix of the operator
chain, ship the reduced intermediate, finish with the software kernels of
:mod:`repro.baselines.sw_ops` on the client.  Results are byte-identical
across placements (:func:`canonical_result_bytes` normalizes the
comparison) and carry an :class:`~repro.core.planner.ExplainPlan`.

Tables created with ``create_versioned_table`` are **mutable** through
the versioned write path (:mod:`repro.core.versioning`); the write verbs
exist on both clients with the same shapes as the read verbs:

====================================  =======================================
Verb                                  Effect
====================================  =======================================
``create_versioned_table(n, s, r)``   base segment + version chain, epoch 0
``insert(vt, rows)``                  append an insert delta, epoch + 1
``update_where(vt, pred, sets)``      offloaded read-modify-write delta
``delete_where(vt, pred)``            offloaded delete delta
``snapshot(vt)``                      the current committed epoch
``far_view(vt, q)`` / ``select`` /    snapshot scan pinned at the epoch it
``sql`` / ``scan_versioned(as_of=e)`` starts under (delta-merge ingest)
``compact(vt)``                       fold the chain into a fresh base
``drop_table(t)``                     free a plain table or a whole chain
====================================  =======================================

Cluster writes commit through a two-phase epoch broadcast (prepare on
every shard, then one atomic commit step), so cluster-wide snapshot
reads merge sha256-identical to single-node execution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..baselines.cpu_model import CostBreakdown, CpuCostModel
from ..baselines.sw_ops import software_decrypt
from ..common.errors import (ConnectionError_, DegradedResultError,
                             FarviewError, FaultError,
                             JoinBuildOverflowError, NodeFailedError,
                             QueryError, RegionFailedError,
                             RequestTimeoutError)
from ..common.records import Schema
from ..operators.aggregate import AggregateSpec
from ..operators.crypto import AesCtr
from ..operators.selection import Predicate
from .catalog import Catalog
from .compile import ParsedWrite, bind_select, parse_sql
from .cost_model import (PlacementCostModel, PlanStats, delta_merge_cost_ns,
                         estimate_chain, view_circuit_cost_ns)
from .planner import (ExplainPlan, PlacementPlan, operator_chain,
                      plan_placement, run_client_steps)
from .cluster import (JOIN_STRATEGIES, FarviewCluster, ScatterPlan,
                      ShardedTable, ShardReplica, TableShard,
                      aggregate_output_schema, group_output_schema,
                      join_strategies, merge_aggregate_rows,
                      merge_distinct_rows, merge_group_rows, plan_scatter)
from .faults import RetryPolicy
from .node import Connection, ExecutionReport, FarviewNode
from .partition import PartitionSpec, partition_indices, replica_nodes
from .pipeline_compiler import CompiledQuery, compile_query
from .query import Query, RegexFilter
from .table import FTable
from .versioning import (ROWID_COLUMN, VersionedShard, VersionedShardedTable,
                         VersionedTable, VersionView, delta_schema,
                         require_versionable, rows_from_literals)
from .views import (ChainTracker, MaterializedView, Subscription, ViewCatalog,
                    compile_circuit)
from .zset import ZSet


@dataclass
class QueryResult:
    """Client-visible result of one Farview-verb execution."""

    data: bytes
    schema: Schema
    report: ExecutionReport
    response_time_ns: float
    output_key: Optional[tuple[bytes, bytes]] = None  # (key, nonce) if encrypted
    explain: Optional[ExplainPlan] = None  # set by the placement planner
    _client_dedup_applied: bool = field(default=False, repr=False)

    def raw_rows(self) -> np.ndarray:
        """Decode the shipped bytes (decrypting the transmission first)."""
        data = self.data
        if self.output_key is not None:
            key, nonce = self.output_key
            data = AesCtr(key, nonce).process(data)
        return self.schema.from_bytes(data)

    def rows(self) -> np.ndarray:
        """Rows after the client-side software post-processing the paper
        prescribes: deduplicate overflow leakage from the DISTINCT operator
        (§5.4) and merge overflowed GROUP BY partial aggregates."""
        rows = self.raw_rows()
        if self.report.overflow_keys:
            rows = _software_dedup(rows)
        if self.report.overflow_groups:
            rows = _merge_overflow_groups(rows, self.schema, self.report)
        return rows

    @property
    def num_rows(self) -> int:
        return len(self.rows())


def _software_dedup(rows: np.ndarray) -> np.ndarray:
    """Order-preserving exact dedup (the paper's client-side fallback)."""
    seen: set[bytes] = set()
    keep = np.zeros(len(rows), dtype=bool)
    for i in range(len(rows)):
        key = rows[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep[i] = True
    return rows[keep]


def _merge_overflow_groups(rows: np.ndarray, schema: Schema,
                           report: ExecutionReport) -> np.ndarray:
    """Append overflowed groups (partially aggregated server-side)."""
    if report.overflow_layout is None:
        raise QueryError(
            "overflow groups present but merge metadata missing")
    key_columns, specs, value_columns = report.overflow_layout
    key_schema = schema.project(key_columns)
    extra = schema.empty(len(report.overflow_groups))
    for i, (key_bytes, acc) in enumerate(report.overflow_groups.items()):
        key_row = key_schema.from_bytes(key_bytes)
        for name in key_columns:
            extra[name][i] = key_row[name][0]
        for spec in specs:
            idx = (value_columns.index(spec.column)
                   if spec.column in value_columns else 0)
            extra[spec.alias][i] = acc.result(spec, idx)
    return np.concatenate([rows, extra])


@dataclass
class HybridQueryResult:
    """Client-visible result of a planned (ship or hybrid) execution.

    ``rows()`` are the final rows after the client-side software
    remainder; ``data`` is their canonical byte image — byte-identical
    to what full offload produces for the same query (the planner's
    exactness contract, pinned by the placement property tests).
    ``response_time_ns`` covers the simulated verb *plus* the modeled
    client compute time (the simulator clock is advanced by the
    :class:`~repro.baselines.cpu_model.CostBreakdown` total, matching
    the paper's "until the final results are written to the memory of
    the client machine" endpoint).
    """

    schema: Schema
    merged: np.ndarray = field(repr=False)
    response_time_ns: float = 0.0
    #: The :class:`~repro.core.planner.ExplainPlan` of a planned
    #: execution, or the per-stage :class:`~repro.core.planner.DagPlan` of
    #: a multi-stage SQL statement.
    explain: Optional[object] = None
    #: The offloaded fragment's result, when a hybrid split ran one — a
    #: :class:`QueryResult` (single node) or :class:`ClusterQueryResult`
    #: (scatter-gather); ``None`` for pure ship executions.
    fragment_result: Optional[object] = None
    client_cost: Optional[CostBreakdown] = None
    #: Bytes that crossed the wire to the client, summed over every stage.
    shipped_bytes: int = 0

    def rows(self) -> np.ndarray:
        return self.merged

    @property
    def data(self) -> bytes:
        """Canonical result bytes (single-node offload layout)."""
        return self.schema.to_bytes(self.merged)

    @property
    def num_rows(self) -> int:
        return len(self.merged)


def _client_compute(sim, ns: float):
    """Process: occupy the simulated clock with client-side software."""
    if ns > 0:
        yield sim.timeout(ns)


def _execute_planned(sim, plan: PlacementPlan, query: Query,
                     cpu: CpuCostModel, *, read_raw, run_fragment,
                     schema: Schema,
                     decrypt_keys: Optional[tuple[bytes, bytes]],
                     read_build=None):
    """Shared ship/hybrid execution body for both clients.

    ``read_raw()`` returns the raw table bytes (single-node read or
    scatter-gathered shard streams); ``run_fragment(fragment)`` returns
    the offloaded fragment's result object; ``read_build()`` (required
    when the plan ships the join) returns the build table's decoded rows
    plus the bytes that crossed the wire for them.  The software
    remainder runs through :func:`~repro.core.planner.run_client_steps`,
    its :class:`CostBreakdown` time advances the simulator clock, and the
    plan's explain is stamped with the actual response time.
    """
    start = sim.now
    cost = CostBreakdown()
    cost.add("setup", cpu.setup_ns())
    client_steps = list(plan.client_steps)
    build_rows = None
    if "join" in client_steps:
        if read_build is None:
            raise QueryError(
                "this client cannot ship a join: no build-side reader")
        build_rows, build_shipped = read_build()
        cost.add("read", cpu.read_ns(build_shipped))
    if plan.fragment is None:
        data = read_raw()
        shipped = len(data)
        cost.add("read", cpu.read_ns(shipped))
        if client_steps and client_steps[0] == "decrypt":
            if decrypt_keys is None:
                raise QueryError(
                    "cannot decrypt shipped bytes client-side: no table "
                    "key available (encrypted tables are single-node "
                    "only)")
            key, nonce = decrypt_keys
            data = software_decrypt(data, key, nonce)
            cost.add("aes", cpu.aes_ns(len(data)))
            client_steps = client_steps[1:]
        rows = schema.from_bytes(data)
        current = schema
        fragment_result = None
    else:
        fragment_result = run_fragment(plan.fragment)
        rows = fragment_result.rows()
        current = fragment_result.schema
        shipped = (fragment_result.report.bytes_shipped
                   if hasattr(fragment_result, "report")
                   else fragment_result.bytes_shipped)
        cost.add("read", cpu.read_ns(shipped))
    rows, current = run_client_steps(rows, current, client_steps,
                                     query, cpu, cost,
                                     build_rows=build_rows)
    cost.add("write", cpu.write_ns(len(rows) * current.row_width))
    sim.run_process(_client_compute(sim, cost.total_ns), "client-compute")
    elapsed = sim.now - start
    plan.explain.actual_ns = elapsed
    result = HybridQueryResult(
        schema=current, merged=rows, response_time_ns=elapsed,
        explain=plan.explain, fragment_result=fragment_result,
        client_cost=cost, shipped_bytes=shipped)
    return result, elapsed


def _dispatch_sql_write(client, table, parsed, required_type):
    """Shared INSERT/UPDATE/DELETE dispatch for both clients.

    ``required_type`` is the client's versioned-table class; anything
    else in the catalog under that name cannot take writes.
    """
    if not isinstance(table, required_type):
        raise QueryError(
            f"table {parsed.table!r} is not versioned; write statements "
            f"need a table created with create_versioned_table")
    if parsed.kind == "insert":
        rows = rows_from_literals(table.schema, parsed.values)
        return client.insert(table, rows)
    if parsed.kind == "update":
        return client.update_where(table, parsed.predicate,
                                   dict(parsed.assignments))
    return client.delete_where(table, parsed.predicate)


def canonical_result_bytes(result) -> bytes:
    """The placement-invariant byte image of any query result.

    ``QueryResult.data`` is the raw shipped stream (possibly encrypted,
    possibly carrying overflow duplicates the client dedups);
    ``HybridQueryResult.data`` is already canonical.  This helper
    normalizes both to ``schema.to_bytes(rows())`` so results can be
    compared across placements.
    """
    rows = result.rows()
    return result.schema.to_bytes(rows)


def _run_stage(client, handle, query: Query, placement: str,
               stats, dag, name: str):
    """Execute one offloadable stage of a compiled DAG and record its
    placement decision.  ``placement="offload"`` pins full offload;
    ship/auto price the stage independently through the planner — the
    per-stage composition IS the DAG generalization of
    :func:`~repro.core.planner.plan_placement`."""
    from .planner import StagePlan

    if placement == "offload":
        result, _ = client.far_view(handle, query)
        note = "pinned"
        strat = getattr(result, "join_strategy", None)
        if strat is not None:
            note = f"pinned, join={strat}"
        dag.stages.append(StagePlan(name, "offload", note=note))
        return result
    result, _ = client.far_view_planned(handle, query, placement, stats)
    explain = getattr(result, "explain", None)
    chosen = explain.chosen if explain is not None else placement
    strat = (explain.join_strategy if explain is not None else None) \
        or getattr(result, "join_strategy", None)
    dag.stages.append(StagePlan(name, chosen, explain=explain,
                                note=f"join={strat}" if strat else ""))
    return result


def _execute_sql(client, statement: str, placement: str | None, stats,
                 versioned_type):
    """Parse and execute one SQL statement on either client.

    Writes go to the client's write verbs (``versioned_type`` is the
    table class that takes them).  A SELECT is bound once: a one-stage
    statement runs its head Query as a single far-view verb, anything
    else through :func:`_execute_compiled`.  Placement precedence for
    reads: the ``placement`` argument, then a ``/*+ placement(...) */``
    hint, then full offload.
    """
    parsed = parse_sql(statement)
    if isinstance(parsed, ParsedWrite):
        table = client.catalog.lookup(parsed.table)
        return _dispatch_sql_write(client, table, parsed, versioned_type)
    placement = placement or parsed.placement or "offload"
    bound = bind_select(parsed, client.catalog)
    if bound.arms or bound.ops:
        return _execute_compiled(client, bound, placement, stats)
    if placement == "offload":
        return client.far_view(bound.base, bound.query)
    return client.far_view_planned(bound.base, bound.query, placement, stats)


def _execute_compiled(client, bound, placement: str, stats):
    """Execute a bound multi-stage SELECT on either client.

    Stage 0 runs the head :class:`~repro.core.query.Query`; each
    :class:`~repro.core.compile.BoundArm` reads its build side (raw, or
    through its own placed Query) and joins client-side; the remaining
    bound kernels (expression projection, aggregation, HAVING filter,
    DISTINCT, ORDER BY, LIMIT) run in client software with their
    modeled cost advancing the simulator clock — the same measurement
    endpoint as :func:`_execute_planned`.
    """
    from ..baselines.sw_ops import (software_aggregate, software_distinct,
                                    software_groupby, software_join,
                                    software_limit, software_select,
                                    software_sort)
    from ..operators.join import join_output_schema
    from .compile import (BoundAggregate, BoundDistinct, BoundEval,
                          BoundFilter, BoundLimit, BoundSort)
    from .cost_model import HASHMAP_GROWTH_THRESHOLD
    from .ir import eval_expr
    from .planner import DagPlan, StagePlan

    def stage_shipped(stage_result) -> int:
        report = getattr(stage_result, "report", None)
        if report is not None:
            return report.bytes_shipped
        return getattr(stage_result, "shipped_bytes",
                       getattr(stage_result, "bytes_shipped", 0))

    cpu = getattr(client, "_cpu", None) or client._clients[0]._cpu
    sim = client.sim
    start = sim.now
    cost = CostBreakdown()
    cost.add("setup", cpu.setup_ns())
    dag = DagPlan(requested=placement)

    result = _run_stage(client, bound.base, bound.query, placement, stats,
                        dag, "scan")
    rows = result.rows()
    schema = result.schema
    shipped_total = stage_shipped(result)

    for arm in bound.arms:
        stage_name = f"build({arm.table})"
        if arm.query is None:
            build_rows, shipped = client._read_build_rows(arm.build)
            build_schema = arm.build.schema
            cost.add("read", cpu.read_ns(shipped))
            shipped_total += shipped
            dag.stages.append(StagePlan(stage_name, "ship",
                                        note="raw build read"))
        else:
            build_result = _run_stage(client, arm.build, arm.query,
                                      placement, stats, dag, stage_name)
            build_rows = build_result.rows()
            build_schema = build_result.schema
            shipped_total += stage_shipped(build_result)
        cost.add("hash", cpu.hash_ns(
            len(build_rows),
            growing=len(build_rows) > HASHMAP_GROWTH_THRESHOLD))
        cost.add("hash", cpu.hash_ns(len(rows), growing=False))
        rows = software_join(rows, schema, build_rows, build_schema,
                             arm.build_key, arm.probe_key,
                             list(arm.payload))
        schema = join_output_schema(schema, build_schema,
                                    list(arm.payload))

    for op in bound.ops:
        if isinstance(op, BoundEval):
            cost.add("project", cpu.select_ns(len(rows)))
            out = op.schema.empty(len(rows))
            for expr, name in op.items:
                out[name] = eval_expr(expr, rows, schema)
            rows, schema = out, op.schema
        elif isinstance(op, BoundFilter):
            cost.add("predicate", cpu.select_ns(len(rows)))
            rows = software_select(rows, op.predicate)
        elif isinstance(op, BoundAggregate):
            if op.group_by:
                output = software_groupby(rows, schema, list(op.group_by),
                                          list(op.aggregates))
                cost.add("hash", cpu.hash_ns(
                    len(rows), growing=output.map_resizes > 0))
                cost.add("aggregate", cpu.aggregate_update_ns(len(rows)))
                rows = output.rows
                schema = group_output_schema(schema, list(op.group_by),
                                             list(op.aggregates))
            else:
                cost.add("aggregate", cpu.aggregate_update_ns(len(rows)))
                rows = software_aggregate(rows, schema,
                                          list(op.aggregates))
                schema = aggregate_output_schema(schema,
                                                 list(op.aggregates))
        elif isinstance(op, BoundDistinct):
            output = software_distinct(rows, schema, list(schema.names))
            cost.add("hash", cpu.hash_ns(len(rows),
                                         growing=output.map_resizes > 0))
            rows = output.rows
        elif isinstance(op, BoundSort):
            cost.add("sort", cpu.sort_ns(len(rows)))
            rows = software_sort(rows, list(op.keys))
        elif isinstance(op, BoundLimit):
            rows = software_limit(rows, op.count)
        else:
            raise QueryError(f"unknown bound operator {type(op).__name__}")

    cost.add("write", cpu.write_ns(len(rows) * schema.row_width))
    sim.run_process(_client_compute(sim, cost.total_ns), "client-compute")
    elapsed = sim.now - start
    dag.actual_ns = elapsed
    result = HybridQueryResult(schema=schema, merged=rows,
                               response_time_ns=elapsed, explain=dag,
                               client_cost=cost, shipped_bytes=shipped_total)
    return result, elapsed


class _ViewEngineMixin:
    """Shared view-maintenance verbs of both clients (docs/VIEWS.md).

    The mixin owns the sim-facing half of the view subsystem: it reads
    the committed delta segments over the wire, charges the circuit's
    client-side cost, and only then hands the fetched bytes to the
    yield-free :meth:`~repro.core.views.ViewCatalog.apply_refresh` fold.
    Because every read happens before any state mutation, a typed
    :class:`FaultError` mid-refresh surfaces with *no* partial push: the
    segments stay pending, the pins stay put, and the next refresh (or a
    :meth:`rebootstrap_view`) picks up from the last consistent epoch.

    Concrete clients provide four hooks: :meth:`_view_chains` (the
    per-node version chains behind a catalog handle, paired with the
    client that reads them), :meth:`_view_static_read_proc` (raw bytes
    of a static join build side), :meth:`_view_cpu` and
    :meth:`_view_run`.
    """

    views: ViewCatalog

    # -- hooks supplied by the concrete client -----------------------------
    def _view_chains(self, handle):
        raise NotImplementedError

    def _view_static_read_proc(self, handle):
        raise NotImplementedError

    def _view_cpu(self) -> CpuCostModel:
        raise NotImplementedError

    def _view_run(self, proc, name: str):
        raise NotImplementedError

    # -- registration -------------------------------------------------------
    def create_view_proc(self, sql: str, name: str | None = None):
        """Process: compile ``sql`` into a circuit and bootstrap it from
        an epoch-consistent MVCC snapshot of every versioned input.

        The chain trackers pin their chains *before* any simulated time
        passes, so writes committing mid-bootstrap queue as pending
        deltas on top of the snapshot instead of being half-read.
        Returns the registered :class:`MaterializedView`.
        """
        parsed = parse_sql(sql)
        if isinstance(parsed, ParsedWrite):
            raise QueryError("a view is defined by a SELECT statement")
        bound = bind_select(parsed, self.catalog)
        circuit = compile_circuit(bound)
        engine = self.views
        view_name = engine.fresh_name() if name is None else name
        if view_name in engine.views:
            raise QueryError(f"view {view_name!r} already exists")
        # Fold unconsumed segments first: a tracker shared with an
        # existing view must sit at the chain head before its mirror can
        # double as this view's bootstrap snapshot.
        if engine.has_pending():
            yield from self.refresh_views_proc()
        new_trackers: list[ChainTracker] = []
        for table, handle in circuit.dynamic_tables.items():
            if table in engine.trackers:
                continue
            trackers = []
            for owner, chain in self._view_chains(handle):
                tracker = ChainTracker(table, chain)  # pins + listens now
                tracker.owner = owner
                trackers.append(tracker)
            engine.trackers[table] = trackers
            new_trackers.extend(trackers)
        view = MaterializedView(view_name, sql, bound, circuit)
        try:
            for tracker in new_trackers:
                rows, ids, shipped = yield from tracker.owner \
                    .read_version_proc(tracker.chain, tracker.processed_epoch)
                tracker.load(rows, ids)
                view.bootstrap_bytes += shipped
            for stage, handle in circuit.static_loads:
                build_rows, nbytes = yield from \
                    self._view_static_read_proc(handle)
                stage.load_static(ZSet.from_rows(stage.build_in_schema,
                                                 build_rows))
                view.bootstrap_bytes += nbytes
        except BaseException:
            self._view_abandon_bootstrap(circuit, new_trackers)
            raise
        boot: dict[str, ZSet] = {}
        boot_rows = 0
        for table, handle in circuit.dynamic_tables.items():
            zset = ZSet(handle.schema)
            for tracker in engine.trackers[table]:
                tracker.bootstrap_into(zset)
            boot[table] = zset
            boot_rows += zset.entry_count
        yield from _client_compute(
            self.sim,
            view_circuit_cost_ns(self._view_cpu(), boot_rows, circuit.depth))
        view.contents = circuit.step(boot)
        view.epochs = {table: engine.trackers[table][0].processed_epoch
                       for table in circuit.dynamic_tables}
        engine.register(view)
        return view

    def _view_abandon_bootstrap(self, circuit, new_trackers) -> None:
        """Detach the trackers a failed bootstrap created (only those —
        trackers shared with registered views keep running)."""
        fresh = {id(t) for t in new_trackers}
        engine = self.views
        for table in circuit.dynamic_tables:
            trackers = engine.trackers.get(table)
            if not trackers or not all(id(t) in fresh for t in trackers):
                continue
            del engine.trackers[table]
            for tracker in trackers:
                self._view_free_segments(tracker, tracker.detach())

    def _view_free_segments(self, tracker, segments) -> None:
        owner = tracker.owner
        for segment in segments:
            try:
                owner.node.free_table_mem(owner.connection, segment)
            except FarviewError:
                pass  # a crashed node has nothing left to free

    # -- refresh ------------------------------------------------------------
    def refresh_views_proc(self):
        """Process: fold every unconsumed committed segment into every
        registered view and push the deltas to subscribers.

        Target epochs are captured synchronously up front, all segment
        reads complete before any state changes, and the fold itself is
        yield-free — so refreshes are atomic under both concurrent
        writers and node crashes.  Returns :class:`RefreshStats`.
        """
        engine = self.views
        work, targets = engine.pending_work()
        reads = []
        delta_rows = 0
        for tracker, segment in work:
            data = yield from tracker.owner.table_read_proc(segment.table)
            reads.append((tracker, segment, data))
            delta_rows += segment.num_rows
        if delta_rows:
            depth = max((view.circuit.depth
                         for view in engine.views.values()), default=1)
            yield from _client_compute(
                self.sim,
                view_circuit_cost_ns(self._view_cpu(), delta_rows, depth))
        stats = engine.apply_refresh(reads, targets)
        for trackers in engine.trackers.values():
            for tracker in trackers:
                self._view_free_segments(tracker, tracker.repin())
        return stats

    def _views_after_commit_proc(self):
        """Process: auto-propagation hook run after every versioned
        commit.  Returns before creating any simulation event when no
        auto-subscribed view has unconsumed input, keeping view-less
        workloads (fig6–fig19) event-for-event identical."""
        if not self.views.needs_auto_refresh():
            return
        yield from self.refresh_views_proc()

    # -- subscriptions ------------------------------------------------------
    def subscribe(self, view: MaterializedView,
                  auto: bool = True) -> Subscription:
        """Attach a subscriber fed by pushed deltas from ``view``'s
        current epoch on (``auto=False``: only on explicit refreshes)."""
        sub = Subscription(view, auto)
        view.subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        sub.view.subscriptions.remove(sub)

    def drop_view(self, view) -> None:
        """Unregister a view (by handle or name); detaches the chain
        trackers no remaining view needs and frees what their pins
        held."""
        name = view.name if isinstance(view, MaterializedView) else view
        for tracker in self.views.drop(name):
            self._view_free_segments(tracker, tracker.detach())

    def rebootstrap_view_proc(self, view: MaterializedView):
        """Process: rebuild ``view`` from the latest epoch, migrating
        its subscribers — the recovery path after a failed refresh."""
        subs = list(view.subscriptions)
        self.drop_view(view)
        fresh = yield from self.create_view_proc(view.sql, name=view.name)
        for sub in subs:
            sub.rebind(fresh)
            fresh.subscriptions.append(sub)
        return fresh

    # -- blocking conveniences ----------------------------------------------
    def create_view(self, sql: str, name: str | None = None):
        """Register + bootstrap a view; returns
        (:class:`MaterializedView`, elapsed_ns)."""
        return self._view_run(self.create_view_proc(sql, name), "create_view")

    def refresh_views(self):
        """Propagate committed segments; returns
        (:class:`RefreshStats`, elapsed_ns)."""
        return self._view_run(self.refresh_views_proc(), "refresh_views")

    def rebootstrap_view(self, view: MaterializedView):
        """Rebuild a view at the latest epoch; returns
        (:class:`MaterializedView`, elapsed_ns)."""
        return self._view_run(self.rebootstrap_view_proc(view),
                              "rebootstrap_view")


class FarviewClient(_ViewEngineMixin):
    """A query thread on a compute node, connected to a Farview node."""

    def __init__(self, node: FarviewNode,
                 buffer_capacity: int = 8 * 1024 * 1024,
                 cpu_model: CpuCostModel | None = None):
        self.node = node
        self.sim = node.sim
        self.catalog = Catalog()
        self._buffer_capacity = buffer_capacity
        self._conn: Connection | None = None
        self._compiled_cache: dict[str, CompiledQuery] = {}
        #: Cost model of this compute node's CPU — prices the client-side
        #: remainder of planned (ship/hybrid) executions.
        self._cpu = cpu_model if cpu_model is not None else CpuCostModel()
        #: Optional :class:`~repro.core.faults.RetryPolicy`: per-request
        #: deadline + capped exponential backoff on every verb.  ``None``
        #: (default) is the exact pre-fault-layer request path.
        self.retry_policy: RetryPolicy | None = None
        #: Registered materialized views + their chain trackers
        #: (verbs in :class:`_ViewEngineMixin`).
        self.views = ViewCatalog()

    # -- connection -----------------------------------------------------------
    def open_connection(self) -> Connection:
        if self._conn is not None:
            raise ConnectionError_("connection already open")
        self._conn = self.node.open_connection(self._buffer_capacity)
        return self._conn

    def close_connection(self) -> None:
        conn = self._require_conn()
        self.node.close_connection(conn)
        self._conn = None

    def abandon_connection(self) -> None:
        """Drop the connection handle without a node round trip.

        For a lease holder whose node died mid-lease (fail-stop with
        amnesia): the close RPC cannot reach the node.  Clears the
        client-side handle and tears down the node's state for the
        connection exactly as a close does, so a recovered node gets its
        region and protection domain back, keeping lease-manager
        accounting exact even when :meth:`close_connection` raises a
        :class:`~repro.common.errors.FaultError`.
        """
        self.node.drop_connection(self._require_conn())
        self._conn = None

    def _require_conn(self) -> Connection:
        if self._conn is None:
            raise ConnectionError_("no open connection; call open_connection")
        return self._conn

    @property
    def connection(self) -> Connection:
        return self._require_conn()

    # -- memory management -------------------------------------------------------
    def alloc_table_mem(self, table: FTable) -> FTable:
        self.node.alloc_table_mem(self._require_conn(), table)
        if table.name not in self.catalog:
            self.catalog.register(table)
        return table

    def free_table_mem(self, table: FTable) -> None:
        self.node.free_table_mem(self._require_conn(), table)
        self.catalog.deregister(table.name)

    def drop_table(self, table: FTable | VersionedTable | str) -> None:
        """Free a table's disaggregated memory and deregister it.

        The single-node counterpart of :meth:`ClusterClient.drop_table`:
        accepts a plain :class:`FTable`, a :class:`VersionedTable`
        (every live, retired and delta segment is freed), or a catalog
        name — no reaching into ``catalog.deregister`` or allocator
        internals required.
        """
        if isinstance(table, str):
            table = self.catalog.lookup(table)
        if isinstance(table, VersionedTable):
            conn = self._require_conn()
            for segment in table.drain_segments():
                self.node.free_table_mem(conn, segment)
            self.catalog.deregister(table.name)
            return
        self.free_table_mem(table)

    # -- fault-layer request wrapper ---------------------------------------------------
    def _with_policy_proc(self, make_proc, verb: str):
        """Process: run ``make_proc()`` under :attr:`retry_policy`.

        Typed fault errors retry with capped exponential backoff; a
        completion past the deadline is *discarded* (the late result is
        never returned) and retried, surfacing as
        :class:`RequestTimeoutError` once attempts are exhausted.  With
        no policy installed this is a plain pass-through — no extra
        simulator events, identical timing.
        """
        policy = self.retry_policy
        if policy is None:
            result = yield from make_proc()
            return result
        attempt = 0
        while True:
            attempt += 1
            start = self.sim.now
            try:
                result = yield from make_proc()
            except FaultError:
                if attempt >= policy.max_attempts:
                    raise
                yield self.sim.timeout(policy.backoff_ns(attempt))
                continue
            if (policy.deadline_ns is not None
                    and self.sim.now - start > policy.deadline_ns):
                if attempt >= policy.max_attempts:
                    raise RequestTimeoutError(
                        f"{verb} took {self.sim.now - start:.0f} ns "
                        f"(deadline {policy.deadline_ns:.0f} ns, "
                        f"{attempt} attempts)")
                yield self.sim.timeout(policy.backoff_ns(attempt))
                continue
            return result

    # -- verbs as processes ----------------------------------------------------------
    def table_write_proc(self, table: FTable, rows: np.ndarray | bytes):
        """Process: upload ``rows`` (array or raw image) to the buffer pool."""
        result = yield from self._with_policy_proc(
            lambda: self._table_write_once_proc(table, rows), "table_write")
        return result

    def _table_write_once_proc(self, table: FTable, rows: np.ndarray | bytes):
        conn = self._require_conn()
        if isinstance(rows, np.ndarray):
            table.validate_rows(rows)
            data = table.schema.to_bytes(rows)
        else:
            data = bytes(rows)
        result = yield from self.node.serve_write(conn, table, data)
        return result

    def table_read_proc(self, table: FTable, offset: int = 0,
                        length: int | None = None):
        """Process: raw RDMA read; returns the bytes landed in the buffer."""
        result = yield from self._with_policy_proc(
            lambda: self._table_read_once_proc(table, offset, length),
            "table_read")
        return result

    def _table_read_once_proc(self, table: FTable, offset: int,
                              length: int | None):
        conn = self._require_conn()
        conn.qp.buffer.reset()
        total = yield from self.node.serve_read(conn, table, offset, length)
        return conn.qp.buffer.read(0, total)

    def far_view_proc(self, table: FTable, query: Query):
        """Process: the Farview verb; returns a :class:`QueryResult`."""
        if isinstance(table, VersionedTable):
            result = yield from self.scan_versioned_proc(table, query)
            return result
        result = yield from self._with_policy_proc(
            lambda: self._far_view_once_proc(table, query), "far_view")
        return result

    def _far_view_once_proc(self, table: FTable, query: Query):
        conn = self._require_conn()
        build, build_token = self._pin_join_build(query)
        try:
            compiled = self._compile(table, query)
            conn.qp.buffer.reset()
            start = self.sim.now
            report = yield from self.node.serve_farview(conn, table, compiled)
        finally:
            if build is not None:
                self._release_pin(build, build_token)
        self._attach_group_meta(compiled, report)
        data = conn.qp.buffer.read(0, report.bytes_shipped)
        return QueryResult(
            data=data,
            schema=compiled.output_schema,
            report=report,
            response_time_ns=self.sim.now - start,
            output_key=query.encrypt_output)

    def _pin_join_build(self, query: Query):
        """Pin a versioned join build side at its current epoch.

        The pin is taken before any simulated time passes (the compile
        resolves the same epoch into the build view), so a dimension
        table being updated — or compacted — mid-scan cannot change or
        free the segments this join reads.  Returns ``(table, token)``
        or ``(None, None)`` when there is nothing to pin.
        """
        build = query.join.build_table if query.join is not None else None
        if isinstance(build, VersionedTable):
            return build, build.pin(build.epoch)
        return None, None

    def _compile(self, table: FTable, query: Query) -> CompiledQuery:
        # Pipelines are stateful/one-shot: always build a fresh one, but the
        # signature keeps region reconfiguration free across repeats.
        return compile_query(query, table, self.node.config)

    @staticmethod
    def _attach_group_meta(compiled: CompiledQuery,
                           report: ExecutionReport) -> None:
        if report.overflow_groups:
            query = compiled.query
            report.overflow_layout = (
                list(query.group_by or ()),
                list(query.aggregates),
                sorted({s.column for s in query.aggregates
                        if not (s.func == "count" and s.column == "*")}))

    # -- blocking conveniences ------------------------------------------------------------
    def _run(self, proc, name: str):
        start = self.sim.now
        result = self.sim.run_process(proc, name)
        return result, self.sim.now - start

    def table_write(self, table: FTable, rows: np.ndarray | bytes):
        """Upload rows; returns (bytes_written, elapsed_ns)."""
        return self._run(self.table_write_proc(table, rows), "table_write")

    def table_read(self, table: FTable, offset: int = 0,
                   length: int | None = None):
        """Raw read; returns (bytes, elapsed_ns)."""
        return self._run(self.table_read_proc(table, offset, length),
                         "table_read")

    def far_view(self, table: FTable, query: Query):
        """Offloaded query; returns (QueryResult, elapsed_ns).

        Accepts a :class:`VersionedTable` too: the scan then runs over
        the MVCC view pinned at the current epoch (see
        :meth:`scan_versioned`).
        """
        if isinstance(table, VersionedTable):
            return self.scan_versioned(table, query)
        return self._run(self.far_view_proc(table, query), "far_view")

    # -- versioned write path (MVCC snapshots + delta segments) -------------------------------
    def create_versioned_table(self, name: str, schema: Schema,
                               rows: np.ndarray) -> VersionedTable:
        """Allocate + upload ``rows`` as the base segment of a version
        chain; registers the :class:`VersionedTable` under ``name``.

        Writes then go through :meth:`insert` / :meth:`update_where` /
        :meth:`delete_where`, each committing a copy-on-write delta
        segment and advancing the table's epoch.
        """
        require_versionable(schema)
        if len(rows) == 0:
            raise QueryError(
                f"versioned table {name!r} needs a non-empty base segment")
        if name in self.catalog:
            from ..common.errors import CatalogError
            raise CatalogError(f"table {name!r} already registered")
        conn = self._require_conn()
        base = FTable(f"{name}#b0", schema, len(rows))
        self.node.alloc_table_mem(conn, base)
        self.table_write(base, rows)
        vt = VersionedTable(name, schema, base,
                            np.arange(len(rows), dtype=np.uint64))
        self.catalog.register(vt)
        return vt

    def snapshot(self, table: VersionedTable) -> int:
        """The current committed epoch — pass to ``as_of`` for a
        repeatable snapshot read."""
        return table.epoch

    # prepare/commit split: the cluster router prepares on every shard
    # before committing any (two-phase epoch broadcast); the single-node
    # verbs below are prepare + immediate commit.
    def _prepare_insert_proc(self, vt: VersionedTable, rows: np.ndarray):
        conn = self._require_conn()
        rows = np.asarray(rows, dtype=vt.schema.dtype)
        if len(rows) == 0:
            return ("insert", None, 0, 0)
        ids = vt.allocate_rowids(len(rows))
        dschema = delta_schema(vt.schema)
        drows = dschema.empty(len(rows))
        drows[ROWID_COLUMN] = ids
        for column in vt.schema.names:
            drows[column] = rows[column]
        segment = FTable(vt.next_segment_name(), dschema, len(rows))
        self.node.alloc_table_mem(conn, segment)
        yield from self.node.serve_write(conn, segment,
                                         dschema.to_bytes(drows))
        return ("insert", segment, len(rows), len(rows))

    def _prepare_update_proc(self, vt: VersionedTable,
                             predicate: Predicate | None,
                             assignments: dict):
        conn = self._require_conn()
        token = vt.pin(vt.epoch)
        try:
            prepared = yield from self.node.serve_update_delta(
                conn, vt.view_at(vt.epoch), predicate, assignments,
                vt.next_segment_name())
        finally:
            self._release_pin(vt, token)
        if prepared is None:
            return ("update", None, 0, 0)
        segment, rowids = prepared
        return ("update", segment, len(rowids), 0)

    def _prepare_delete_proc(self, vt: VersionedTable,
                             predicate: Predicate | None):
        conn = self._require_conn()
        token = vt.pin(vt.epoch)
        try:
            prepared = yield from self.node.serve_delete_delta(
                conn, vt.view_at(vt.epoch), predicate,
                vt.next_segment_name())
        finally:
            self._release_pin(vt, token)
        if prepared is None:
            return ("delete", None, 0, 0)
        segment, rowids = prepared
        return ("delete", segment, len(rowids), -len(rowids))

    @staticmethod
    def _commit_prepared(vt: VersionedTable, prepared) -> int:
        kind, segment, num_rows, visible_change = prepared
        return vt.commit_delta(kind, segment, num_rows, visible_change)

    def insert_proc(self, vt: VersionedTable, rows: np.ndarray):
        """Process: append ``rows`` as an insert delta; returns the new
        epoch."""
        prepared = yield from self._prepare_insert_proc(vt, rows)
        epoch = self._commit_prepared(vt, prepared)
        yield from self._views_after_commit_proc()
        return epoch

    def update_where_proc(self, vt: VersionedTable,
                          predicate: Predicate | None, assignments: dict):
        """Process: offloaded read-modify-write.  The node evaluates
        ``predicate`` over the visible rows and writes an update delta
        with the ``column -> literal`` assignments applied; no table
        bytes cross the wire.  Returns the new epoch."""
        prepared = yield from self._prepare_update_proc(vt, predicate,
                                                        assignments)
        epoch = self._commit_prepared(vt, prepared)
        yield from self._views_after_commit_proc()
        return epoch

    def delete_where_proc(self, vt: VersionedTable,
                          predicate: Predicate | None):
        """Process: offloaded predicate delete; returns the new epoch."""
        prepared = yield from self._prepare_delete_proc(vt, predicate)
        epoch = self._commit_prepared(vt, prepared)
        yield from self._views_after_commit_proc()
        return epoch

    def compact_proc(self, vt: VersionedTable):
        """Process: fold the delta chain into a fresh base segment.

        A background maintenance pass: contents and epoch are unchanged,
        but subsequent scans ingest one segment instead of base + K
        deltas.  Superseded segments are freed immediately unless an
        in-flight pinned scan still reads them — then they are retired
        and freed when the last such scan ends.  Returns the epoch.
        """
        conn = self._require_conn()
        token = vt.pin(vt.epoch)
        try:
            new_base, ids = yield from self.node.serve_compact(
                conn, vt.view_at(vt.epoch),
                f"{vt.name}#b{vt.compactions + 1}")
        finally:
            self._release_pin(vt, token)
        for segment in vt.retire_for_compaction(new_base, ids):
            self.node.free_table_mem(conn, segment)
        return vt.epoch

    def _release_pin(self, vt: VersionedTable, token: int) -> None:
        conn = self._require_conn()
        for segment in vt.unpin(token):
            self.node.free_table_mem(conn, segment)

    def scan_versioned_proc(self, vt: VersionedTable, query: Query,
                            as_of: int | None = None):
        """Process: offloaded scan over the snapshot pinned at start.

        The epoch is resolved and pinned before any simulated time
        passes, so writers committing — and compactions retiring
        segments — mid-scan cannot change the bytes this scan returns.
        """
        conn = self._require_conn()
        epoch = vt.epoch if as_of is None else as_of
        token = vt.pin(epoch)
        build, build_token = self._pin_join_build(query)
        try:
            view = vt.view_at(epoch)
            compiled = compile_query(self._versioned_query(query),
                                     view.base, self.node.config)
            conn.qp.buffer.reset()
            start = self.sim.now
            report = yield from self.node.serve_farview_versioned(
                conn, view, compiled)
            self._attach_group_meta(compiled, report)
            data = conn.qp.buffer.read(0, report.bytes_shipped)
            return QueryResult(
                data=data, schema=compiled.output_schema, report=report,
                response_time_ns=self.sim.now - start,
                output_key=query.encrypt_output)
        finally:
            if build is not None:
                self._release_pin(build, build_token)
            self._release_pin(vt, token)

    @staticmethod
    def _versioned_query(query: Query) -> Query:
        """Delta-merge ingest needs the full row stream (like joins), so
        smart addressing is not applicable to versioned scans."""
        if query.smart_addressing:
            raise QueryError(
                "smart addressing is incompatible with versioned scans: "
                "the delta-merge ingest consumes the full row stream")
        if query.smart_addressing is None:
            return replace(query, smart_addressing=False)
        return query

    def read_version_proc(self, vt: VersionedTable, as_of: int | None = None):
        """Process: raw RDMA reads of every segment + client-side merge.

        Returns ``(visible_rows, rowids, bytes_shipped)`` — the ship-side
        building block of versioned placement, and the oracle the
        snapshot-isolation tests re-execute."""
        epoch = vt.epoch if as_of is None else as_of
        token = vt.pin(epoch)
        try:
            view = vt.view_at(epoch)
            images: dict[str, bytes] = {}
            shipped = 0
            for segment in view.segment_tables:
                data = yield from self.table_read_proc(segment)
                images[segment.name] = data
                shipped += len(data)
            rows, ids = view.materialize(lambda t: images[t.name])
            return rows, ids, shipped
        finally:
            self._release_pin(vt, token)

    # -- incremental view hooks (verbs in _ViewEngineMixin) -----------------------------------
    def _view_chains(self, handle):
        if not isinstance(handle, VersionedTable):
            raise QueryError(
                f"{getattr(handle, 'name', handle)!r} is not a versioned "
                f"table on this client")
        return [(self, handle)]

    def _view_static_read_proc(self, handle):
        data = yield from self.table_read_proc(handle)
        return handle.schema.from_bytes(data, copy=True), len(data)

    def _view_cpu(self) -> CpuCostModel:
        return self._cpu

    def _view_run(self, proc, name: str):
        return self._run(proc, name)

    # -- versioned blocking conveniences ------------------------------------------------------
    def insert(self, vt: VersionedTable, rows: np.ndarray):
        """Append rows; returns (new_epoch, elapsed_ns)."""
        return self._run(self.insert_proc(vt, rows), "insert")

    def update_where(self, vt: VersionedTable,
                     predicate: Predicate | None, assignments: dict):
        """Offloaded UPDATE ... SET ... WHERE; returns
        (new_epoch, elapsed_ns)."""
        return self._run(self.update_where_proc(vt, predicate, assignments),
                         "update_where")

    def delete_where(self, vt: VersionedTable,
                     predicate: Predicate | None):
        """Offloaded DELETE ... WHERE; returns (new_epoch, elapsed_ns)."""
        return self._run(self.delete_where_proc(vt, predicate),
                         "delete_where")

    def compact(self, vt: VersionedTable):
        """Fold the delta chain; returns (epoch, elapsed_ns)."""
        return self._run(self.compact_proc(vt), "compact")

    def read_version(self, vt: VersionedTable, as_of: int | None = None):
        """Visible byte image at an epoch; returns (bytes, elapsed_ns)."""
        (rows, _ids, _shipped), elapsed = self._run(
            self.read_version_proc(vt, as_of), "read_version")
        return vt.schema.to_bytes(rows), elapsed

    def scan_versioned(self, vt: VersionedTable, query: Query,
                       as_of: int | None = None, placement: str = "offload",
                       stats: PlanStats | None = None,
                       lease_manager=None):
        """Snapshot scan, optionally under cost-based placement.

        ``placement="offload"`` runs the delta-merge ingest on the node
        (the default, a plain :class:`QueryResult`); ``"ship"`` reads the
        raw segments and merges + executes client-side; ``"auto"`` picks
        the cheapest prefix split with delta-aware costing (the
        ship/offload crossover shifts with the delta fraction).
        Returns ``(result, elapsed_ns)``.
        """
        epoch = vt.epoch if as_of is None else as_of
        if placement == "offload":
            return self._run(self.scan_versioned_proc(vt, query, epoch),
                             "scan_versioned")
        plan = self.plan_versioned(vt, query, epoch, placement, stats,
                                   lease_manager)
        if plan.full_offload:
            try:
                result, elapsed = self._run(
                    self.scan_versioned_proc(vt, query, epoch),
                    "scan_versioned")
            except JoinBuildOverflowError:
                # The on-chip build load overflowed below nominal
                # capacity (data-dependent kick exhaustion); re-plan
                # with the join on the client.
                if placement != "auto" or query.join is None:
                    raise
                plan = self.plan_versioned(vt, query, epoch, placement,
                                           stats, lease_manager,
                                           refuse_join_offload=True)
                return self._scan_versioned_planned(vt, query, epoch, plan)
            except RegionFailedError:
                # The dynamic region died; under auto the ship path is
                # the automatic fallback — raw segment reads need no
                # region at all.
                if placement != "auto":
                    raise
                plan = self.plan_versioned(vt, query, epoch, "ship",
                                           stats, lease_manager)
                return self._scan_versioned_planned(vt, query, epoch, plan)
            plan.explain.actual_ns = elapsed
            result.explain = plan.explain
            return result, elapsed
        return self._scan_versioned_planned(vt, query, epoch, plan)

    def plan_versioned(self, vt: VersionedTable, query: Query,
                       epoch: int | None = None, placement: str = "auto",
                       stats: PlanStats | None = None,
                       lease_manager=None,
                       refuse_join_offload: bool = False) -> PlacementPlan:
        """Plan a versioned scan: base + K delta segments on the ingest
        side, raw segment reads + software merge on the ship side."""
        epoch = vt.epoch if epoch is None else epoch
        view = vt.view_at(epoch)
        region = self._require_conn().region
        return plan_placement(
            self._versioned_query(query), view.base, self.node.config,
            placement=placement, stats=stats, cpu=self._cpu,
            loaded_signature=region.loaded_pipeline,
            lease_manager=lease_manager,
            total_rows=vt.visible_rows_at(epoch),
            buffer_capacity=self._buffer_capacity,
            scan_bytes=float(view.scan_bytes),
            delta_rows=float(view.delta_rows),
            refuse_join_offload=refuse_join_offload)

    def _scan_versioned_planned(self, vt: VersionedTable, query: Query,
                                epoch: int, plan: PlacementPlan):
        """Ship/hybrid execution of a versioned scan (cf.
        :func:`_execute_planned`, plus the client-side delta merge)."""
        sim, cpu = self.sim, self._cpu
        view = vt.view_at(epoch)
        start = sim.now
        cost = CostBreakdown()
        cost.add("setup", cpu.setup_ns())
        build_rows = None
        if "join" in plan.client_steps:
            build_rows, build_shipped = self._read_join_build(query)
            cost.add("read", cpu.read_ns(build_shipped))
        if plan.fragment is None:
            rows, _ids, shipped = sim.run_process(
                self.read_version_proc(vt, epoch), "read_version")
            cost.add("read", cpu.read_ns(shipped))
            cost.add("merge", delta_merge_cost_ns(
                cpu, vt.visible_rows_at(epoch), view.delta_rows))
            current = vt.schema
            fragment_result = None
        else:
            fragment_result, _ = self._run(
                self.scan_versioned_proc(vt, plan.fragment, epoch),
                "scan_versioned")
            rows = fragment_result.rows()
            current = fragment_result.schema
            shipped = fragment_result.report.bytes_shipped
            cost.add("read", cpu.read_ns(shipped))
        rows, current = run_client_steps(rows, current,
                                         list(plan.client_steps), query,
                                         cpu, cost, build_rows=build_rows)
        cost.add("write", cpu.write_ns(len(rows) * current.row_width))
        sim.run_process(_client_compute(sim, cost.total_ns),
                        "client-compute")
        elapsed = sim.now - start
        plan.explain.actual_ns = elapsed
        result = HybridQueryResult(
            schema=current, merged=rows, response_time_ns=elapsed,
            explain=plan.explain, fragment_result=fragment_result,
            client_cost=cost, shipped_bytes=shipped)
        return result, elapsed

    # -- cost-based placement (offload vs ship-to-compute) -----------------------------------
    def plan(self, table: FTable, query: Query, placement: str = "auto",
             stats: PlanStats | None = None,
             lease_manager=None,
             refuse_join_offload: bool = False) -> PlacementPlan:
        """Plan (but do not run) ``query``: where should each operator go?

        The estimate accounts for the pipeline currently loaded in this
        connection's dynamic region (a different signature pays the
        partial-reconfiguration charge) and, if a ``lease_manager`` is
        given, for the expected region-lease wait on a saturated pool.
        """
        region = self._require_conn().region
        return plan_placement(query, table, self.node.config,
                              placement=placement, stats=stats,
                              cpu=self._cpu,
                              loaded_signature=region.loaded_pipeline,
                              lease_manager=lease_manager,
                              buffer_capacity=self._buffer_capacity,
                              refuse_join_offload=refuse_join_offload)

    def far_view_planned(self, table: FTable, query: Query,
                         placement: str = "auto",
                         stats: PlanStats | None = None,
                         lease_manager=None):
        """Run ``query`` under cost-based placement.

        ``placement="offload"`` is the legacy full-offload path (returns
        a plain :class:`QueryResult`, byte- and timing-identical to
        :meth:`far_view`); ``"ship"`` reads raw bytes and executes all
        operators in client software; ``"auto"`` picks the cheapest
        prefix split.  Ship/hybrid executions return a
        :class:`HybridQueryResult`; all variants carry an
        :class:`~repro.core.planner.ExplainPlan` with estimated and
        actual response times.  Returns ``(result, elapsed_ns)``.
        """
        if isinstance(table, VersionedTable):
            return self.scan_versioned(table, query, placement=placement,
                                       stats=stats,
                                       lease_manager=lease_manager)
        try:
            return self._far_view_planned_once(table, query, placement,
                                               stats, lease_manager)
        except JoinBuildOverflowError:
            # The compile-time capacity pre-check is nominal; cuckoo
            # kick chains can exhaust below it while actually loading
            # the build.  Under auto the refusal is productive: re-plan
            # with the join forced to the client.
            if placement != "auto" or query.join is None:
                raise
            return self._far_view_planned_once(table, query, placement,
                                               stats, lease_manager,
                                               refuse_join_offload=True)
        except RegionFailedError:
            # A dead region cannot host any pipeline; under auto,
            # degrade gracefully to the ship path (raw reads + client
            # software need no region).
            if placement != "auto":
                raise
            return self._far_view_planned_once(table, query, "ship",
                                               stats, lease_manager)

    def _far_view_planned_once(self, table: FTable, query: Query,
                               placement: str, stats, lease_manager,
                               refuse_join_offload: bool = False):
        plan = self.plan(table, query, placement, stats, lease_manager,
                         refuse_join_offload=refuse_join_offload)
        if plan.full_offload:
            result, elapsed = self.far_view(table, query)
            plan.explain.actual_ns = elapsed
            result.explain = plan.explain
            return result, elapsed
        return _execute_planned(
            self.sim, plan, query, self._cpu,
            read_raw=lambda: self.table_read(table)[0],
            run_fragment=lambda fragment: self.far_view(table, fragment)[0],
            schema=table.schema,
            decrypt_keys=((table.key, table.nonce)
                          if table.encrypted else None),
            read_build=lambda: self._read_join_build(query))

    def _read_join_build(self, query: Query):
        """Fetch + decode a shipped join's build side (timed raw read)."""
        return self._read_build_rows(query.join.build_table)

    def _read_build_rows(self, build):
        """Raw read + decode of a build-side table.

        A versioned build reads every segment of the chain pinned at the
        current epoch and merges client-side (the same oracle
        :meth:`read_version_proc` provides); a plain table is one raw
        RDMA read.  Returns ``(build_rows, bytes_shipped)``.
        """
        if isinstance(build, VersionedTable):
            (rows, _ids, shipped), _ = self._run(
                self.read_version_proc(build), "read_build")
            return rows, shipped
        data, _ = self.table_read(build)
        return build.schema.from_bytes(data), len(data)

    # -- paper-style higher-level helpers (§4.2's `select`) ----------------------------------
    def select(self, table: FTable, columns: list[str] | None,
               predicate: Predicate, vectorized: bool = False,
               placement: str = "offload",
               stats: PlanStats | None = None):
        """``SELECT columns FROM table WHERE predicate``.

        ``placement`` routes through the cost-based planner:
        ``"offload"`` (default, the paper's path), ``"ship"`` (raw read +
        client software), or ``"auto"`` (cheapest split; pass ``stats``
        for better estimates).
        """
        query = Query(projection=tuple(columns) if columns else None,
                      predicate=predicate, vectorized=vectorized,
                      label="select")
        if placement == "offload":
            return self.far_view(table, query)
        return self.far_view_planned(table, query, placement, stats)

    def select_distinct(self, table: FTable, columns: list[str]):
        query = Query(projection=tuple(columns), distinct=True,
                      label="distinct")
        return self.far_view(table, query)

    def group_by(self, table: FTable, keys: list[str],
                 aggregates: list[AggregateSpec]):
        query = Query(group_by=tuple(keys), aggregates=tuple(aggregates),
                      label="group_by")
        return self.far_view(table, query)

    def regex_match(self, table: FTable, column: str, pattern: str):
        query = Query(regex=RegexFilter(column, pattern), label="regex")
        return self.far_view(table, query)

    def sql(self, statement: str, placement: str | None = None,
            stats: PlanStats | None = None):
        """Parse and execute a SQL statement against the catalog.

        SELECTs run against any registered table (versioned scans pin
        the current epoch); ``INSERT INTO ... VALUES``, ``UPDATE ... SET
        ... WHERE`` and ``DELETE FROM ... WHERE`` commit write batches
        against a versioned table and return ``(new_epoch, elapsed_ns)``.
        Placement precedence for reads: the ``placement`` argument, then
        a ``/*+ placement(...) */`` hint, then full offload.  Returns
        ``(result, elapsed_ns)``.
        """
        return _execute_sql(self, statement, placement, stats,
                            VersionedTable)


@dataclass
class ClusterQueryResult:
    """Merged client-visible result of one scatter-gather execution.

    ``shard_results`` are the per-shard :class:`QueryResult`\\ s in shard
    order; ``rows()`` is the client-side merge of their post-processed
    rows (dedup / partial-group re-merge already applied).  ``data`` is
    the canonical byte image of the merged rows — under order-preserving
    ``chunk`` partitioning it is byte-identical to a single node's result
    for the same data (the cluster tests pin this with sha256).
    """

    schema: Schema
    shard_results: list[QueryResult]
    response_time_ns: float
    merged: np.ndarray = field(repr=False)
    explain: Optional[ExplainPlan] = None  # set by the placement planner
    #: Resolved scatter strategy of a join query (``broadcast`` /
    #: ``colocated`` / ``shuffle``), ``None`` for join-less queries.
    join_strategy: Optional[str] = None

    def rows(self) -> np.ndarray:
        return self.merged

    @property
    def data(self) -> bytes:
        """Canonical merged result bytes (plaintext, single-node layout)."""
        return self.schema.to_bytes(self.merged)

    @property
    def num_rows(self) -> int:
        return len(self.merged)

    @property
    def bytes_shipped(self) -> int:
        """Total result bytes shipped over all shard links (pre-merge)."""
        return sum(r.report.bytes_shipped for r in self.shard_results)

    @property
    def bytes_scanned(self) -> int:
        return sum(r.report.bytes_scanned for r in self.shard_results)


@dataclass
class _JoinReplica:
    """A broadcast build-table copy on one node, stamped with the node's
    incarnation at write time (a later crash makes the stamp stale — the
    copy is gone and must never be probed against)."""

    table: FTable
    incarnation: int = 0


@dataclass
class _EmptyShardResult:
    """Fabricated zero-row result for a fact shard whose join-build
    partition holds no rows.

    Under co-located and shuffle joins the build side is partitioned on
    the join key, so a fact shard facing an empty build partition cannot
    produce output (inner join: nothing to match).  The pool cannot even
    host a zero-byte build table (the MMU rejects empty allocations), so
    the client answers these shards locally — zero requests, zero bytes
    on the wire — shaped like a :class:`QueryResult` as far as
    :meth:`ClusterClient._gather` is concerned.
    """

    schema: Schema
    report: ExecutionReport

    def rows(self) -> np.ndarray:
        return self.schema.empty(0)


#: Sentinel a shard executor returns (instead of raising) when every
#: candidate replica of its shard is gone and the caller opted into
#: degraded results.  Filtered out by :meth:`ClusterClient._gather`.
_SHARD_LOST = object()


class _ConnLock:
    """FIFO mutex serializing shard requests on one per-node connection.

    Replica failover can route two shards' requests of the same scatter
    onto the same node, but a connection's landing buffer holds one
    request at a time (reset + read) — interleaving would corrupt both
    results.  The uncontended path takes and releases the lock
    synchronously (no events, no yields), so the no-fault baselines are
    bit-for-bit unaffected.
    """

    __slots__ = ("sim", "locked", "waiters")

    def __init__(self, sim):
        self.sim = sim
        self.locked = False
        self.waiters: deque = deque()

    def acquire(self):
        """Process: returns holding the lock (synchronously when free)."""
        if not self.locked:
            self.locked = True
            return
        ticket = self.sim.event()
        self.waiters.append(ticket)
        yield ticket  # woken by release(), lock handed over directly

    def release(self) -> None:
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.locked = False


class ClusterClient(_ViewEngineMixin):
    """Scatter-gather router: one query thread over a sharded pool.

    Owns one :class:`FarviewClient` (QP + dynamic region) per node of a
    :class:`~repro.core.cluster.FarviewCluster` and a cluster-level
    :class:`~repro.core.catalog.Catalog` of
    :class:`~repro.core.cluster.ShardedTable`\\ s.  Verbs mirror the
    single-node client (see the module docstring table): queries are
    rewritten by :func:`~repro.core.cluster.plan_scatter`, scattered to
    the shards that own data, executed with true node-level parallelism,
    and gathered client-side — DISTINCT dedup, GROUP BY / aggregate
    partial re-merges included.  Response time runs until the *last*
    shard's results land in client memory, matching the paper's
    measurement endpoint (§6.2).
    """

    def __init__(self, cluster: FarviewCluster,
                 buffer_capacity: int = 8 * 1024 * 1024):
        self.cluster = cluster
        self.sim = cluster.sim
        self.catalog = Catalog()
        self._clients = [FarviewClient(node, buffer_capacity)
                         for node in cluster.nodes]
        #: Broadcast join build replicas: build name -> node index ->
        #: the node-local copy of the dimension table (with the node's
        #: incarnation at write time).  Replicas are immutable (plain
        #: tables only) so they stay valid until the build table is
        #: dropped — or the node crashes, which invalidates the entry.
        self._join_replicas: dict[str, dict[int, _JoinReplica]] = {}
        #: In-flight broadcasts by build name: concurrent joins against
        #: the same dimension table share one broadcast process instead
        #: of racing the cache and leaking the loser's replicas.
        self._join_broadcasts: dict[str, object] = {}
        #: Repartition-shuffle fragment cache: ``"{build}->{fact}"`` ->
        #: ``(partition, node_index)`` -> the node-local fragment of the
        #: build's rows whose keys hash to ``partition`` (primary on node
        #: ``partition`` plus the fact table's failover ring).
        self._shuffle_fragments: dict[
            str, dict[tuple[int, int], _JoinReplica]] = {}
        #: In-flight shuffles by cache key (same dedupe as broadcasts).
        self._shuffle_jobs: dict[str, object] = {}
        #: Hash partitions of each shuffled build that hold no rows —
        #: their fact shards probe nothing and are answered client-side.
        self._shuffle_empty: dict[str, frozenset[int]] = {}
        #: Build-side bytes written into pool memory for join placement
        #: (broadcast replicas + shuffle fragments).  Co-located joins
        #: leave this untouched — the fig19 zero-replica-bytes assertion.
        self.replica_bytes_moved = 0
        #: Optional :class:`~repro.core.faults.RetryPolicy`, applied per
        #: shard request by the scatter router (backoff between retries
        #: on the same candidate, post-completion deadline check).
        #: ``None`` (default) keeps the exact pre-fault-layer path.
        self.retry_policy: RetryPolicy | None = None
        #: When True, a read that loses *every* replica of a shard
        #: raises :class:`DegradedResultError` carrying the partial
        #: merge of the surviving shards instead of the bare failure.
        self.allow_degraded = False
        #: One lock per per-node connection: failover may put two shard
        #: requests of one scatter on the same node, and its landing
        #: buffer serves one request at a time.
        self._conn_locks = [_ConnLock(self.sim) for _ in cluster.nodes]
        #: Registered materialized views + their chain trackers — one
        #: tracker per shard chain (verbs in :class:`_ViewEngineMixin`).
        self.views = ViewCatalog()

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    def node_client(self, index: int) -> FarviewClient:
        """The per-node client behind shard ``index``'s node."""
        return self._clients[index]

    # -- connection ----------------------------------------------------------
    def open_connection(self) -> None:
        """Open one QP + dynamic region on every node of the pool.

        All-or-nothing: if any node cannot grant a region, the regions
        already opened on earlier nodes are released before the error
        propagates.
        """
        opened: list[FarviewClient] = []
        try:
            for client in self._clients:
                client.open_connection()
                opened.append(client)
        except Exception:
            for client in opened:
                client.close_connection()
            raise

    def close_connection(self) -> None:
        for client in self._clients:
            client.close_connection()

    # -- sharded table lifecycle ---------------------------------------------
    def create_table(self, name: str, schema: Schema, rows: np.ndarray,
                     partition: PartitionSpec | None = None) -> ShardedTable:
        """Partition ``rows``, allocate and scatter-write the shards.

        Nodes whose shard would be empty get no shard table; the returned
        :class:`ShardedTable` is registered in the cluster catalog under
        ``name`` and its shard tables are named ``{name}@{node}``.
        """
        if len(rows) == 0:
            raise QueryError(
                f"cannot shard empty table {name!r}; empty shards have no "
                f"disaggregated memory to allocate")
        if name in self.catalog:
            # Fail before any shard is allocated or written — a duplicate
            # name is detectable from catalog information alone.
            from ..common.errors import CatalogError
            raise CatalogError(f"table {name!r} already registered")
        spec = partition if partition is not None else PartitionSpec()
        indices = partition_indices(rows, schema, spec,
                                    self.cluster.num_nodes)
        shards: list[TableShard] = []
        replica_allocs: list[tuple[int, FTable]] = []
        try:
            for node_index, idx in enumerate(indices):
                if len(idx) == 0:
                    continue
                shard_table = FTable(f"{name}@{node_index}", schema, len(idx))
                client = self._clients[node_index]
                client.alloc_table_mem(shard_table)
                # Track the shard before the write so a mid-upload failure
                # still rolls its allocation back.
                shard = TableShard(node_index, shard_table)
                shards.append(shard)
                client.table_write(shard_table, rows[idx])
                shard.incarnation = client.node.incarnation
                # k-replica placement: byte-identical copies on the next
                # ring nodes.  Replicas bypass the per-node catalogs
                # (like broadcast join copies) — only the cluster-level
                # placement knows about them.
                reps: list[ShardReplica] = []
                for rep_node in replica_nodes(node_index,
                                              self.cluster.num_nodes,
                                              spec.replicas):
                    rclient = self._clients[rep_node]
                    rtable = FTable(f"{name}@{node_index}r{rep_node}",
                                    schema, len(idx))
                    rclient.node.alloc_table_mem(rclient.connection, rtable)
                    replica_allocs.append((rep_node, rtable))
                    rclient.table_write(rtable, rows[idx])
                    reps.append(ShardReplica(rep_node, rtable,
                                             rclient.node.incarnation))
                shard.replicas = tuple(reps)
            shard_ranges: dict[int, tuple[float, float]] = {}
            if spec.scheme == "range":
                # Plan-time pruning metadata: each shard's observed key
                # span (recomputable from the deterministic placement,
                # cached here so pruning needs no reads).
                for node_index, idx in enumerate(indices):
                    if len(idx) == 0:
                        continue
                    values = rows[idx][spec.key].astype(np.float64)
                    shard_ranges[node_index] = (float(values.min()),
                                                float(values.max()))
            sharded = ShardedTable(name, schema, len(rows), spec, shards,
                                   num_partitions=self.cluster.num_nodes,
                                   shard_ranges=shard_ranges)
            self.catalog.register(sharded)
        except Exception:
            # All-or-nothing: free any shards already written so a failed
            # create leaves no orphaned pool memory behind.  Deregister a
            # per-node catalog name only if it maps to *this* shard (a
            # duplicate-name create never got to register its shards).
            for shard in shards:
                client = self._clients[shard.node_index]
                shard_name = shard.table.name
                if (shard_name in client.catalog
                        and client.catalog.lookup(shard_name) is shard.table):
                    client.free_table_mem(shard.table)
                else:
                    client.node.free_table_mem(client.connection, shard.table)
            for rep_node, rtable in replica_allocs:
                rclient = self._clients[rep_node]
                rclient.node.free_table_mem(rclient.connection, rtable)
            raise
        return sharded

    def drop_table(self,
                   sharded: ShardedTable | VersionedShardedTable) -> None:
        """Free every shard's disaggregated memory and deregister.

        Reuses the single-node :meth:`FarviewClient.drop_table` per
        shard, so plain and versioned shard tables (whole chains) are
        handled uniformly.  Broadcast join replicas of the table are
        freed too.
        """
        for shard in sharded.shards:
            self._clients[shard.node_index].drop_table(shard.table)
            for rep in getattr(shard, "replicas", ()):
                rclient = self._clients[rep.node_index]
                rclient.node.free_table_mem(rclient.connection, rep.table)
        for node_index, replica in self._join_replicas.pop(
                sharded.name, {}).items():
            client = self._clients[node_index]
            client.node.free_table_mem(client.connection, replica.table)
        self._join_broadcasts.pop(sharded.name, None)
        # Shuffle fragments are keyed per (build, fact) pairing — free
        # every pairing this table participates in, on either side.
        for key in [k for k in self._shuffle_fragments
                    if sharded.name in k.split("->")]:
            for (_part, node_index), rep in self._shuffle_fragments.pop(
                    key).items():
                if rep.table.allocated:
                    client = self._clients[node_index]
                    client.node.free_table_mem(client.connection, rep.table)
            self._shuffle_jobs.pop(key, None)
            self._shuffle_empty.pop(key, None)
        self.catalog.deregister(sharded.name)

    # -- broadcast joins ------------------------------------------------------
    def _ensure_join_replicas_proc(self, build):
        """Process: replicate a join's build table onto every node.

        The build-side broadcast of a distributed small-table join:
        gather the dimension table's bytes from its shards (ordinary
        scatter raw reads), then write one full copy into every node's
        pool memory in parallel — all timed through the normal
        wire/ingest model.  Replicas are cached per build name; repeated
        joins against the same dimension table pay the broadcast once.
        """
        if isinstance(build, (VersionedTable, VersionedShardedTable)):
            raise QueryError(
                "versioned build sides are single-node only; materialize "
                "the dimension table into a plain cluster table to join "
                "against it pool-wide")
        if not isinstance(build, ShardedTable):
            raise QueryError(
                "cluster joins need the build table registered in the "
                "cluster catalog (create it with create_table)")
        for _round in range(self.num_nodes + 2):
            cached = self._join_replicas.get(build.name)
            if cached is not None:
                # Invalidate entries written to a node that crashed
                # since: its pool memory is gone, and a stale copy must
                # never be probed against (never serve wrong bytes).
                for idx in [i for i, rep in cached.items()
                            if self.cluster.nodes[i].incarnation
                            != rep.incarnation]:
                    del cached[idx]
            targets = tuple(
                i for i in range(self.num_nodes)
                if not self.cluster.nodes[i].failed
                and (cached is None or i not in cached))
            if cached is not None and not targets:
                return cached
            inflight = self._join_broadcasts.get(build.name)
            if inflight is None:
                inflight = self.sim.process(
                    self._broadcast_build_proc(build, targets),
                    name=f"cluster.broadcast[{build.name}]")
                self._join_broadcasts[build.name] = inflight
            try:
                yield inflight
            except FaultError:
                # A node died mid-broadcast.  The loop re-evaluates:
                # the dead node drops out of the next round's targets
                # (re-replication onto the survivors only).
                pass
        raise NodeFailedError(
            f"could not broadcast {build.name!r}: nodes kept failing")

    def _broadcast_build_proc(self, build: ShardedTable,
                              targets: tuple[int, ...]):
        """Process: the broadcast itself (one in flight per build name),
        writing one replica onto each node in ``targets``."""
        replicas: dict[int, _JoinReplica] = {}
        try:
            data = yield from self.table_read_proc(build)
            procs = []
            for node_index in targets:
                client = self._clients[node_index]
                replica = FTable(f"{build.name}@bcast{node_index}",
                                 build.schema, build.num_rows)
                client.node.alloc_table_mem(client.connection, replica)
                replicas[node_index] = _JoinReplica(
                    replica, client.node.incarnation)
                procs.append(self.sim.process(
                    client.node.serve_write(client.connection, replica,
                                            data),
                    name=f"cluster.broadcast[{replica.name}]"))
            if procs:
                yield self.sim.all_of(procs)
            for rep in replicas.values():
                self.replica_bytes_moved += rep.table.size_bytes
        except BaseException:
            # A failed broadcast (e.g. a node out of pool memory) must
            # not leave a dead in-flight handle behind — later joins
            # would wait on it forever — nor leak partial replicas.
            self._join_broadcasts.pop(build.name, None)
            for node_index, rep in replicas.items():
                if rep.table.allocated:
                    client = self._clients[node_index]
                    client.node.free_table_mem(client.connection, rep.table)
            raise
        # Publish cache and retire the in-flight handle in one step (no
        # yields between), so callers see exactly one of the two.  A
        # drop_table mid-broadcast removes the in-flight handle; the
        # orphaned replicas are then freed instead of cached.  Merge
        # (not replace): a re-replication round after a crash must keep
        # the survivors' still-valid entries.
        if self._join_broadcasts.pop(build.name, None) is not None:
            cached = self._join_replicas.setdefault(build.name, {})
            cached.update(replicas)
            return cached
        for node_index, rep in replicas.items():
            client = self._clients[node_index]
            client.node.free_table_mem(client.connection, rep.table)
        return replicas

    def _localize_join(self, shard_query: Query,
                       replicas: dict[int, _JoinReplica],
                       node_index: int) -> Query:
        """Swap the node-local build replica into one shard's fragment.

        Raises :class:`NodeFailedError` when the node has no live
        replica (crashed since the broadcast) — the shard executor then
        fails over to the next candidate node.
        """
        rep = replicas.get(node_index)
        if rep is None or not self._node_usable(node_index,
                                                rep.incarnation):
            raise NodeFailedError(
                f"no live build replica on node {node_index}")
        spec = replace(shard_query.join, build_table=rep.table)
        return replace(shard_query, join=spec)

    def _node_usable(self, node_index: int,
                     incarnation: int | None = None) -> bool:
        """Is the node up — and, if ``incarnation`` is given, still the
        same incarnation that wrote the data we want to read?  (A crash
        wipes pool memory: same index, new incarnation, empty node.)"""
        node = self.cluster.nodes[node_index]
        if node.failed:
            return False
        return incarnation is None or node.incarnation == incarnation

    # -- partition-aware joins: strategy resolution, shuffle, co-location ----
    def _resolve_join_strategy(self, sharded, query: Query,
                               requested: str | None = None
                               ) -> Optional[str]:
        """Resolve the scatter strategy for a join query.

        An explicit ``requested`` strategy is validated against the
        feasible set (:func:`~repro.core.cluster.join_strategies`) and a
        typed error explains an infeasible request.  Under ``None``
        (auto) the cheapest build-movement cost wins
        (:meth:`~repro.core.cost_model.PlacementCostModel.
        join_movement_ns`, zero for placements already cached), with
        ties broken toward the strategy that moves least.
        """
        if query.join is None:
            if requested is not None:
                raise QueryError(
                    f"join_strategy={requested!r} given but the query has "
                    f"no join")
            return None
        feasible = join_strategies(sharded, query)
        if requested is not None:
            if requested not in JOIN_STRATEGIES:
                raise QueryError(
                    f"unknown join strategy {requested!r}; choose from "
                    f"{JOIN_STRATEGIES}")
            if requested not in feasible:
                raise QueryError(
                    f"join strategy {requested!r} is infeasible for "
                    f"{sharded.name!r}: feasible strategies are "
                    f"{feasible} (colocated needs both sides "
                    f"hash-partitioned on the join key with matching "
                    f"shard counts; shuffle needs the probe side "
                    f"hash-partitioned on the probe key)")
            return requested
        if len(feasible) == 1:
            return feasible[0]
        build = query.join.build_table
        model = PlacementCostModel(self.cluster.config,
                                   self._clients[0]._cpu)
        copies = min(sharded.partition.replicas, self.num_nodes)
        costs: dict[str, float] = {}
        for strat in feasible:
            if strat == "colocated":
                costs[strat] = 0.0
            elif strat == "broadcast":
                cached = self._join_replicas.get(build.name)
                costs[strat] = (0.0 if cached else model.join_movement_ns(
                    "broadcast", build.size_bytes, self.num_nodes))
            else:  # shuffle
                key = f"{build.name}->{sharded.name}"
                cached = self._shuffle_fragments.get(key)
                costs[strat] = (0.0 if cached else model.join_movement_ns(
                    "shuffle", build.size_bytes, sharded.num_partitions,
                    copies=copies))
        order = {"colocated": 0, "shuffle": 1, "broadcast": 2}
        return min(feasible, key=lambda s: (costs[s], order[s]))

    def _ensure_shuffle_fragments_proc(self, build, sharded, build_key: str):
        """Process: repartition a join's build side onto the fact shards.

        The node→node shuffle path: gather the build's bytes (ordinary
        scatter raw reads), re-key every row with the same splitmix64
        ``hash_key_batch`` the fact placement used, and write partition
        ``s``'s fragment onto node ``s`` plus the fact table's failover
        ring — all timed through the normal wire/ingest model.
        Fragments are cached per ``(build, fact)`` pairing; like the
        broadcast cache, entries written to a node that crashed since
        are invalidated and re-shuffled onto the survivors.
        """
        if isinstance(build, (VersionedTable, VersionedShardedTable)):
            raise QueryError(
                "versioned build sides are single-node only; materialize "
                "the dimension table into a plain cluster table to join "
                "against it pool-wide")
        if not isinstance(build, ShardedTable):
            raise QueryError(
                "cluster joins need the build table registered in the "
                "cluster catalog (create it with create_table)")
        key = f"{build.name}->{sharded.name}"
        for _round in range(self.num_nodes + 2):
            cached = self._shuffle_fragments.get(key)
            if cached is not None:
                for fkey in [fk for fk, rep in cached.items()
                             if self.cluster.nodes[fk[1]].incarnation
                             != rep.incarnation]:
                    del cached[fkey]
            empty = self._shuffle_empty.get(key, frozenset())
            targets: list[tuple[int, int]] = []
            for shard in sharded.shards:
                partition = shard.node_index
                if cached is not None and partition in empty:
                    continue
                ring = (partition,) + replica_nodes(
                    partition, self.num_nodes, sharded.partition.replicas)
                for node_index in ring:
                    if self.cluster.nodes[node_index].failed:
                        continue
                    if cached is None or (partition, node_index) not in cached:
                        targets.append((partition, node_index))
            if cached is not None and not targets:
                return cached
            inflight = self._shuffle_jobs.get(key)
            if inflight is None:
                inflight = self.sim.process(
                    self._shuffle_build_proc(build, sharded, build_key, key,
                                             tuple(targets)),
                    name=f"cluster.shuffle[{key}]")
                self._shuffle_jobs[key] = inflight
            try:
                yield inflight
            except FaultError:
                # A node died mid-shuffle.  The loop re-evaluates: the
                # dead node drops out of the next round's targets.
                pass
        raise NodeFailedError(
            f"could not shuffle {build.name!r} onto {sharded.name!r}: "
            f"nodes kept failing")

    def _shuffle_build_proc(self, build: ShardedTable, sharded, build_key: str,
                            key: str, targets: tuple[tuple[int, int], ...]):
        """Process: the shuffle itself (one in flight per pairing),
        writing the per-partition fragments named by ``targets``."""
        written: dict[tuple[int, int], _JoinReplica] = {}
        try:
            data = yield from self.table_read_proc(build)
            rows = build.schema.from_bytes(data)
            spec = PartitionSpec("hash", key=build_key)
            parts = partition_indices(rows, build.schema, spec,
                                      sharded.num_partitions)
            self._shuffle_empty[key] = frozenset(
                p for p, idx in enumerate(parts) if len(idx) == 0)
            by_node: dict[int, list[tuple[int, np.ndarray]]] = {}
            for partition, node_index in targets:
                idx = parts[partition]
                if len(idx) == 0:
                    continue
                by_node.setdefault(node_index, []).append(
                    (partition, rows[idx]))
            procs = [
                self.sim.process(
                    self._write_fragments_proc(build, node_index, frags,
                                               written),
                    name=f"cluster.shuffle[{key}->n{node_index}]")
                for node_index, frags in sorted(by_node.items())]
            if procs:
                yield self.sim.all_of(procs)
        except BaseException:
            # Mirror the broadcast cleanup: never leave a dead in-flight
            # handle or partially written fragments behind.
            self._shuffle_jobs.pop(key, None)
            for (_part, node_index), rep in written.items():
                if rep.table.allocated:
                    client = self._clients[node_index]
                    client.node.free_table_mem(client.connection, rep.table)
            raise
        if self._shuffle_jobs.pop(key, None) is not None:
            cached = self._shuffle_fragments.setdefault(key, {})
            cached.update(written)
            return cached
        for (_part, node_index), rep in written.items():
            client = self._clients[node_index]
            client.node.free_table_mem(client.connection, rep.table)
        return written

    def _write_fragments_proc(self, build: ShardedTable, node_index: int,
                              frags: list, written: dict):
        """Process: write one node's shuffle fragments back-to-back.

        One link per node: a node receiving several fragments (its own
        partition plus the ring failover copies landing on it) pays each
        write's fixed cost serially — the term that keeps broadcast
        competitive for small builds under k-replication.
        """
        client = self._clients[node_index]
        for partition, fragment_rows in frags:
            table = FTable(f"{build.name}@shf{partition}n{node_index}",
                           build.schema, len(fragment_rows))
            client.node.alloc_table_mem(client.connection, table)
            written[(partition, node_index)] = _JoinReplica(
                table, client.node.incarnation)
            yield from client.node.serve_write(
                client.connection, table,
                build.schema.to_bytes(fragment_rows))
            self.replica_bytes_moved += table.size_bytes

    def _localize_colocated(self, shard_query: Query, build: ShardedTable,
                            partition: int, node_index: int) -> Query:
        """Swap the build's co-located shard (or the ring replica living
        on the candidate node) into one fact shard's fragment."""
        for shard in build.shards:
            if shard.node_index != partition:
                continue
            for candidate in shard.candidates():
                if (candidate.node_index == node_index
                        and self._node_usable(node_index,
                                              candidate.incarnation)):
                    spec = replace(shard_query.join,
                                   build_table=candidate.table)
                    return replace(shard_query, join=spec)
            break
        raise NodeFailedError(
            f"no live co-located build shard for partition {partition} "
            f"on node {node_index}")

    def _localize_shuffle(self, shard_query: Query, fragments: dict,
                          partition: int, node_index: int) -> Query:
        """Swap the node-local shuffle fragment into one shard's
        fragment; a missing or stale fragment fails over."""
        rep = fragments.get((partition, node_index))
        if rep is None or not self._node_usable(node_index,
                                                rep.incarnation):
            raise NodeFailedError(
                f"no live shuffle fragment for partition {partition} on "
                f"node {node_index}")
        spec = replace(shard_query.join, build_table=rep.table)
        return replace(shard_query, join=spec)

    def _scatter_output_schema(self, sharded, plan: ScatterPlan) -> Schema:
        """The per-shard result schema of one scatter fragment — used to
        fabricate empty shard results without a node round-trip."""
        shard_query = plan.shard_query
        chain = operator_chain(shard_query)
        if not chain:
            return sharded.schema
        steps = estimate_chain(chain, shard_query, sharded.schema, 0,
                               PlanStats())
        return steps[-1].schema_out

    def _empty_shard_result(self, sharded, plan: ScatterPlan):
        """A zero-row stand-in for a fact shard whose build partition
        holds no rows: an inner join cannot match anything there, so no
        request is scattered (pool memory cannot even hold a zero-byte
        build table)."""
        schema = self._scatter_output_schema(sharded, plan)
        return _EmptyShardResult(schema,
                                 ExecutionReport(signature="empty-partition"))

    def _read_join_build(self, query: Query):
        """Gather + decode a shipped join's build side (timed reads)."""
        return self._read_build_rows(query.join.build_table)

    def _read_build_rows(self, build):
        """Scatter-gathered raw read + decode of a build-side table."""
        if not isinstance(build, ShardedTable):
            raise QueryError(
                "cluster joins need the build table registered in the "
                "cluster catalog (create it with create_table)")
        data, _ = self.table_read(build)
        return build.schema.from_bytes(data), len(data)

    # -- versioned write path (two-phase epoch broadcast) --------------------
    def create_versioned_table(self, name: str, schema: Schema,
                               rows: np.ndarray,
                               partition: PartitionSpec | None = None
                               ) -> VersionedShardedTable:
        """Chunk-partition ``rows`` into per-node version chains.

        Only order-preserving ``chunk`` partitioning is supported (the
        global visible row order is shard-concatenation order, which is
        what keeps scatter-gather merges byte-identical to single-node
        execution); inserts append to the last shard for the same
        reason.
        """
        spec = partition if partition is not None else PartitionSpec()
        if not spec.order_preserving:
            raise QueryError(
                f"versioned cluster tables require 'chunk' partitioning, "
                f"got {spec.scheme!r}")
        if len(rows) == 0:
            raise QueryError(
                f"cannot shard empty versioned table {name!r}")
        if name in self.catalog:
            from ..common.errors import CatalogError
            raise CatalogError(f"table {name!r} already registered")
        indices = partition_indices(rows, schema, spec,
                                    self.cluster.num_nodes)
        shards: list[VersionedShard] = []
        try:
            for node_index, idx in enumerate(indices):
                if len(idx) == 0:
                    continue
                vt = self._clients[node_index].create_versioned_table(
                    f"{name}@{node_index}", schema, rows[idx])
                shards.append(VersionedShard(node_index, vt))
            sharded = VersionedShardedTable(name, schema, spec, shards)
            self.catalog.register(sharded)
        except Exception:
            for shard in shards:
                self._clients[shard.node_index].drop_table(shard.table)
            raise
        return sharded

    def snapshot(self, sharded: VersionedShardedTable) -> int:
        """The cluster-wide committed epoch (every shard agrees on it)."""
        sharded.check_epochs()
        return sharded.epoch

    def _commit_all(self, sharded: VersionedShardedTable,
                    prepared_by_shard: list) -> int:
        """Phase 2 of the epoch broadcast: commit every shard's prepared
        batch (no-op bumps included) and advance the cluster epoch.

        Contains no simulation yields, so between phase 1 and this call
        every reader still snapshots the old epoch on *all* shards, and
        after it every reader sees the new epoch on all shards — there
        is no interleaving in which a scatter-gather scan observes a
        half-committed write.
        """
        for shard, prepared in zip(sharded.shards, prepared_by_shard):
            kind, segment, num_rows, visible_change = prepared
            shard.table.commit_delta(kind, segment, num_rows,
                                     visible_change)
        sharded.epoch += 1
        sharded.check_epochs()
        return sharded.epoch

    def insert_proc(self, sharded: VersionedShardedTable, rows: np.ndarray):
        """Process: append ``rows`` cluster-wide (tail shard), two-phase."""
        rows = np.asarray(rows, dtype=sharded.schema.dtype)
        last = sharded.last_shard
        prepared = yield from self._clients[last.node_index] \
            ._prepare_insert_proc(last.table, rows)
        by_shard = [prepared if shard is last else ("insert", None, 0, 0)
                    for shard in sharded.shards]
        epoch = self._commit_all(sharded, by_shard)
        yield from self._views_after_commit_proc()
        return epoch

    @staticmethod
    def _guarded_proc(gen):
        """Process: run ``gen``, capturing any Farview error as a value.

        The two-phase writes scatter their prepares under this wrapper
        so one crashed shard cannot fail the whole AllOf before the
        other prepares report — phase 2 then aborts cleanly
        (:meth:`_commit_or_abort`) instead of leaving some shards
        prepared and others not.
        """
        try:
            value = yield from gen
        except FarviewError as exc:
            return ("err", exc)
        return ("ok", value)

    def _commit_or_abort(self, sharded: VersionedShardedTable,
                         outcomes: list) -> int:
        """Phase 2 of the epoch broadcast: commit everywhere, or abort.

        On any failed prepare the abort frees the prepared delta
        segments of the shards that *did* succeed (best effort — a dead
        node has nothing left to free), verifies no shard epoch moved,
        and re-raises the first failure.  A crash mid-write therefore
        never splits cluster epochs: either every shard commits in the
        atomic phase 2, or none does.
        """
        failures = [value for tag, value in outcomes if tag == "err"]
        if not failures:
            return self._commit_all(sharded,
                                    [value for _tag, value in outcomes])
        for (tag, value), shard in zip(outcomes, sharded.shards):
            if tag != "ok":
                continue
            _kind, segment, _num_rows, _visible = value
            if segment is None:
                continue
            client = self._clients[shard.node_index]
            try:
                client.node.free_table_mem(client.connection, segment)
            except FarviewError:
                pass
        sharded.check_epochs()
        raise failures[0]

    def update_where_proc(self, sharded: VersionedShardedTable,
                          predicate: Predicate | None, assignments: dict):
        """Process: scatter the offloaded read-modify-write, then commit
        every shard's epoch at once (two-phase broadcast)."""
        procs = [
            self.sim.process(
                self._guarded_proc(
                    self._clients[s.node_index]._prepare_update_proc(
                        s.table, predicate, assignments)),
                name=f"cluster.update[{s.table.name}]")
            for s in sharded.shards]
        outcomes = yield self.sim.all_of(procs)
        epoch = self._commit_or_abort(sharded, list(outcomes))
        yield from self._views_after_commit_proc()
        return epoch

    def delete_where_proc(self, sharded: VersionedShardedTable,
                          predicate: Predicate | None):
        """Process: scatter the offloaded delete, then commit all shards."""
        procs = [
            self.sim.process(
                self._guarded_proc(
                    self._clients[s.node_index]._prepare_delete_proc(
                        s.table, predicate)),
                name=f"cluster.delete[{s.table.name}]")
            for s in sharded.shards]
        outcomes = yield self.sim.all_of(procs)
        epoch = self._commit_or_abort(sharded, list(outcomes))
        yield from self._views_after_commit_proc()
        return epoch

    def compact_proc(self, sharded: VersionedShardedTable):
        """Process: fold every shard's delta chain (epoch unchanged)."""
        procs = [
            self.sim.process(
                self._clients[s.node_index].compact_proc(s.table),
                name=f"cluster.compact[{s.table.name}]")
            for s in sharded.shards
            if s.table.num_deltas > 0 and s.table.num_rows > 0]
        if procs:
            yield self.sim.all_of(procs)
        return sharded.epoch

    def scan_versioned_proc(self, sharded: VersionedShardedTable,
                            query: Query, as_of: int | None = None):
        """Process: scatter-gather snapshot scan.

        The cluster epoch is resolved once up front and every shard scan
        pins it locally (shard epochs always equal the cluster epoch),
        so the merged result is a consistent cluster-wide snapshot even
        with writers committing mid-scatter.
        """
        epoch = sharded.epoch if as_of is None else as_of
        plan = plan_scatter(query)
        start = self.sim.now
        shard_queries = {s.node_index: plan.shard_query
                         for s in sharded.shards}
        if query.join is not None:
            replicas = yield from self._ensure_join_replicas_proc(
                query.join.build_table)
            shard_queries = {
                idx: self._localize_join(plan.shard_query, replicas, idx)
                for idx in shard_queries}
        procs = [
            self.sim.process(
                self._clients[s.node_index].scan_versioned_proc(
                    s.table, shard_queries[s.node_index], epoch),
                name=f"cluster.vscan[{s.table.name}]")
            for s in sharded.shards]
        shard_results = yield self.sim.all_of(procs)
        return self._gather(sharded, query, plan, list(shard_results),
                            self.sim.now - start)

    def read_version_proc(self, sharded: VersionedShardedTable,
                          as_of: int | None = None):
        """Process: raw scatter reads + per-shard merges, shard order."""
        epoch = sharded.epoch if as_of is None else as_of
        procs = [
            self.sim.process(
                self._clients[s.node_index].read_version_proc(s.table,
                                                              epoch),
                name=f"cluster.vread[{s.table.name}]")
            for s in sharded.shards]
        parts = yield self.sim.all_of(procs)
        merged = np.concatenate([rows for rows, _ids, _n in parts])
        return merged

    # -- incremental view hooks (verbs in _ViewEngineMixin) --------------------
    def _view_chains(self, handle):
        if not isinstance(handle, VersionedShardedTable):
            raise QueryError(
                f"{getattr(handle, 'name', handle)!r} is not a versioned "
                f"table on this cluster")
        return [(self._clients[s.node_index], s.table)
                for s in handle.shards]

    def _view_static_read_proc(self, handle):
        data = yield from self.table_read_proc(handle)
        return handle.schema.from_bytes(data, copy=True), len(data)

    def _view_cpu(self) -> CpuCostModel:
        return self._clients[0]._cpu

    def _view_run(self, proc, name: str):
        return self._run_timed(proc, f"cluster.{name}")

    # -- versioned blocking conveniences --------------------------------------
    def insert(self, sharded: VersionedShardedTable, rows: np.ndarray):
        """Append rows cluster-wide; returns (new_epoch, elapsed_ns)."""
        return self._run_timed(self.insert_proc(sharded, rows),
                               "cluster.insert")

    def update_where(self, sharded: VersionedShardedTable,
                     predicate: Predicate | None, assignments: dict):
        """Cluster-wide UPDATE; returns (new_epoch, elapsed_ns)."""
        return self._run_timed(
            self.update_where_proc(sharded, predicate, assignments),
            "cluster.update_where")

    def delete_where(self, sharded: VersionedShardedTable,
                     predicate: Predicate | None):
        """Cluster-wide DELETE; returns (new_epoch, elapsed_ns)."""
        return self._run_timed(self.delete_where_proc(sharded, predicate),
                               "cluster.delete_where")

    def compact(self, sharded: VersionedShardedTable):
        """Compact every shard; returns (epoch, elapsed_ns)."""
        return self._run_timed(self.compact_proc(sharded),
                               "cluster.compact")

    def scan_versioned(self, sharded: VersionedShardedTable, query: Query,
                       as_of: int | None = None):
        """Scatter-gather snapshot scan; returns
        (ClusterQueryResult, elapsed_ns)."""
        return self._run_timed(
            self.scan_versioned_proc(sharded, query, as_of),
            "cluster.scan_versioned")

    def read_version(self, sharded: VersionedShardedTable,
                     as_of: int | None = None):
        """Cluster-wide visible byte image; returns (bytes, elapsed_ns)."""
        merged, elapsed = self._run_timed(
            self.read_version_proc(sharded, as_of), "cluster.read_version")
        return sharded.schema.to_bytes(merged), elapsed

    def _run_timed(self, proc, name: str):
        start = self.sim.now
        result = self.sim.run_process(proc, name)
        return result, self.sim.now - start

    # -- verbs as processes --------------------------------------------------
    def _shard_exec_proc(self, shard: TableShard, make_proc,
                         allow_degraded: bool):
        """Process: run one shard's request with failover + retries.

        Tries the primary, then each replica in fixed ring order
        (deterministic: which copy serves is a pure function of which
        nodes are up).  Within a candidate, typed fault errors retry
        under :attr:`retry_policy` with capped exponential backoff as
        long as the node stays usable; a completion past the policy
        deadline is discarded and counted as a timeout.  When every
        candidate is exhausted: raise the last fault error, or return
        :data:`_SHARD_LOST` when ``allow_degraded``.
        """
        policy = self.retry_policy
        last_exc: Exception | None = None
        for candidate in shard.candidates():
            if not self._node_usable(candidate.node_index,
                                     candidate.incarnation):
                last_exc = NodeFailedError(
                    f"node {candidate.node_index} is down or lost shard "
                    f"{candidate.table.name!r}")
                continue
            attempt = 0
            lock = self._conn_locks[candidate.node_index]
            while True:
                attempt += 1
                start = self.sim.now
                try:
                    yield from lock.acquire()
                    try:
                        result = yield from make_proc(candidate)
                    finally:
                        lock.release()
                except FaultError as exc:
                    last_exc = exc
                    if (policy is not None
                            and attempt < policy.max_attempts
                            and self._node_usable(candidate.node_index,
                                                  candidate.incarnation)):
                        yield self.sim.timeout(policy.backoff_ns(attempt))
                        continue
                    break  # fail over to the next candidate
                if (policy is not None and policy.deadline_ns is not None
                        and self.sim.now - start > policy.deadline_ns):
                    last_exc = RequestTimeoutError(
                        f"shard request {candidate.table.name!r} took "
                        f"{self.sim.now - start:.0f} ns (deadline "
                        f"{policy.deadline_ns:.0f} ns)")
                    if attempt < policy.max_attempts:
                        yield self.sim.timeout(policy.backoff_ns(attempt))
                        continue
                    break
                return result
        if allow_degraded:
            return _SHARD_LOST
        if last_exc is None:
            last_exc = NodeFailedError(
                f"shard {shard.table.name!r} has no live candidates")
        raise last_exc

    def table_read_proc(self, sharded: ShardedTable):
        """Process: scatter raw reads, gather bytes in shard order.

        Under ``chunk`` partitioning the concatenation is the original
        table image; other schemes return shard-order bytes.  A shard
        whose primary is down reads from a replica (byte-identical by
        construction), so the gathered image never changes under
        failover.
        """
        procs = [
            self.sim.process(
                self._shard_exec_proc(
                    s,
                    lambda candidate: self._clients[candidate.node_index]
                    .table_read_proc(candidate.table),
                    False),
                name=f"cluster.read[{s.table.name}]")
            for s in sharded.shards]
        chunks = yield self.sim.all_of(procs)
        return b"".join(chunks)

    def far_view_proc(self, sharded: ShardedTable, query: Query,
                      join_strategy: str | None = None):
        """Process: scatter the shard fragment, gather + merge results.

        Queries with a join place the build side first under the
        resolved strategy (:meth:`_resolve_join_strategy`):
        ``broadcast`` caches one full replica per node, ``shuffle``
        repartitions the build node→node on the fact's splitmix64
        placement hash, ``colocated`` moves nothing (both sides already
        hash-partitioned on the join key).  Each shard request fails
        over across its replica candidates (:meth:`_shard_exec_proc`);
        the join fragment is localized per candidate node lazily, so a
        failover probes against the surviving node's build copy.  Fact
        shards facing an empty build partition are answered client-side
        (inner join: nothing can match), and range-partitioned tables
        skip shards the predicate statically excludes
        (:func:`~repro.core.cluster.prune_scatter_shards`).
        """
        if isinstance(sharded, VersionedShardedTable):
            if join_strategy not in (None, "broadcast"):
                raise QueryError(
                    "versioned cluster scans broadcast their build side; "
                    f"join_strategy={join_strategy!r} is not available")
            result = yield from self.scan_versioned_proc(sharded, query)
            return result
        strategy = self._resolve_join_strategy(sharded, query, join_strategy)
        plan = plan_scatter(query, sharded, join_strategy=strategy)
        start = self.sim.now
        build = query.join.build_table if query.join is not None else None
        replicas = None
        fragments = None
        if strategy == "broadcast":
            replicas = yield from self._ensure_join_replicas_proc(build)
        elif strategy == "shuffle":
            fragments = yield from self._ensure_shuffle_fragments_proc(
                build, sharded, query.join.build_key)
        empty_parts: frozenset[int] = frozenset()
        if strategy == "colocated":
            present = {b.node_index for b in build.shards}
            empty_parts = frozenset(p for p in range(sharded.num_partitions)
                                    if p not in present)
        elif strategy == "shuffle":
            empty_parts = self._shuffle_empty.get(
                f"{build.name}->{sharded.name}", frozenset())

        def make_for(shard):
            partition = shard.node_index

            def make(candidate):
                if strategy == "broadcast":
                    q = self._localize_join(plan.shard_query, replicas,
                                            candidate.node_index)
                elif strategy == "colocated":
                    q = self._localize_colocated(plan.shard_query, build,
                                                 partition,
                                                 candidate.node_index)
                elif strategy == "shuffle":
                    q = self._localize_shuffle(plan.shard_query, fragments,
                                               partition,
                                               candidate.node_index)
                else:
                    q = plan.shard_query
                return self._clients[candidate.node_index].far_view_proc(
                    candidate.table, q)

            return make

        pruned = set(plan.pruned_nodes)
        slots: list = []
        procs: list = []
        for s in sharded.shards:
            if s.node_index in pruned:
                continue
            if s.node_index in empty_parts:
                slots.append(self._empty_shard_result(sharded, plan))
                continue
            procs.append(self.sim.process(
                self._shard_exec_proc(s, make_for(s), self.allow_degraded),
                name=f"cluster.farview[{s.table.name}]"))
            slots.append(None)
        if procs:
            live = iter((yield self.sim.all_of(procs)))
            shard_results = [next(live) if slot is None else slot
                             for slot in slots]
        else:
            shard_results = slots
        return self._gather(sharded, query, plan, shard_results,
                            self.sim.now - start)

    def _gather(self, sharded: ShardedTable, query: Query,
                plan: ScatterPlan, shard_results: list,
                elapsed_ns: float) -> ClusterQueryResult:
        """Client-side merge step of the scatter-gather execution.

        Shard slots holding :data:`_SHARD_LOST` (every replica gone,
        degraded mode) are excluded from the merge; the partial result
        then travels on a :class:`DegradedResultError` so a caller can
        never mistake it for a complete answer.
        """
        lost = tuple(i for i, r in enumerate(shard_results)
                     if r is _SHARD_LOST)
        survivors = [r for r in shard_results if r is not _SHARD_LOST]
        if not survivors:
            raise NodeFailedError(
                f"every shard of {sharded.name!r} is unavailable")
        parts = [r.rows() for r in survivors]
        stacked = np.concatenate(parts)
        joined = query.post_join_schema(sharded.schema)
        if plan.mode == "group":
            assert query.group_by is not None
            merged = merge_group_rows(stacked, survivors[0].schema,
                                      joined, list(query.group_by),
                                      plan.shard_specs, plan.partial_plans)
            schema = group_output_schema(
                joined, list(query.group_by),
                [p.spec for p in plan.partial_plans])
        elif plan.mode == "aggregate":
            merged = merge_aggregate_rows(stacked, joined, plan.shard_specs,
                                          plan.partial_plans)
            schema = aggregate_output_schema(
                joined, [p.spec for p in plan.partial_plans])
        elif plan.mode == "distinct":
            schema = survivors[0].schema
            merged = merge_distinct_rows(stacked, schema,
                                         query.distinct_columns)
        else:
            schema = survivors[0].schema
            merged = stacked
        result = ClusterQueryResult(schema=schema, shard_results=survivors,
                                    response_time_ns=elapsed_ns,
                                    merged=merged,
                                    join_strategy=plan.join_strategy)
        if lost:
            raise DegradedResultError(
                f"{len(lost)} of {len(shard_results)} shards of "
                f"{sharded.name!r} unavailable", partial=result,
                failed_shards=lost)
        return result

    # -- blocking conveniences -----------------------------------------------
    def table_read(self, sharded: ShardedTable):
        """Scatter raw reads; returns (bytes, elapsed_ns)."""
        start = self.sim.now
        data = self.sim.run_process(self.table_read_proc(sharded),
                                    "cluster.table_read")
        return data, self.sim.now - start

    def far_view(self, sharded: ShardedTable, query: Query,
                 join_strategy: str | None = None):
        """Scatter-gather offloaded query; returns
        (ClusterQueryResult, elapsed_ns).

        ``join_strategy`` pins a join's build placement (one of
        :data:`~repro.core.cluster.JOIN_STRATEGIES`); ``None`` lets the
        cost model choose.
        """
        start = self.sim.now
        result = self.sim.run_process(
            self.far_view_proc(sharded, query, join_strategy=join_strategy),
            "cluster.far_view")
        return result, self.sim.now - start

    # -- cost-based placement (offload vs ship-to-compute) -------------------
    def plan(self, sharded: ShardedTable, query: Query,
             placement: str = "auto", stats: PlanStats | None = None,
             lease_manager=None,
             refuse_join_offload: bool = False,
             join_strategy: str | None = None) -> PlacementPlan:
        """Plan ``query`` over the pool: offload, ship, or hybrid.

        Estimates use pool-level cardinalities with per-shard streaming
        parallelism; the region-residency check samples the first
        shard's region (shards are deployed symmetrically).  An optional
        ``lease_manager`` folds per-shard lease contention into the
        offload side.  Join queries fold the resolved scatter strategy
        in: partitioned strategies size the per-node build at ``1/N``,
        an uncached shuffle charges its wire movement against the
        offload side, and the chosen strategy lands on the
        :class:`~repro.core.planner.ExplainPlan` (``ship`` when the
        join stays client-side).
        """
        first = sharded.shards[0]
        strategy = None
        join_transfer_ns = 0.0
        join_build_shards = 1
        if query.join is not None and not isinstance(
                sharded, VersionedShardedTable):
            strategy = self._resolve_join_strategy(sharded, query,
                                                   join_strategy)
            if strategy in ("colocated", "shuffle"):
                join_build_shards = sharded.num_partitions
            if strategy == "shuffle":
                build = query.join.build_table
                if f"{build.name}->{sharded.name}" \
                        not in self._shuffle_fragments:
                    model = PlacementCostModel(
                        self.cluster.config,
                        self._clients[first.node_index]._cpu)
                    join_transfer_ns = model.join_movement_ns(
                        "shuffle", build.size_bytes, sharded.num_partitions,
                        copies=min(sharded.partition.replicas,
                                   self.num_nodes))
        return plan_placement(
            query, first.table, self.cluster.nodes[0].config,
            placement=placement, stats=stats,
            cpu=self._clients[first.node_index]._cpu,
            loaded_signature=(self._clients[first.node_index]
                              .connection.region.loaded_pipeline),
            lease_manager=lease_manager,
            shards=len(sharded.shards), total_rows=sharded.num_rows,
            buffer_capacity=(self._clients[first.node_index]
                             ._buffer_capacity),
            refuse_join_offload=refuse_join_offload,
            join_strategy=strategy, join_transfer_ns=join_transfer_ns,
            join_build_shards=join_build_shards)

    def far_view_planned(self, sharded: ShardedTable, query: Query,
                         placement: str = "auto",
                         stats: PlanStats | None = None,
                         lease_manager=None,
                         join_strategy: str | None = None):
        """Scatter-gather execution under cost-based placement.

        Full offload is the legacy :meth:`far_view` path (byte- and
        timing-identical).  Ship/hybrid gathers the raw or partially
        reduced shard streams and runs the remainder in client software;
        merged-row order matches single-node execution under
        order-preserving ``chunk`` partitioning (the same contract as
        :meth:`table_read`).  Returns ``(result, elapsed_ns)``.
        """
        if isinstance(sharded, VersionedShardedTable):
            if placement not in ("offload", "auto"):
                raise QueryError(
                    "versioned cluster scans run offloaded only (per-"
                    "shard ship/hybrid placement is a single-node "
                    "feature); use placement='offload'")
            return self.far_view(sharded, query)
        try:
            return self._far_view_planned_once(sharded, query, placement,
                                               stats, lease_manager,
                                               join_strategy=join_strategy)
        except JoinBuildOverflowError:
            # Same fallback as the single-node client: a build load that
            # overflowed below nominal capacity reroutes to the client.
            if placement != "auto" or query.join is None:
                raise
            return self._far_view_planned_once(sharded, query, placement,
                                               stats, lease_manager,
                                               refuse_join_offload=True,
                                               join_strategy=join_strategy)
        except RegionFailedError:
            # A shard's dynamic region died; under auto, degrade to the
            # ship path — scatter raw reads need no regions.
            if placement != "auto":
                raise
            return self._far_view_planned_once(sharded, query, "ship",
                                               stats, lease_manager,
                                               join_strategy=join_strategy)

    def _far_view_planned_once(self, sharded: ShardedTable, query: Query,
                               placement: str, stats, lease_manager,
                               refuse_join_offload: bool = False,
                               join_strategy: str | None = None):
        plan = self.plan(sharded, query, placement, stats, lease_manager,
                         refuse_join_offload=refuse_join_offload,
                         join_strategy=join_strategy)
        cpu = self._clients[sharded.shards[0].node_index]._cpu
        if plan.full_offload:
            strat = (plan.explain.join_strategy
                     if plan.explain.join_strategy in JOIN_STRATEGIES
                     else None)
            result, elapsed = self.far_view(sharded, query,
                                            join_strategy=strat)
            plan.explain.actual_ns = elapsed
            result.explain = plan.explain
            return result, elapsed
        # decrypt_keys=None: the cluster layer does not shard encrypted
        # tables, so a client-side decrypt step fails loudly if reached.
        return _execute_planned(
            self.sim, plan, query, cpu,
            read_raw=lambda: self.table_read(sharded)[0],
            run_fragment=lambda fragment: self.far_view(sharded,
                                                        fragment)[0],
            schema=sharded.schema, decrypt_keys=None,
            read_build=lambda: self._read_join_build(query))

    # -- paper-style higher-level helpers ------------------------------------
    def select(self, sharded: ShardedTable, columns: list[str] | None,
               predicate: Predicate, vectorized: bool = False,
               placement: str = "offload",
               stats: PlanStats | None = None):
        """``SELECT columns FROM sharded WHERE predicate``, pool-wide.

        ``placement`` routes through the cost-based planner exactly as
        on the single-node client.
        """
        query = Query(projection=tuple(columns) if columns else None,
                      predicate=predicate, vectorized=vectorized,
                      label="select")
        if placement == "offload":
            return self.far_view(sharded, query)
        return self.far_view_planned(sharded, query, placement, stats)

    def select_distinct(self, sharded: ShardedTable, columns: list[str]):
        query = Query(projection=tuple(columns), distinct=True,
                      label="distinct")
        return self.far_view(sharded, query)

    def group_by(self, sharded: ShardedTable, keys: list[str],
                 aggregates: list[AggregateSpec]):
        query = Query(group_by=tuple(keys), aggregates=tuple(aggregates),
                      label="group_by")
        return self.far_view(sharded, query)

    def sql(self, statement: str, placement: str | None = None,
            stats: PlanStats | None = None):
        """Parse and scatter one SQL statement against the cluster catalog.

        The FROM table must have been created via :meth:`create_table`.
        Placement precedence matches the single-node client: argument,
        then ``/*+ placement(...) */`` hint, then full offload.  Write
        statements (INSERT / UPDATE / DELETE) commit through the
        two-phase epoch broadcast and return ``(new_epoch, elapsed_ns)``.
        Returns ``(result, elapsed_ns)``.
        """
        return _execute_sql(self, statement, placement, stats,
                            VersionedShardedTable)
