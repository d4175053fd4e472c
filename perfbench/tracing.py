"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of each layer of the engine
from the outside: the engine's own code is not touched, and nothing is
wrapped until :meth:`Tracer.install` runs, so the untraced run executes
the unmodified program.  A wrapped call records one span (name, start,
end, parent, op id) in memory.  A wrapped generator function -- a
simulator process -- records one span per resumption, because its code
only runs between the event loop's resumptions of it.  A span's self
time is its duration minus the time of the spans it encloses; the self
time of all spans of one name is the host time of that layer.

Host-side counters are read where the work happens: the wrappers note
arguments and results of a few entry points (bytes delivered to a client
buffer, execution reports, join build rows), and :func:`snapshot` reads
the public counters the engine keeps (``Simulator.events_processed``,
``Mmu.bytes_read`` ...).  Tracing adds no simulator events and changes
no simulated time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: Layer name -> {module: [qualified names of public entry points]}.
#: Operators are found by class (see ``_operator_entry_points``), and the
#: client verbs by scanning the client classes.
ENTRY_POINTS: dict[str, dict[str, list[str]]] = {
    "sim": {"repro.sim.engine": ["Simulator.run"]},
    "network": {
        "repro.network.qp": ["ClientBuffer.deposit", "ClientBuffer.read",
                             "ClientBuffer.reset"],
        "repro.network.rdma": ["ResponseStreamer.send",
                               "ResponseStreamer.finish"],
        "repro.network.link": ["Link.send_up", "Link.send_down"],
    },
    "memory": {"repro.memory.mmu": ["Mmu.peek", "Mmu.poke", "Mmu.read",
                                    "Mmu.write", "Mmu.alloc", "Mmu.free"]},
    "fpga": {"repro.fpga.region": ["DynamicRegion.load_pipeline",
                                   "RegionManager.acquire",
                                   "RegionManager.release"]},
    "core.compile": {"repro.core.compile": ["parse_sql", "bind_select",
                                            "lower_select"]},
    "core.planner": {"repro.core.planner": ["plan_placement"]},
    "baselines.sw_ops": {"repro.baselines.sw_ops": [
        "software_select", "software_project", "software_distinct",
        "software_groupby", "software_aggregate", "software_join",
        "software_sort", "software_limit", "software_regex",
        "software_decrypt"]},
    "core.cluster": {
        "repro.core.cluster": ["plan_scatter", "prune_scatter_shards",
                               "merge_distinct_rows", "merge_group_rows",
                               "merge_aggregate_rows"],
        "repro.core.partition": ["partition_indices"],
    },
    "core.versioning": {
        "repro.core.versioning": ["VersionView.materialize",
                                  "VersionedTable.commit_delta",
                                  "VersionedTable.retire_for_compaction"],
        # The node side of the versioned data path: delta-merge ingest,
        # update/delete delta builds and compaction.
        "repro.core.node": ["FarviewNode.serve_farview_versioned",
                            "FarviewNode.serve_update_delta",
                            "FarviewNode.serve_delete_delta",
                            "FarviewNode.serve_compact"],
    },
    "core.views": {"repro.core.views": [
        "FilterStage.apply", "RegexStage.apply", "ProjectStage.apply",
        "EvalStage.apply", "DistinctStage.apply", "GroupStage.apply",
        "JoinStage.apply", "Circuit.step", "ChainTracker.apply_batch",
        "ViewCatalog.apply_refresh", "Subscription.push",
        "compile_circuit"]},
    "core.serving": {
        "repro.core.serving": ["FrontDoor.submit_proc"],
        "repro.core.elasticity": ["RegionLeaseManager.acquire",
                                  "RegionLeaseManager.release",
                                  "RegionLeaseManager.with_lease"],
    },
    "core.node": {"repro.core.node": [
        "FarviewNode.serve_write", "FarviewNode.serve_read",
        "FarviewNode.serve_farview", "FarviewNode.alloc_table_mem",
        "FarviewNode.free_table_mem", "FarviewNode.open_connection",
        "FarviewNode.close_connection"]},
}

#: Classes whose public methods are the client layer (``core.client``).
CLIENT_CLASSES = ("FarviewClient", "ClusterClient", "_ViewEngineMixin")

#: Operator module -> the operator kind its self time is booked to.
OPERATOR_KINDS = {
    "selection": "selection", "projection": "projection",
    "packing": "projection", "distinct": "distinct", "groupby": "groupby",
    "aggregate": "groupby", "regex_op": "regex", "encryption_op": "crypto",
    "join": "join", "sending": "pipeline", "base": "pipeline",
}

#: The layers under ``src/`` (everything but the benchmark's own spans).
SRC_LAYERS = ("sim", "network", "memory", "fpga", "operators",
              "core.compile", "core.planner", "baselines.sw_ops",
              "core.cluster", "core.versioning", "core.views",
              "core.serving", "core.node", "core.client")


def layer_of(span_name: str) -> str:
    """``operators.regex`` -> ``operators``; other span names are layers."""
    return "operators" if span_name.startswith("operators.") else span_name


class Tracer:
    """In-memory span recorder plus the counters its hooks collect."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.op_index = 0
        self.on = False
        self._stack: list[list] = []     # [span index, start, child seconds]
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.qerrors: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------
    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        index = len(self.start)
        now = time.perf_counter()
        self.start.append(now)
        self.end.append(0.0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_id.append(self.op_index)
        self._stack.append([index, now, 0.0])

    def close(self) -> None:
        now = time.perf_counter()
        index, start, child = self._stack.pop()
        self.end[index] = now
        duration = now - start
        self.self_s[self.names[self.name_id[index]]] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def op(self, index: int):
        """Trace one call into the system as operation ``index``.

        Wrapped entry points record only inside this context, so set-up
        and the oracle checks between calls stay out of the layer times.
        """
        self.op_index, self.on = index, True
        self.open(self.name_index("bench"))
        try:
            yield
        finally:
            self.close()
            self.on = False

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, owner, attr: str, name, hook=None) -> None:
        """Replace ``owner.attr`` by a traced version.

        ``name`` is a span name, or a function of the call's first
        argument that returns one (operators book by their class).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod, property)):
            return
        tracer = self
        fixed = None if callable(name) else self.name_index(name)

        def nid_for(args):
            return fixed if fixed is not None else \
                tracer.name_index(name(args[0]))

        if inspect.isgeneratorfunction(original):
            def wrapper(*args, **kwargs):
                return tracer._traced_gen(original(*args, **kwargs),
                                          nid_for(args), hook, args)
        else:
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return original(*args, **kwargs)
                tracer.open(nid_for(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
                if hook is not None:
                    hook(tracer, args, result)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _traced_gen(self, gen, nid: int, hook, args):
        """Drive ``gen`` for the event loop, one span per resumption."""
        value, error = None, None
        while True:
            traced = self.on
            if traced:
                self.open(nid)
            try:
                target = gen.send(value) if error is None \
                    else gen.throw(error)
            except StopIteration as stop:
                if traced:
                    self.close()
                    if hook is not None:
                        hook(self, args, stop.value)
                return stop.value
            except BaseException:
                if traced:
                    self.close()
                raise
            if traced:
                self.close()
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:   # re-raised inside ``gen``
                value, error = None, exc

    def _wrap_function(self, module: str, fname: str, layer: str,
                       hook=None) -> None:
        """Wrap a module-level function in every module that imported it."""
        original = getattr(sys.modules[module], fname)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, fname, None) is original:
                self._wrap(mod, fname, layer, hook)

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        _import_engine()
        for layer, modules in ENTRY_POINTS.items():
            for module, names in modules.items():
                for qualname in names:
                    hook = HOOKS.get(qualname)
                    if "." in qualname:
                        cls_name, attr = qualname.split(".")
                        cls = getattr(sys.modules[module], cls_name)
                        self._wrap(cls, attr, layer, hook)
                    else:
                        self._wrap_function(module, qualname, layer, hook)
        api = sys.modules["repro.core.api"]
        for cls_name in CLIENT_CLASSES:
            cls = getattr(api, cls_name)
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    self._wrap(cls, attr, "core.client",
                               HOOKS.get(f"{cls_name}.{attr}"))
        for cls, attr in _operator_entry_points():
            self._wrap(cls, attr, _operator_span,
                       HOOKS.get(f"{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------
    def write(self, path: Path, summary: dict) -> None:
        """Write the spans as JSON lines after a one-line summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(summary) + "\n")
            for i in range(len(self.start)):
                out.write(json.dumps([self.names[self.name_id[i]],
                                      self.start[i], self.end[i],
                                      self.parent[i], self.op_id[i]]) + "\n")


def _import_engine() -> None:
    """Import every engine module, so a wrapped function is replaced in
    every module that imported it by name."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith(("repro.experiments", "repro.cli",
                                     "repro.__main__")):
            importlib.import_module(info.name)


def _operator_span(op) -> str:
    module = type(op).__module__.rsplit(".", 1)[-1]
    return "operators." + OPERATOR_KINDS.get(module, module)


def _operator_entry_points():
    """(class, method) for each operator method that moves data."""
    from repro.operators.base import ByteOperator, OperatorPipeline, RowOperator
    seen, todo = [], [RowOperator, ByteOperator]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    points = [(OperatorPipeline, "process_chunk"), (OperatorPipeline, "flush")]
    for cls in seen:
        for attr in ("process", "flush", "finish", "load_build"):
            if attr in vars(cls):
                points.append((cls, attr))
    return points


# -- hooks: counters noted where the work happens ---------------------------

def _report(tracer, _args, report) -> None:
    tracer.counts["region_execs"] += 1
    tracer.counts["reconfigured_execs"] += int(report.reconfigured)
    tracer.counts["rows_in"] += report.rows_in
    tracer.counts["rows_out"] += report.rows_out
    tracer.counts["node_scans"] += 1


def _versioned_report(tracer, args, report) -> None:
    _report(tracer, args, report)
    tracer.counts["versioned_scans"] += 1
    tracer.counts["deltas_scanned"] += len(args[2].deltas)


def _deposit(tracer, args, _result) -> None:
    tracer.counts["bytes_to_client"] += len(args[2])


def _stream_finished(tracer, args, _result) -> None:
    tracer.counts["packets"] += args[0].packets_sent


def _raw_read(tracer, _args, _result) -> None:
    tracer.counts["node_scans"] += 1


def _compacted(tracer, _args, result) -> None:
    new_base, _ids = result
    tracer.counts["compactions"] += 1
    tracer.counts["compaction_bytes"] += new_base.size_bytes


def _join_build(tracer, args, _result) -> None:
    tracer.counts["join_build_rows"] += len(args[1])


def _pipeline_flushed(tracer, args, _result) -> None:
    for op in args[0].row_ops:
        lru = getattr(op, "lru", None)
        if lru is not None:
            tracer.counts["lru_hits"] += lru.hits
            tracer.counts["lru_misses"] += lru.misses
        table = getattr(op, "table", None)
        tracer.counts["cuckoo_kicks"] += getattr(table, "kicks", 0)


def _sw_rows(tracer, args, _result) -> None:
    tracer.counts["sw_rows"] += len(args[0])


def _sql_result(tracer, _args, result) -> None:
    """Planner q-error: estimated vs actual time of each priced plan."""
    explain = getattr(result[0], "explain", None)
    plans = ([stage.explain for stage in explain.stages]
             if hasattr(explain, "stages") else [explain])
    for plan in plans:
        est = getattr(plan, "est_chosen_ns", None)
        act = getattr(plan, "actual_ns", None)
        if est and act:
            tracer.qerrors.append(max(est / act, act / est))


HOOKS = {
    "FarviewNode.serve_farview": _report,
    "FarviewNode.serve_farview_versioned": _versioned_report,
    "FarviewNode.serve_read": _raw_read,
    "FarviewNode.serve_compact": _compacted,
    "ClientBuffer.deposit": _deposit,
    "ResponseStreamer.finish": _stream_finished,
    "SmallTableJoinOperator.load_build": _join_build,
    "OperatorPipeline.flush": _pipeline_flushed,
    "ClusterClient.sql": _sql_result,
    **{f"software_{k}": _sw_rows for k in (
        "select", "project", "distinct", "groupby", "aggregate", "join",
        "sort", "limit", "regex")},
}


def snapshot(episode) -> Counter:
    """The engine's public counters for one episode's objects."""
    c: Counter = Counter()
    for sim in episode.sims:
        c["events"] += sim.events_processed
    for node in episode.nodes:
        c["mem_read"] += node.mmu.bytes_read
        c["mem_written"] += node.mmu.bytes_written
        c["tlb_hits"] += node.mmu.tlb.hits
        c["tlb_misses"] += node.mmu.tlb.misses
        c["reconfigs"] += sum(r.reconfigurations
                              for r in node.regions.regions)
    for client in episode.clients:
        c["replica_bytes"] += getattr(client, "replica_bytes_moved", 0)
    for sub in episode.extra.get("subscriptions", ()):
        c["rows_pushed"] += sub.rows_pushed
    for door, _track, _n in episode.extra.get("doors", {}).values():
        c["requests"] += door.requests
        c["coalesced"] += door.coalesced
        c["executions"] += door.executions
        c["max_queue_depth"] = max(c["max_queue_depth"],
                                   door.manager.max_queue_depth)
    return c
