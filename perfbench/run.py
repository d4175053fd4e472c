#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload offload_scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the per-layer metrics: half the time untraced,
half with every layer's entry points wrapped (see ``tracing.py``); the
spans and a summary go to ``.perfbench/`` under the repository root.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any operation failed
its oracle check, raised a typed error or never completed, and 2 when the
engine's sources are not found next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from stats import percentile
from tracing import SRC_LAYERS, Tracer, layer_of, snapshot

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: At least this many set-ups are timed per run, so ``setup_s`` is a median.
MIN_SETUPS = 3

END_TO_END = {
    "host_ops_per_s": "op/s",
    "host_op_ms.p50": "ms",
    "host_op_ms.p90": "ms",
    "sim_latency_us.p50": "us",
    "sim_latency_us.p95": "us",
    "sim_scan_gbps": "GB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Phase:
    """What one measured phase saw: host times, operations, counters."""

    def __init__(self) -> None:
        self.busy_s = 0.0          # host seconds inside calls
        self.call_ms: list[float] = []
        self.dones: list = []      # every Done of the phase
        self.raised = 0            # operations lost to a raised call
        self.setup_s: list[float] = []
        self.first: list | None = None   # Dones of the first full episode
        self.sim: dict = {}        # simulated metrics of that episode
        self.result_digest = ""    # digest of that episode's results
        self.counters: Counter = Counter()

    @property
    def completed(self) -> int:
        return sum(1 for d in self.dones if d.ok)

    @property
    def failed(self) -> int:
        return self.raised + sum(1 for d in self.dones if not d.ok)


def run_phase(workload, expected, seconds: float, tracer=None) -> Phase:
    """Run whole episodes until ``seconds`` of host time were spent in
    calls.  Episodes are never cut, so every run measures the same mix
    of calls, and the simulated metrics come from the first episode.
    """
    from repro.common.errors import FarviewError

    phase = Phase()
    while phase.busy_s < seconds:
        t0 = time.process_time()
        episode = workload.setup(expected)
        phase.setup_s.append(time.process_time() - t0)
        before = snapshot(episode)
        dones, sim_ns = [], 0.0
        for op_index, call in enumerate(episode.calls):
            sim0 = sum(sim.now for sim in episode.sims)
            t0 = time.process_time()
            raised = False
            try:
                if tracer is None:
                    out = call.run()
                else:
                    with tracer.op(op_index):
                        out = call.run()
            except FarviewError:    # typed engine error: the ops failed
                raised = True
            elapsed = time.process_time() - t0
            phase.busy_s += elapsed
            if call.timed:
                phase.call_ms.append(elapsed * 1e3)
            sim_ns += sum(sim.now for sim in episode.sims) - sim0
            if raised:
                phase.raised += call.ops
            else:
                dones.extend(call.check(out))
        phase.dones.extend(dones)
        after = snapshot(episode)
        for key in after:
            if key == "max_queue_depth":
                phase.counters[key] = max(phase.counters[key], after[key])
            else:
                phase.counters[key] += after[key] - before[key]
        if phase.first is None:
            phase.first = dones
            phase.sim = sim_metrics(workload, dones, sim_ns, episode)
            phase.result_digest = hashlib.sha256(
                "".join(d.digest for d in dones).encode()).hexdigest()
        del episode
        gc.collect()     # free the pool now, so peak RSS is one pool's
    while len(phase.setup_s) < MIN_SETUPS:
        t0 = time.process_time()
        workload.setup(expected)
        phase.setup_s.append(time.process_time() - t0)
    return phase


def sim_metrics(workload, dones: list, sim_ns: float, episode) -> dict:
    """Simulated metrics of one complete episode (host-independent)."""
    main_kind = getattr(workload, "latency_kind", "query")
    latencies = [d.sim_ns for d in dones if d.kind == main_kind]
    out = {
        "sim_latency_us.p50": percentile(latencies, 50) / 1e3,
        "sim_latency_us.p95": percentile(latencies, 95) / 1e3,
        "sim_scan_gbps": sum(d.scanned for d in dones) / sim_ns,
    }
    if hasattr(workload, "extra_metrics"):
        out.update(workload.extra_metrics(dones, episode))
    return out


def end_to_end(workload, phase: Phase) -> dict:
    values = {
        "host_ops_per_s": phase.completed / phase.busy_s,
        "host_op_ms.p50": percentile(phase.call_ms, 50),
        "host_op_ms.p90": percentile(phase.call_ms, 90),
        "setup_s": percentile(phase.setup_s, 50),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    values.update(phase.sim)
    return values


def per_layer(plain: Phase, traced: Phase, tracer) -> dict:
    """Per-layer metrics of the traced phase (see README.md for the map)."""
    ops = max(1, traced.completed)
    kinds = Counter(d.kind.split(".")[0] for d in traced.dones)
    stmts = kinds["statement"]
    s, c = tracer.self_s, traced.counters
    c.update(tracer.counts)

    def ms_per(layer: str, n: int) -> float:
        return s[layer] * 1e3 / n if n else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "sim.self_ms_per_op": ms_per("sim", ops),
        "sim.events_per_op": c["events"] / ops,
        "sim.host_us_per_event": ratio(s["sim"] * 1e6, c["events"]),
        "network.self_ms_per_op": ms_per("network", ops),
        "network.bytes_to_client_per_op": c["bytes_to_client"] / ops,
        "network.packets_per_op": c["packets"] / ops,
        "memory.self_ms_per_op": ms_per("memory", ops),
        "memory.bytes_read_per_op": c["mem_read"] / ops,
        "memory.write_amp": ratio(c["mem_written"],
                                  sum(d.written for d in traced.dones)),
        "memory.tlb_hit_ratio": ratio(c["tlb_hits"],
                                      c["tlb_hits"] + c["tlb_misses"]),
        "fpga.reconfigs_per_op": c["reconfigs"] / ops,
        "fpga.pipeline_reuse_ratio": ratio(
            c["region_execs"] - c["reconfigured_execs"], c["region_execs"]),
    }
    for kind in ("selection", "projection", "distinct", "groupby", "regex",
                 "crypto", "join"):
        metrics[f"operators.{kind}.self_ms_per_op"] = \
            ms_per(f"operators.{kind}", ops)
    metrics.update({
        "operators.rows_in_per_op": c["rows_in"] / ops,
        "operators.selectivity": ratio(c["rows_out"], c["rows_in"]),
        "operators.lru_hit_ratio": ratio(c["lru_hits"],
                                         c["lru_hits"] + c["lru_misses"]),
        "operators.cuckoo_kicks_per_op": c["cuckoo_kicks"] / ops,
        "operators.join.build_rows_per_op": c["join_build_rows"] / ops,
        "core.compile.self_ms_per_stmt": ms_per("core.compile", stmts),
        "core.planner.self_ms_per_stmt": ms_per("core.planner", stmts),
        "core.planner.qerror.p50": percentile(tracer.qerrors, 50),
        "core.planner.qerror.p95": percentile(tracer.qerrors, 95),
        "baselines.sw_ops.self_ms_per_op": ms_per("baselines.sw_ops", ops),
        "baselines.sw_ops.rows_per_op": c["sw_rows"] / ops,
        "core.cluster.self_ms_per_op": ms_per("core.cluster", ops),
        "core.cluster.replica_bytes_per_op": c["replica_bytes"] / ops,
        "core.cluster.shards_per_query": ratio(
            c["node_scans"],
            kinds["query"] + kinds["statement"] + kinds["request"]),
        "core.versioning.self_ms_per_op": ms_per("core.versioning", ops),
        "core.versioning.deltas_per_scan": ratio(c["deltas_scanned"],
                                                 c["versioned_scans"]),
        "core.versioning.compaction_bytes": ratio(c["compaction_bytes"],
                                                  c["compactions"]),
        "core.views.self_ms_per_commit": ms_per("core.views",
                                                kinds["commit"]),
        "core.views.rows_pushed_per_commit": ratio(c["rows_pushed"],
                                                   kinds["commit"]),
        "core.serving.self_ms_per_request": ms_per("core.serving",
                                                   kinds["request"]),
        "core.serving.coalesce_ratio": ratio(c["coalesced"], c["requests"]),
        "core.serving.executions_per_request": ratio(c["executions"],
                                                     c["requests"]),
        "core.serving.max_queue_depth": c["max_queue_depth"],
        "core.node.self_ms_per_op": ms_per("core.node", ops),
        "core.client.self_ms_per_op": ms_per("core.client", ops),
        "trace.overhead_frac": ratio(plain.completed / plain.busy_s,
                                     traced.completed / traced.busy_s) - 1,
    })
    return metrics


PER_LAYER_UNITS = {
    "self_ms_per_op": "ms", "self_ms_per_stmt": "ms",
    "self_ms_per_commit": "ms", "self_ms_per_request": "ms",
    "host_us_per_event": "us", "bytes_to_client_per_op": "B",
    "bytes_read_per_op": "B", "replica_bytes_per_op": "B",
    "compaction_bytes": "B",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    tail = name.rsplit(".", 1)[-1]
    if tail in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[tail]
    if "ratio" in tail or tail in ("selectivity", "write_amp",
                                   "overhead_frac", "p50", "p95"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    expected = workload.oracle()
    gc.collect()

    if args.trace:
        plain = run_phase(workload, expected, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, expected, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(plain, traced, tracer)
        phases = (plain, traced)
        layer_s = Counter()
        for name, seconds in tracer.self_s.items():
            layer_s[layer_of(name)] += seconds
        summary = {"workload": args.workload, "seed": args.seed,
                   "self_s": dict(layer_s), "span_self_s": dict(tracer.self_s),
                   "src_layers": list(SRC_LAYERS), "spans": len(tracer.start)}
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl",
                     summary)
        (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({**summary, "metrics": metrics}, indent=1))
    else:
        phase = run_phase(workload, expected, args.seconds)
        phases = (phase,)
        values = end_to_end(workload, phase)
        metrics = {name: values[name] for name in END_TO_END}
        extras = {k: v for k, v in values.items() if k not in END_TO_END}
        for name, value in extras.items():
            print(f"{name} {value!r} {workload.extra_units[name]}")
        print(f"result_digest {phase.result_digest} sha256")

    attempted = sum(len(p.dones) + p.raised for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"failed_frac {failed / max(1, attempted)!r} ratio")
    for name, value in metrics.items():
        print(f"{name} {value!r} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
