"""FlexCL repository benchmark.

Runs one or more workloads and prints every metric by name with its
unit, each workload's failed/attempted operation counts, and, as the
last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog --seed 1
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --workload dse-sweep,serve-mixed --seconds 5

``--trace 0`` (default) reports the end-to-end metrics of an untraced
run.  ``--trace 1`` runs the measured phase with the span recorder
wrapping the program's entry points and reports the per-layer metrics;
the spans are written to
``.perfbench-out/spans-<workload>-seed<seed>.json.gz``.  With several
workloads the metric names are prefixed with ``<workload>/``.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import spans
from golden import Golden
from quantiles import median_and_tail

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "dse-sweep", "serve-mixed")

#: end-to-end metric -> unit.  Per-kernel and per-request medians and
#: tails and the median warm unit are printed but not reported: their
#: run-to-run spread on a shared 2-vCPU machine exceeded the largest
#: allowed bound (see README.md).
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "req_per_s": "1/s",
    "peak_rss_mb": "MB", "err_pct": "%",
}

#: per-layer metric -> unit; "_ms" figures are span self times summed
#: over the traced phase
PER_LAYER = {
    "frontend.compile_ms": "ms", "frontend.compile_calls": "count",
    "lint.summary_ms": "ms", "lint.summary_calls": "count",
    "interp.synth_ms": "ms", "interp.synth_calls": "count",
    "interp.vexec_ms": "ms", "interp.vexec_calls": "count",
    "interp.scalar_ms": "ms", "interp.scalar_calls": "count",
    "analysis.self_ms": "ms", "analysis.calls": "count",
    "analysis.memtrace_ms": "ms", "analysis.dfg_ms": "ms",
    "analysis.pack_ms": "ms",
    "model.pe_ms": "ms", "model.pe_calls": "count",
    "model.memory_ms": "ms", "model.memory_calls": "count",
    "model.compose_ms": "ms", "model.predict_calls": "count",
    "model.memo_hit_ratio": "ratio", "model.memo_lookups": "count",
    "dse.explore_self_ms": "ms", "dse.explore_calls": "count",
    "cache.put_ms": "ms", "cache.put_calls": "count",
    "cache.get_ms": "ms", "cache.get_calls": "count",
    "cache.hit_ratio.analysis": "ratio", "cache.hit_ratio.pe": "ratio",
    "cache.hit_ratio.memory": "ratio", "cache.hit_ratio.table1": "ratio",
    "cache.evictions": "count", "cache.store_mb": "MB",
    "serve.hot_hits": "count", "serve.evaluations": "count",
    "serve.coalesced": "count", "serve.rejected": "count",
    "serve.first_p50_ms": "ms", "serve.repeat_p50_ms": "ms",
    "trace.overhead_pct": "%", "trace.covered_pct": "%",
}

#: per-layer "<metric>" -> span names whose self times it sums
SPAN_TIMES = {
    "frontend.compile": ("frontend.compile",),
    "lint.summary": ("lint.summary",),
    "interp.synth": ("interp.synth",),
    "interp.vexec": ("interp.vexec",),
    "interp.scalar": ("interp.scalar",),
    "analysis.self": ("analysis.kernel",),
    "analysis.memtrace": ("analysis.memtrace",),
    "analysis.dfg": ("analysis.dfg",),
    "analysis.pack": ("analysis.pack",),
    "model.pe": ("model.pe",),
    "model.memory": ("model.memory",),
    "model.compose": ("model.predict",),
    "dse.explore_self": ("dse.explore",),
    "cache.put": ("cache.put",),
    "cache.get": ("cache.get",),
}
#: per-layer "<metric>" -> span name whose call count it reports
SPAN_CALLS = {
    "frontend.compile_calls": "frontend.compile",
    "lint.summary_calls": "lint.summary",
    "interp.synth_calls": "interp.synth",
    "interp.vexec_calls": "interp.vexec",
    "interp.scalar_calls": "interp.scalar",
    "analysis.calls": "analysis.kernel",
    "model.pe_calls": "model.pe",
    "model.memory_calls": "model.memory",
    "model.predict_calls": "model.predict",
    "dse.explore_calls": "dse.explore",
    "cache.put_calls": "cache.put",
    "cache.get_calls": "cache.get",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="FlexCL benchmark: catalog, dse-sweep, serve-mixed")
    ap.add_argument("--workload", default="all",
                    help="a workload, a comma-separated list, or 'all' "
                         f"({', '.join(WORKLOADS)})")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="least total time of the warm units")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = (list(WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        ap.error(f"unknown workload(s): {', '.join(unknown) or '-'}")
    args.names = names
    return args


def end_to_end(phase, setup_s: float, golden):
    """End-to-end metrics plus a note with the figures printed but not
    reported: the median warm unit and the per-kernel and per-request
    medians and tails."""
    k50, ktail, kp = median_and_tail(phase.kernel_s)
    r50, rtail, rp = median_and_tail(phase.request_s)
    values = {
        "setup_s": setup_s,
        "wall_s": phase.wall_s,
        "req_per_s": len(phase.request_s) / phase.wall_s,
        "peak_rss_mb": phase.peak_rss_mb,
        "err_pct": golden.error_pct(phase.predictions),
    }
    note = (f"warm unit median {median(phase.warm_s):.4g} s of "
            f"{len(phase.warm_s)}; {len(phase.kernel_s)} kernels p50 "
            f"{1e3 * k50:.4g} ms, p{kp} {1e3 * ktail:.4g} ms; "
            f"{len(phase.request_s)} requests p50 {1e3 * r50:.4g} ms, "
            f"p{rp} {1e3 * rtail:.4g} ms")
    return values, note


def per_layer(records, traced, span_cost_s: float):
    """Per-layer metrics of a traced phase; *span_cost_s* is the time
    one span's wrapper adds, which prices the tracing overhead."""
    times = spans.layer_times(records)
    values = {name: 0.0 for name in PER_LAYER}
    for metric, names in SPAN_TIMES.items():
        values[f"{metric}_ms"] = 1e3 * sum(
            times.get(n, {}).get("self_s", 0.0) for n in names)
    for metric, name in SPAN_CALLS.items():
        values[metric] = times.get(name, {}).get("calls", 0)
    values.update(traced.layers)
    values["trace.covered_pct"] = (100.0 * spans.covered_seconds(records)
                                   / traced.total_s)
    values["trace.overhead_pct"] = (100.0 * len(records) * span_cost_s
                                    / traced.total_s)
    return values


def layer_table(records) -> str:
    rows = sorted(spans.layer_times(records).items(),
                  key=lambda kv: -kv[1]["self_s"])
    lines = [f"  {'span':<20} {'calls':>8} {'self ms':>11} "
             f"{'total ms':>11}"]
    for name, row in rows:
        lines.append(f"  {name:<20} {row['calls']:>8} "
                     f"{1e3 * row['self_s']:>11.1f} "
                     f"{1e3 * row['total_s']:>11.1f}")
    return "\n".join(lines)


def run_workload(runner, args, golden):
    """Set up and measure one workload; returns (metrics, units,
    measured phase)."""
    setups, state = [], None
    for _ in range(runner.setup_repeats):
        if state is not None:
            runner.release(state)
        t0 = time.perf_counter()
        state = runner.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = args.import_s + median(setups)

    if not args.trace:
        phase = runner.measure(state, args.seconds)
        values, note = end_to_end(phase, setup_s, golden)
        print(f"{runner.name}: {note}")
        return values, END_TO_END, phase

    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        traced = runner.measure(state, 0, recorder)
    finally:
        uninstall()
    span_cost_s = spans.wrapper_cost()
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    recorder.dump(out / f"spans-{runner.name}-seed{args.seed}.json.gz")
    records = recorder.records()
    print(f"{runner.name}: traced phase {traced.total_s:.3f} s, "
          f"{len(records)} spans at {1e6 * span_cost_s:.2f} us each\n"
          f"{layer_table(records)}")
    return per_layer(records, traced, span_cost_s), PER_LAYER, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no FlexCL sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import runners  # imports the program
    args.import_s = time.perf_counter() - t0

    golden = Golden.load()
    work = ROOT / ".perfbench-work" / f"run-{time.time_ns()}"
    work.mkdir(parents=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in args.names:
            runner = runners.RUNNERS[name](golden, args.seed, work)
            values, units, phase = run_workload(runner, args, golden)
            attempted += phase.attempted
            failed += phase.failed
            print(f"{name}: {phase.failed} failed / {phase.attempted} "
                  f"attempted")
            for reason in phase.reasons[:10]:
                print(f"  FAILED {reason}")
            prefix = f"{name}/" if len(args.names) > 1 else ""
            for metric, value in values.items():
                print(f"  {prefix}{metric} = {value:.6g} {units[metric]}")
                metrics[prefix + metric] = {"value": value,
                                            "unit": units[metric]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
