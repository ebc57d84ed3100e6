"""DSE throughput benchmark: cold vs memoized.

Times a full design-space sweep of one kernel two ways —

- ``serial_cold``     : sub-model memoization off (the seed's per-point
  evaluation path: every design recomputes the PE schedule and the
  memory model);
- ``serial_memoized`` : sub-model memoization on;

asserts that both sweeps agree design-for-design and cycle-for-cycle,
and writes the timings, speedup, and cache statistics to
``BENCH_dse_perf.json`` so the perf trajectory is tracked PR over PR
(``--small``: ``benchmarks/results/BENCH_dse_perf_small.json``, so a
smoke run never replaces the committed record; ``--output`` overrides
either).

Both sweeps also record the PE model's scheduler work (``schedules``):
block list-schedule runs, SMS searches and SMS placement attempts, plus
the number of distinct block-schedule keys.  The memoized sweep must
run exactly one list schedule per distinct key; the benchmark fails
otherwise.

Every run also checks the memoized model's memory row for each
work-group size and pipelining mode of the sweep against a per-group
reference: each work-group's reconstructed stream coalesced and
classified on its own, summed over the window.  The model does that
work once per distinct stream, so the two must agree count for count.

The full run adds a catalog-wide section (``catalog``): every catalog
kernel's default design space swept by a fresh model per kernel (cold)
and again by the same models (warm), with the seconds spent in the PE
model, the memory model and the rest of ``FlexCL.predict`` (the
Eqs. 5–12 composition), and the scheduler work of the cold pass.
``--baseline`` copies the ``catalog`` section of a ``BENCH_dse_perf.json``
written by this script on another checkout, such as the parent commit on
the same machine, into ``catalog_baseline``.

Usage::

    PYTHONPATH=src python benchmarks/bench_dse_perf.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_dse_perf.py --small    # CI smoke
    PYTHONPATH=src python benchmarks/bench_dse_perf.py --baseline old.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import repro.model.flexcl as flexcl
import repro.model.pe as pe
import repro.scheduling.sms as sms
from repro.analysis import GroupStreamExtrapolator, analyze_kernel
from repro.devices import VIRTEX7
from repro.dram import BankMapping
from repro.dram.coalesce import coalesce_packed
from repro.dram.patterns import classify_packed
from repro.dse import DesignSpace, explore
from repro.evaluation import make_analyzer
from repro.frontend import compile_opencl
from repro.interp import Buffer, NDRange
from repro.latency.optable import DSP_COST
from repro.model import FlexCL
from repro.workloads import all_workloads

_KERNEL = r"""
__kernel void stream(__global const float* a, __global const float* b,
                     __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float acc = a[i] * 2.0f + b[i];
        for (int k = 0; k < 8; ++k)
            acc = acc * 0.5f + b[i];
        c[i] = acc;
    }
}
"""


def _make_analyzer(n: int):
    fn = compile_opencl(_KERNEL).get("stream")

    def analyzer(wg: int):
        try:
            rng = np.random.default_rng(7)
            return analyze_kernel(
                fn,
                {"a": Buffer("a", rng.random(n).astype(np.float32)),
                 "b": Buffer("b", rng.random(n).astype(np.float32)),
                 "c": Buffer("c", np.zeros(n, np.float32))},
                {"n": n}, NDRange(n, wg), VIRTEX7)
        except Exception:
            return None

    return analyzer


def _space(small: bool, n: int) -> DesignSpace:
    if small:
        return DesignSpace(work_group_sizes=(16, 32),
                           pe_counts=(1, 2), cu_counts=(1, 2),
                           vector_widths=(1,))
    return DesignSpace.default_for(n)


class _Patched:
    """Rebinds module attributes to wrappers while active."""

    def __init__(self, bindings) -> None:
        #: (module, attribute, wrapper factory taking the original)
        self._bindings = bindings
        self._saved = []

    def __enter__(self):
        for module, attr, wrap in self._bindings:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class _SchedulerWork(_Patched):
    """Counts the PE model's list-schedule runs, SMS searches and SMS
    placement attempts, and the distinct block-schedule keys its
    PE-row misses ask for: (block DFG, ports, DSP budget clamped to the
    block's DSP cost)."""

    def __init__(self) -> None:
        self.counts = {"list_schedule_runs": 0, "sms_searches": 0,
                       "sms_attempts": 0}
        self._keys = set()
        #: id -> block DFG, so that no id in a key is reused
        self._pinned = {}
        super().__init__([
            (pe, "list_schedule", self._counted("list_schedule_runs")),
            (pe, "swing_modulo_schedule", self._counted("sms_searches")),
            (sms, "_try_schedule", self._counted("sms_attempts")),
            (flexcl, "pe_model", self._keyed),
        ])

    def _counted(self, name):
        def wrap(fn):
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _keyed(self, fn):
        def keyed(info, budget, *args, **kwargs):
            for dfg in info.block_dfgs.values():
                cost = sum(DSP_COST[n.op_class] for n in dfg.nodes)
                self._pinned[id(dfg)] = dfg
                self._keys.add((id(dfg), budget.ports,
                                min(budget.dsp_budget, cost)))
            return fn(info, budget, *args, **kwargs)
        return keyed

    def payload(self) -> dict:
        return dict(self.counts, distinct_list_keys=len(self._keys))


class _StageClock(_Patched):
    """Seconds spent in ``FlexCL.predict`` and, within it, in the PE and
    memory models while active."""

    def __init__(self) -> None:
        self.seconds = {"predict": 0.0, "pe": 0.0, "memory": 0.0}
        super().__init__([
            (FlexCL, "predict", self._timed("predict")),
            (flexcl, "pe_model", self._timed("pe")),
            (flexcl, "memory_model", self._timed("memory")),
        ])

    def _timed(self, stage):
        def wrap(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[stage] += time.perf_counter() - t0
            return timed
        return wrap


def _sweep(space, analyzer, device, memoize: bool):
    """Run one timed sweep with a fresh model; returns (result, seconds,
    scheduler work, model)."""
    model = FlexCL(device, memoize=memoize)
    with _SchedulerWork() as work:
        start = time.perf_counter()
        result = explore(space, analyzer,
                         lambda info, d: model.predict(info, d).cycles,
                         device, cache_stats=lambda: model.cache_stats)
        elapsed = time.perf_counter() - start
    return result, elapsed, work.payload(), model


def _per_group_memory_row(info, device, pipelined: bool) -> tuple:
    """(pattern counts, requests and accesses per group) of the window,
    each group's stream coalesced and classified on its own."""
    extrapolator = GroupStreamExtrapolator(info.traces.global_traces,
                                           pipelined=pipelined)
    mapping = BankMapping.for_device(device)
    window = min(info.num_work_groups, 96)
    counts, requests, accesses = {}, 0, 0
    for g in range(window):
        stream = extrapolator.stream(g)
        rk, ra, rn = coalesce_packed(stream.kind, stream.addr,
                                     stream.nbytes,
                                     device.mem_access_unit_bits)
        for p, n in classify_packed(rk, ra, rn, mapping).counts.items():
            counts[p] = counts.get(p, 0) + n
        requests += rk.shape[0]
        accesses += len(stream)
    return counts, round(requests / window), round(accesses / window)


def _check_memory_rows(result, analyzer, model, device) -> int:
    """Assert that *model*'s memory row of every work-group size and
    pipelining mode among the sweep's feasible designs equals the
    per-group reference; returns the number of rows checked."""
    seen = set()
    for e in result.feasible:
        d = e.design
        key = (d.work_group_size, d.work_item_pipeline)
        if key in seen:
            continue
        seen.add(key)
        info = analyzer(d.work_group_size)
        row = model.predict(info, d).memory
        got = (row.pattern_counts.counts, row.requests_per_group,
               row.accesses_per_group)
        assert got == _per_group_memory_row(info, device, key[1]), \
            f"memory row of {d.signature()} differs from the per-group " \
            f"reference"
    return len(seen)


def _catalog_pass(kernels, models) -> dict:
    """Sweep every kernel's space once with its model; returns the
    seconds per stage and the scheduler work."""
    # The clock goes on first, so its PE time excludes the key counting.
    with _StageClock() as clock, _SchedulerWork() as work:
        start = time.perf_counter()
        for name, (space, infos) in kernels.items():
            explore(space, infos.get,
                    lambda info, d, m=models[name]: m.predict(info,
                                                              d).cycles,
                    VIRTEX7)
        total = time.perf_counter() - start
    secs = clock.seconds
    return {"seconds": {"pe": secs["pe"], "memory": secs["memory"],
                        "compose": (secs["predict"] - secs["pe"]
                                    - secs["memory"]),
                        "total": total},
            "schedules": work.payload()}


def catalog_run() -> dict:
    """Cold and warm per-stage seconds over every catalog kernel's
    default design space (analyses are built first and not timed)."""
    kernels = {}
    for workload in all_workloads():
        space = DesignSpace.default_for(workload.global_size)
        analyze = make_analyzer(workload, VIRTEX7)
        kernels[workload.qualified_name] = (
            space, {wg: analyze(wg) for wg in space.work_group_sizes})
    models = {name: FlexCL(VIRTEX7) for name in kernels}
    cold = _catalog_pass(kernels, models)
    warm = _catalog_pass(kernels, models)
    return {"kernels": len(kernels),
            "points": sum(s.size() for s, _ in kernels.values()),
            "cold": cold, "warm": warm}


def _signature(result):
    """The comparable content of a sweep: (design, cycles, feasible)."""
    return [(e.design.signature(), e.cycles, e.feasible)
            for e in result.evaluated]


def _cache_payload(stats) -> dict:
    """The sweep's memo counters plus each sub-model's hit rate."""
    out = stats.to_dict()
    for layer in ("pe", "memory"):
        hits = stats.hits.get(layer, 0)
        lookups = hits + stats.misses.get(layer, 0)
        out[f"{layer}_hit_rate"] = hits / lookups if lookups else 0.0
    return out


def run(small: bool = False, n: int = 4096) -> dict:
    if small:
        n = min(n, 256)
    analyzer = _make_analyzer(n)
    space = _space(small, n)

    cold, t_cold, work_cold, _ = _sweep(space, analyzer, VIRTEX7,
                                        memoize=False)
    memo, t_memo, work_memo, model = _sweep(space, analyzer, VIRTEX7,
                                            memoize=True)

    assert _signature(memo) == _signature(cold), \
        "memoized sweep diverged from the cold sweep"
    assert work_memo["list_schedule_runs"] \
        == work_memo["distinct_list_keys"], \
        f"memoized sweep repeated block list schedules: {work_memo}"
    memory_rows = _check_memory_rows(memo, analyzer, model, VIRTEX7)

    stats = memo.cache_stats
    payload = {
        "kernel": "stream",
        "global_size": n,
        "space_size": space.size(),
        "feasible": len(cold.feasible),
        "small": small,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seconds": {
            "serial_cold": t_cold,
            "serial_memoized": t_memo,
        },
        "speedup": {
            "memoized_vs_cold": t_cold / max(t_memo, 1e-9),
        },
        "cache": _cache_payload(stats) if stats is not None else None,
        "schedules": {"serial_cold": work_cold,
                      "serial_memoized": work_memo},
        "identical_results": True,
        "memory_rows_checked": memory_rows,
    }
    if not small:
        payload["catalog"] = catalog_run()
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true",
                        help="tiny space for CI smoke runs")
    parser.add_argument("--global-size", type=int, default=4096)
    parser.add_argument("--output", default=None,
                        help="output JSON path (default: "
                             "BENCH_dse_perf.json at the repo root, or "
                             "benchmarks/results/BENCH_dse_perf_small.json "
                             "with --small)")
    parser.add_argument("--baseline", default=None,
                        help="a BENCH_dse_perf.json from another checkout "
                             "whose catalog section to keep alongside")
    args = parser.parse_args(argv)

    payload = run(small=args.small, n=args.global_size)
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        payload["catalog_baseline"] = baseline.get("catalog")

    root = Path(__file__).resolve().parent.parent
    if args.output:
        out = Path(args.output)
    elif args.small:
        out = root / "benchmarks" / "results" / "BENCH_dse_perf_small.json"
        out.parent.mkdir(exist_ok=True)
    else:
        out = root / "BENCH_dse_perf.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    secs = payload["seconds"]
    speed = payload["speedup"]
    print(f"space: {payload['space_size']} designs "
          f"({payload['feasible']} feasible), global={payload['global_size']}")
    print(f"serial cold      : {secs['serial_cold']:8.2f} s")
    print(f"serial memoized  : {secs['serial_memoized']:8.2f} s "
          f"({speed['memoized_vs_cold']:.1f}x)")
    if payload["cache"]:
        print(f"cache hit rate   : {payload['cache']['hit_rate']:.0%} "
              f"(pe {payload['cache']['pe_hit_rate']:.0%}, "
              f"memory {payload['cache']['memory_hit_rate']:.0%})")
    print(f"memory rows      : {payload['memory_rows_checked']} equal "
          f"to the per-group reference")
    for sweep, work in payload["schedules"].items():
        print(f"{sweep:<17}: {work['list_schedule_runs']} list schedules "
              f"({work['distinct_list_keys']} distinct), "
              f"{work['sms_searches']} SMS searches, "
              f"{work['sms_attempts']} placement attempts")
    catalog = payload.get("catalog")
    if catalog:
        print(f"catalog ({catalog['kernels']} kernels, "
              f"{catalog['points']} points):")
        for unit in ("cold", "warm"):
            secs = catalog[unit]["seconds"]
            print(f"  {unit}: " + ", ".join(
                f"{stage} {secs[stage]:.2f} s"
                for stage in ("pe", "memory", "compose", "total")))
    print(f"[written to {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
