"""DSE throughput benchmark: serial vs parallel, cold vs memoized.

Times a full design-space sweep of one kernel three ways —

- ``serial_cold``     : one process, sub-model memoization off (the
  seed's per-point evaluation path: every design recomputes the PE
  schedule and the memory model);
- ``serial_memoized`` : one process, sub-model memoization on;
- ``parallel_memoized``: memoization on, sharded by work-group size
  across a forked process pool (``jobs='auto'``);

asserts that all three sweeps agree design-for-design and
cycle-for-cycle, and writes the timings, speedups, and cache statistics
to ``BENCH_dse_perf.json`` so the perf trajectory is tracked PR over PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_dse_perf.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_dse_perf.py --small    # CI smoke
    PYTHONPATH=src python benchmarks/bench_dse_perf.py --jobs 4
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

from repro.analysis import analyze_kernel
from repro.devices import VIRTEX7
from repro.dse import DesignSpace, explore
from repro.frontend import compile_opencl
from repro.interp import Buffer, NDRange
from repro.model import FlexCL

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


def _sweep(space, analyzer, device, memoize: bool, jobs):
    """Run one timed sweep with a fresh model; returns (result, model)."""
    model = FlexCL(device, memoize=memoize)
    start = time.perf_counter()
    result = explore(space, analyzer,
                     lambda info, d: model.predict(info, d).cycles,
                     device, jobs=jobs,
                     cache_stats=lambda: model.cache_stats)
    elapsed = time.perf_counter() - start
    return result, elapsed


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


def run(small: bool = False, jobs="auto", n: int = 4096) -> dict:
    if small:
        n = min(n, 256)
    analyzer = _make_analyzer(n)
    space = _space(small, n)

    cold, t_cold = _sweep(space, analyzer, VIRTEX7,
                          memoize=False, jobs=None)
    memo, t_memo = _sweep(space, analyzer, VIRTEX7,
                          memoize=True, jobs=None)
    par, t_par = _sweep(space, analyzer, VIRTEX7,
                        memoize=True, jobs=jobs)

    sig = _signature(cold)
    assert _signature(memo) == sig, \
        "memoized sweep diverged from the cold sweep"
    assert _signature(par) == sig, \
        "parallel sweep diverged from the serial sweep"

    stats = (par.cache_stats or memo.cache_stats)
    payload = {
        "kernel": "stream",
        "global_size": n,
        "space_size": space.size(),
        "feasible": len(cold.feasible),
        "small": small,
        "jobs": par.jobs,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seconds": {
            "serial_cold": t_cold,
            "serial_memoized": t_memo,
            "parallel_memoized": t_par,
        },
        "speedup": {
            "memoized_vs_cold": t_cold / max(t_memo, 1e-9),
            "parallel_vs_cold": t_cold / max(t_par, 1e-9),
            "parallel_vs_memoized": t_memo / max(t_par, 1e-9),
        },
        "cache": _cache_payload(stats) if stats is not None else None,
        "identical_results": True,
    }
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true",
                        help="tiny space for CI smoke runs")
    parser.add_argument("--jobs", default="auto",
                        help="worker processes for the parallel sweep "
                             "(int or 'auto')")
    parser.add_argument("--global-size", type=int, default=4096)
    parser.add_argument("--output", default=None,
                        help="output JSON path "
                             "(default: BENCH_dse_perf.json at repo root)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless parallel+memoized beats the "
                             "cold serial sweep by this factor")
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs == "auto" else int(args.jobs)
    payload = run(small=args.small, jobs=jobs, n=args.global_size)

    out = Path(args.output) if args.output else \
        Path(__file__).resolve().parent.parent / "BENCH_dse_perf.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    secs = payload["seconds"]
    speed = payload["speedup"]
    print(f"space: {payload['space_size']} designs "
          f"({payload['feasible']} feasible), global={payload['global_size']}")
    print(f"serial cold      : {secs['serial_cold']:8.2f} s")
    print(f"serial memoized  : {secs['serial_memoized']:8.2f} s "
          f"({speed['memoized_vs_cold']:.1f}x)")
    print(f"parallel memoized: {secs['parallel_memoized']:8.2f} s "
          f"({speed['parallel_vs_cold']:.1f}x, "
          f"{payload['jobs']} workers)")
    if payload["cache"]:
        print(f"cache hit rate   : {payload['cache']['hit_rate']:.0%} "
              f"(pe {payload['cache']['pe_hit_rate']:.0%}, "
              f"memory {payload['cache']['memory_hit_rate']:.0%})")
    print(f"[written to {out}]")

    if args.min_speedup is not None \
            and speed["parallel_vs_cold"] < args.min_speedup:
        print(f"FAIL: parallel+memoized speedup "
              f"{speed['parallel_vs_cold']:.1f}x < "
              f"required {args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
