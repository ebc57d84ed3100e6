"""Suite-cache benchmark: cold vs warm batch evaluation.

Runs the workload-catalog batch evaluator
(:func:`repro.evaluation.run_suite`) three ways —

- ``uncached``: no persistent cache at all (the pre-cache behaviour);
- ``cold``    : a fresh, empty cache directory — pays the full
  analyse/schedule/memory-model cost once while populating the store;
- ``warm``    : a second, fresh *process-equivalent* run against the
  now-populated store (new ``ArtifactCache`` instance, in-process
  pattern memo cleared) — every expensive stage loads from disk;

All three runs use the full cold-path engine chain: kernels proved
STATIC have their traces synthesized analytically, and the
data-dependent rest executes on the lane-vectorized interpreter.  A
fourth run —

- ``interp``  : uncached scalar reference — every analysis profiles
  through ``KernelExecutor(...).run`` and hands the launch to
  ``analyze_kernel(..., launch=...)``, the original
  work-item-at-a-time cold path;

measures what the trace engines buy together.  The catalog is then
split into its **static** and **dynamic** subsets and each is timed in
isolation: synthesis owns the static subset's win, the vectorized
executor owns the dynamic subset's.  The uncached, cold and warm runs
alternate ``REPEATS`` times, each cold run on an empty store; the
record keeps each one's median and min-max spread, with the command
and commit that produced it.  The script asserts all runs' predictions
are row-for-row **bit-identical**, that the warm run's disk hit rate
exceeds 0.9, and that every warm run does no work of its own: no store
miss, no put, and no trace-engine run.  It prints and records the
warm-vs-cold ratio but does not gate on it: a faster cold path lowers
that ratio although nothing got slower.  The record goes to
``BENCH_suite_cache.json`` (``--small``:
``benchmarks/results/BENCH_suite_cache_small.json``, so a smoke run
never replaces the committed full-catalog record).  The full run
additionally asserts that populating the store costs at most 1.5x an
uncached run (``cold_vs_uncached``: store puts must stay cheap), a
>= 10x synthesis speedup over the static subset, and a >= 5x
vectorized-vs-scalar speedup over the dynamic subset.

Usage::

    PYTHONPATH=src python benchmarks/bench_suite_cache.py           # full catalog
    PYTHONPATH=src python benchmarks/bench_suite_cache.py --small   # CI smoke
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.evaluation.harness as harness                 # noqa: E402
from repro.analysis.kernel_info import (                   # noqa: E402
    DEFAULT_PROFILE_GROUPS,
)
from repro.cache import ArtifactCache                      # noqa: E402
from repro.devices import VIRTEX7                          # noqa: E402
from repro.evaluation import (                             # noqa: E402
    default_suite_workloads,
    run_suite,
)
from repro.interp import KernelExecutor                    # noqa: E402
from repro.interp.synth import TraceSynthesizer            # noqa: E402
from repro.interp.vexec import VectorizedExecutor          # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "BENCH_suite_cache.json"
SMALL_OUT = OUT.parent / "benchmarks" / "results" / f"{OUT.stem}_small.json"


#: alternating (uncached, cold, warm) repeats; the record keeps each
#: run's median and min-max
REPEATS = 5


def _fresh_process_state() -> None:
    """Drop in-process memos so a run measures what a new process pays
    (the disk store is the only thing that persists)."""
    import repro.model.memory as model_memory
    model_memory._PATTERN_CACHE.clear()


@contextlib.contextmanager
def _scalar_reference():
    """Route the suite's kernel analyses through the scalar interpreter:
    a ``KernelExecutor`` launch handed to ``analyze_kernel(...,
    launch=...)``.  Forked suite workers inherit the binding."""
    original = harness.analyze_kernel

    def analyze(fn, buffers, scalars, ndrange, device,
                profile_groups=DEFAULT_PROFILE_GROUPS, cache=None,
                shared=None):
        launch = KernelExecutor(fn, buffers, scalars).run(
            ndrange, max_groups=max(profile_groups, 1))
        return original(fn, buffers, scalars, ndrange, device,
                        launch=launch)

    harness.analyze_kernel = analyze
    try:
        yield
    finally:
        harness.analyze_kernel = original


@contextlib.contextmanager
def _count_engine_runs():
    """Count every trace-engine launch (synthesis, vectorized, scalar)
    made inside the block; yields a one-element list."""
    runs = [0]
    originals = [(cls, cls.run) for cls in (TraceSynthesizer,
                                            VectorizedExecutor,
                                            KernelExecutor)]

    def counting(run):
        def counted(*args, **kwargs):
            runs[0] += 1
            return run(*args, **kwargs)
        return counted

    for cls, run in originals:
        cls.run = counting(run)
    try:
        yield runs
    finally:
        for cls, run in originals:
            cls.run = run


def _commit() -> str:
    """The checkout's commit, marked ``-dirty`` with local edits."""
    root = Path(__file__).resolve().parent.parent
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=root,
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def _run(workloads, designs, cache, reference=False):
    """One timed suite run; *reference* profiles every kernel with the
    scalar interpreter instead of the engine chain."""
    _fresh_process_state()
    with _scalar_reference() if reference else contextlib.nullcontext():
        t0 = time.perf_counter()
        result = run_suite(workloads, VIRTEX7, cache=cache,
                           designs_per_kernel=designs)
        return result, time.perf_counter() - t0


def _split_subsets(workloads):
    """Partition the catalog into the subset the summary engine proves
    STATIC (trace synthesis applies) and the dynamic remainder (the
    vectorized executor owns its cold path)."""
    from repro.lint.summary import VERDICT_STATIC, summarize_kernel
    static, dynamic = [], []
    for w in workloads:
        verdict = summarize_kernel(w.function()).verdict
        (static if verdict == VERDICT_STATIC else dynamic).append(w)
    return static, dynamic


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--small", action="store_true",
                    help="CI smoke: first 6 kernels, relaxed speedup bar")
    ap.add_argument("--designs", type=int, default=8,
                    help="sampled design points per kernel")
    ap.add_argument("--suite", choices=["rodinia", "polybench"],
                    default=None)
    args = ap.parse_args()

    limit = 6 if args.small else 0
    workloads = default_suite_workloads(args.suite, limit)
    print(f"suite-cache benchmark: {len(workloads)} workloads, "
          f"{args.designs} designs/kernel")

    cache_root = Path(tempfile.mkdtemp(prefix="repro-suite-cache-"))
    try:
        # 0. Scalar-interpreter-only cold path: the original baseline
        #    (no synthesis, no lane vectorization).
        interp, t_interp = _run(workloads, args.designs, None,
                                reference=True)
        print(f"interp   : {t_interp:7.2f}s "
              f"({len(interp.predictions)} predictions, "
              f"scalar reference)")

        # 1-3, alternating, REPEATS times, each cold run on an empty
        # store:
        #   uncached: no cache at all, the reference behaviour;
        #   cold: populate the store while evaluating;
        #   warm: what every later process pays.  It must do no work
        #   of its own: no store miss, no put, no trace-engine run.
        times = {"uncached": [], "cold": [], "warm": []}
        for repeat in range(REPEATS):
            uncached, t = _run(workloads, args.designs, None)
            times["uncached"].append(t)
            store_dir = cache_root / f"store-{repeat}"
            cold, t = _run(workloads, args.designs,
                           ArtifactCache(store_dir))
            times["cold"].append(t)
            with _count_engine_runs() as engine_runs:
                warm, t = _run(workloads, args.designs,
                               ArtifactCache(store_dir))
            times["warm"].append(t)
            stats = warm.store_stats
            assert not stats.misses and not stats.puts \
                and engine_runs[0] == 0, \
                (f"warm run did work of its own: misses {stats.misses}, "
                 f"puts {stats.puts}, {engine_runs[0]} engine runs")
        t_uncached, t_cold, t_warm = (statistics.median(times[k])
                                      for k in ("uncached", "cold",
                                                "warm"))
        print(f"uncached : {t_uncached:7.2f}s median of {REPEATS} "
              f"({len(uncached.predictions)} predictions)")
        print(f"cold     : {t_cold:7.2f}s median of {REPEATS} "
              f"({cold.store_stats.summary()})")
        hit_rate = warm.store_stats.hit_rate
        print(f"warm     : {t_warm:7.2f}s median of {REPEATS} "
              f"({warm.store_stats.summary()}; no misses, puts or "
              f"engine runs)")

        assert interp.rows() == uncached.rows() == cold.rows() \
            == warm.rows(), \
            "cached/synthesized predictions diverged from interpreted"
        assert hit_rate > 0.9, \
            f"warm hit rate {hit_rate:.2f} <= 0.9"
        speedup = t_cold / t_warm if t_warm > 0 else float("inf")
        uncached_speedup = (t_uncached / t_warm if t_warm > 0
                            else float("inf"))
        cold_vs_uncached = (t_cold / t_uncached if t_uncached > 0
                            else float("inf"))
        synth_speedup = (t_interp / t_uncached if t_uncached > 0
                         else float("inf"))
        print(f"warm-vs-cold speedup: {speedup:.1f}x "
              f"(vs uncached: {uncached_speedup:.1f}x), "
              f"hit rate {hit_rate:.1%}; cold costs "
              f"{cold_vs_uncached:.2f}x an uncached run")
        print(f"engine cold-path speedup (full catalog, synth + "
              f"vectorized vs scalar): {synth_speedup:.1f}x")

        # Per-subset cold-path timings: the static subset is where
        # synthesis applies, the dynamic remainder is where the
        # vectorized executor applies; measuring each in isolation
        # keeps one engine's win from diluting the other's ratio.
        static_wl, dynamic_wl = _split_subsets(workloads)
        s_interp, t_s_interp = _run(static_wl, args.designs, None,
                                    reference=True)
        s_auto, t_s_auto = _run(static_wl, args.designs, None)
        assert s_interp.rows() == s_auto.rows()
        static_speedup = (t_s_interp / t_s_auto if t_s_auto > 0
                          else float("inf"))
        print(f"synthesis cold-path speedup ({len(static_wl)} static "
              f"kernels): {static_speedup:.1f}x "
              f"({t_s_interp:.2f}s -> {t_s_auto:.2f}s)")

        d_scalar, t_d_scalar = _run(dynamic_wl, args.designs,
                                    None, reference=True)
        d_vec, t_d_vec = _run(dynamic_wl, args.designs, None)
        assert d_scalar.rows() == d_vec.rows(), \
            "vectorized predictions diverged from scalar on the " \
            "dynamic subset"
        assert {p.trace_source for p in d_vec.predictions} \
            == {"vectorized"}, \
            "dynamic subset fell back off the vectorized engine"
        dynamic_speedup = (t_d_scalar / t_d_vec if t_d_vec > 0
                           else float("inf"))
        print(f"vectorized cold-path speedup ({len(dynamic_wl)} "
              f"dynamic kernels): {dynamic_speedup:.1f}x "
              f"({t_d_scalar:.2f}s -> {t_d_vec:.2f}s)")
        if not args.small:
            assert cold_vs_uncached <= 1.5, \
                (f"cold run {cold_vs_uncached:.2f}x an uncached run: "
                 f"store bookkeeping above the 1.5x bar")
            assert static_speedup >= 10.0, \
                (f"static-subset synthesis speedup {static_speedup:.1f}x"
                 " below the 10x acceptance bar")
            assert dynamic_speedup >= 5.0, \
                (f"dynamic-subset vectorized speedup "
                 f"{dynamic_speedup:.1f}x below the 5x acceptance bar")

        payload = {
            "benchmark": "suite_cache",
            "command": " ".join(["PYTHONPATH=src", "python",
                                 "benchmarks/bench_suite_cache.py",
                                 *sys.argv[1:]]),
            "commit": _commit(),
            "runs": REPEATS,
            "spread_seconds": {k: [round(min(v), 3), round(max(v), 3)]
                               for k, v in times.items()},
            "small": args.small,
            "workloads": len(workloads),
            "designs_per_kernel": args.designs,
            "predictions": len(cold.predictions),
            "interp_seconds": round(t_interp, 3),
            "uncached_seconds": round(t_uncached, 3),
            "cold_seconds": round(t_cold, 3),
            "warm_seconds": round(t_warm, 3),
            "warm_vs_cold_speedup": round(speedup, 2),
            "warm_vs_uncached_speedup": round(uncached_speedup, 2),
            "cold_vs_uncached": round(cold_vs_uncached, 2),
            "synthesis_speedup_full": round(synth_speedup, 2),
            "synthesis_speedup_static_subset": round(static_speedup, 2),
            "static_kernels": len(static_wl),
            "static_interp_seconds": round(t_s_interp, 3),
            "static_synth_seconds": round(t_s_auto, 3),
            "dynamic_kernels": len(dynamic_wl),
            "dynamic_scalar_seconds": round(t_d_scalar, 3),
            "dynamic_vectorized_seconds": round(t_d_vec, 3),
            "vectorized_speedup_dynamic_subset":
                round(dynamic_speedup, 2),
            "warm_hit_rate": round(hit_rate, 4),
            "warm_engine_runs": 0,
            "warm_store_stats": warm.store_stats.to_dict(),
            "cold_store_stats": cold.store_stats.to_dict(),
            "identical_predictions": True,
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        out = SMALL_OUT if args.small else OUT
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[written to {out}]")
        return 0
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
