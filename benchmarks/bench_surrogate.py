"""Surrogate benchmark: held-out ranking power + instant serve tier.

Measures and asserts the two headline claims of the learned surrogate:

- **ranking power**: pooled Spearman rank correlation >= 0.9 between
  surrogate scores and exact model cycles on *held-out* kernels (whole
  kernels excluded from training, grouped holdout);
- **instant serve tier**: warm ``/predict`` answers at the
  ``"tier": "instant"`` level have sub-millisecond p50 server-side
  latency, reported under their own outcome in ``/metrics``.

``--small`` keeps CI fast: a 16-designs-per-kernel training suite and a
shorter instant-tier window.  Results land in ``BENCH_surrogate.json``
and ``benchmarks/results/surrogate.txt``.

Usage::

    PYTHONPATH=src python benchmarks/bench_surrogate.py           # full
    PYTHONPATH=src python benchmarks/bench_surrogate.py --small   # CI
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from _common import write_result                           # noqa: E402

from repro.cache import open_cache                         # noqa: E402
from repro.devices import device_by_name                   # noqa: E402
from repro.evaluation import (                             # noqa: E402
    default_suite_workloads,
    run_suite,
)
from repro.serve import ServerConfig, serve_in_thread      # noqa: E402
from repro.surrogate import (                              # noqa: E402
    save_model,
    train_with_holdout,
    training_rows,
)

OUT = ROOT / "BENCH_surrogate.json"

SERVE_WORKLOAD = "rodinia/backprop/layer"
SPEARMAN_BAR = 0.9


def _post(url: str, path: str, spec: dict, timeout: float = 300.0):
    req = urllib.request.Request(
        url + path, data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def _metrics(url: str) -> dict:
    with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
        return json.loads(resp.read())


#: the measured design axes (wg, pe, cu, vector, pipeline): 240
#: distinct designs, so a full-mode window of 240 requests holds no
#: hot-tier repeat
INSTANT_DESIGNS = list(itertools.product(
    (16, 32, 64, 128, 256), (1, 2, 4, 8), (1, 2, 4), (1, 2),
    (True, False)))


def _bench_instant(cache_dir: str, n_requests: int):
    """Warm instant-tier latency over distinct design points, measured
    server-side by the daemon's own /metrics window."""
    handle = serve_in_thread(ServerConfig(
        port=0, executor="thread", jobs=2, cache_dir=cache_dir))
    try:
        # Warm the per-work-group analyses and the model memo first so
        # the measured window is the steady state the tier exists for.
        # pe=16 is off the measured axes, so no warm-up design repeats.
        for wg in (16, 32, 64, 128, 256):
            _post(handle.url, "/predict",
                  {"workload": SERVE_WORKLOAD, "wg": wg, "pe": 16,
                   "tier": "instant"})
        warm_count = _metrics(handle.url)["endpoints"]["predict"][
            "instant_latency"]["count"]
        for wg, pe, cu, vw, pipeline in INSTANT_DESIGNS[:n_requests]:
            _post(handle.url, "/predict",
                  {"workload": SERVE_WORKLOAD, "wg": wg, "pe": pe,
                   "cu": cu, "vector": vw, "pipeline": pipeline,
                   "tier": "instant"})
        metrics = _metrics(handle.url)
    finally:
        handle.stop()
    predict = metrics["endpoints"]["predict"]
    assert metrics["tiers"]["instant"] > 0, \
        "/metrics carries no instant-tier provenance"
    assert "instant_latency" in predict, \
        "/metrics carries no instant latency window"
    fresh = predict["instant_latency"]["count"] - warm_count
    assert fresh == n_requests and predict["hot_hits"] == 0, \
        (f"{n_requests} requests after warm-up but {fresh} fresh "
         f"instant answers and {predict['hot_hits']} hot hits")
    return predict["instant_latency"], metrics["tiers"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--small", action="store_true",
                    help="CI smoke: lighter training suite and a "
                         "shorter instant-tier window")
    args = ap.parse_args()

    designs = 16 if args.small else 32
    n_instant = 120 if args.small else 240
    p50_bar_ms = 2.5 if args.small else 1.0   # CI runners are noisy

    device = device_by_name("virtex7")
    cache_root = Path(tempfile.mkdtemp(prefix="repro-surrogate-bench-"))
    os.environ["REPRO_CACHE_DIR"] = str(cache_root)
    try:
        cache = open_cache(str(cache_root))
        catalog = default_suite_workloads(None, 0)

        t0 = time.perf_counter()
        suite = run_suite(catalog, device, jobs="auto", cache=cache,
                          designs_per_kernel=designs,
                          collect_features=True)
        t_suite = time.perf_counter() - t0
        X, cycles, kernels = training_rows(suite)
        t0 = time.perf_counter()
        model, report = train_with_holdout(X, cycles, kernels)
        t_train = time.perf_counter() - t0
        save_model(cache, model, device)
        print(f"training : {len(cycles)} rows / "
              f"{len(set(kernels))} kernels "
              f"(suite {t_suite:.1f}s, fit {t_train:.2f}s)")
        print(f"held-out Spearman: {report.spearman_overall:.4f} "
              f"({report.test_rows} rows, "
              f"{len(report.held_out)} kernels held out)")
        assert report.spearman_overall >= SPEARMAN_BAR, (
            f"held-out Spearman {report.spearman_overall:.4f} below "
            f"the {SPEARMAN_BAR} bar")

        instant_latency, tiers = _bench_instant(str(cache_root),
                                                n_instant)
        print(f"instant  : {n_instant} fresh answers after warm-up, "
              f"p50 {instant_latency['p50_ms']:.3f} ms, "
              f"p90 {instant_latency['p90_ms']:.3f} ms")
        print(f"instant p50: {instant_latency['p50_ms']} ms")
        assert instant_latency["p50_ms"] < p50_bar_ms, (
            f"instant p50 {instant_latency['p50_ms']}ms above the "
            f"{p50_bar_ms}ms bar")

        lines = [
            "surrogate fast path "
            f"({'small' if args.small else 'full'} mode)",
            f"training rows: {len(cycles)} "
            f"({designs} designs x {len(set(kernels))} kernels)",
            f"held-out Spearman: {report.spearman_overall:.4f} "
            f"(bar {SPEARMAN_BAR})",
            f"instant p50: {instant_latency['p50_ms']} ms "
            f"(bar {p50_bar_ms} ms)",
        ]
        write_result("surrogate", "\n".join(lines))

        payload = {
            "benchmark": "surrogate",
            "small": args.small,
            "designs_per_kernel": designs,
            "training_rows": len(cycles),
            "training_kernels": len(set(kernels)),
            "suite_seconds": round(t_suite, 2),
            "train_seconds": round(t_train, 3),
            "spearman_held_out": round(report.spearman_overall, 4),
            "spearman_bar": SPEARMAN_BAR,
            "held_out_kernels": list(report.held_out),
            "instant_requests": n_instant,
            "instant_latency_ms": instant_latency,
            "instant_p50_bar_ms": p50_bar_ms,
            "tiers": tiers,
            "model": model.describe(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        OUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[written to {OUT}]")
        return 0
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)
        shutil.rmtree(cache_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
