"""Serving benchmark: daemon throughput vs one-process-per-request CLI.

The CLI pays interpreter start-up, imports, kernel re-parsing, and a
disk-cache round trip on **every** invocation.  The daemon pays them
once: workload modules and fingerprints stay memoized in the process,
and answered requests live in the in-memory hot tier, so a repeated
prediction is a dictionary lookup away.  This script measures that gap
and proves the daemon's two headline behaviours:

- ``baseline``  : N sequential ``python -m repro predict --json``
  subprocesses against a **warm** disk cache — the best the
  process-per-request model can do;
- ``served``    : M concurrent HTTP requests against ``repro serve``
  (process-pool workers, shared hot tier) over the same cache;
- ``coalesced`` : K concurrent *identical, previously unseen* requests
  — the metrics endpoint must show exactly one evaluation with the
  rest attached to it;
- byte-identity : the served body equals the CLI subprocess stdout,
  byte for byte;
- worker counters : the pool workers' store hits and puts show up in
  the daemon's ``/metrics`` ``cache.store.stats``.

The full run asserts the ISSUE acceptance bar of a >= 20x served
throughput advantage; ``--small`` keeps CI fast and relaxes the bar to
5x (shared runners are noisy).  Results land in ``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py           # full
    PYTHONPATH=src python benchmarks/bench_serve.py --small   # CI smoke
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.serve import ServerConfig, serve_in_thread      # noqa: E402

OUT = ROOT / "BENCH_serve.json"

WORKLOAD = "rodinia/backprop/layer"
PREDICT_SPEC = {"workload": WORKLOAD, "wg": 64}
CLI_ARGV = ["predict", "--workload", WORKLOAD, "--wg", "64", "--json"]


def _cli_env(cache_root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_root)
    return env


def _cli_once(env: dict) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "repro", *CLI_ARGV],
                          capture_output=True, env=env, check=True)
    return proc.stdout


def _post(url: str, path: str, spec: dict, timeout: float = 300.0):
    req = urllib.request.Request(
        url + path, data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read()


def _metrics(url: str) -> dict:
    with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
        return json.loads(resp.read())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--small", action="store_true",
                    help="CI smoke: fewer requests, relaxed speedup bar")
    ap.add_argument("--jobs", type=int, default=2,
                    help="daemon worker processes")
    args = ap.parse_args()

    n_baseline = 3 if args.small else 6
    n_served = 100 if args.small else 400
    n_clients = 8
    n_coalesce = 12
    bar = 5.0 if args.small else 20.0

    cache_root = Path(tempfile.mkdtemp(prefix="repro-serve-bench-"))
    env = _cli_env(cache_root)
    os.environ["REPRO_CACHE_DIR"] = str(cache_root)
    try:
        # Warm the disk cache so the baseline measures the CLI's best
        # case (analysis already cached), not first-contact analysis.
        reference = _cli_once(env)

        t0 = time.perf_counter()
        for _ in range(n_baseline):
            out = _cli_once(env)
            assert out == reference, "CLI output drifted between runs"
        t_baseline = time.perf_counter() - t0
        baseline_rps = n_baseline / t_baseline
        print(f"baseline : {n_baseline} subprocesses in "
              f"{t_baseline:6.2f}s  ({baseline_rps:8.1f} req/s)")

        handle = serve_in_thread(ServerConfig(port=0, jobs=args.jobs))
        try:
            body = _post(handle.url, "/predict", PREDICT_SPEC)
            assert body == reference, (
                "served body differs from CLI stdout — the byte-identity"
                " contract is broken")
            print("identity : served body == CLI stdout "
                  f"({len(body)} bytes)")
            # The CLI warmed the store, so the first evaluation is all
            # hits; only the pool worker looked the analysis up, so a
            # hit here proves its store counters reach /metrics.
            first = _metrics(handle.url)["cache"]["store"]["stats"]
            assert first["hits"].get("analysis", 0) > 0, \
                "worker store hits never reached /metrics"

            t0 = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(n_clients) as ex:
                futures = [ex.submit(_post, handle.url, "/predict",
                                     PREDICT_SPEC)
                           for _ in range(n_served)]
                bodies = [f.result() for f in futures]
            t_served = time.perf_counter() - t0
            assert all(b == reference for b in bodies)
            served_rps = n_served / t_served
            print(f"served   : {n_served} requests in "
                  f"{t_served:6.2f}s  ({served_rps:8.1f} req/s)")

            # Coalescing proof: a spec the daemon has never answered,
            # fired concurrently.  Exactly one evaluation may happen;
            # the rest attach to it (or arrive late as hot hits).
            before = _metrics(handle.url)["endpoints"].get(
                "predict", {"evaluations": 0, "coalesced": 0})
            fresh = {"workload": WORKLOAD, "wg": 128}
            with concurrent.futures.ThreadPoolExecutor(n_coalesce) as ex:
                futures = [ex.submit(_post, handle.url, "/predict",
                                     fresh)
                           for _ in range(n_coalesce)]
                fresh_bodies = {f.result() for f in futures}
            assert len(fresh_bodies) == 1, \
                "coalesced waiters saw different bodies"
            after = _metrics(handle.url)["endpoints"]["predict"]
            evaluations = after["evaluations"] - before["evaluations"]
            coalesced = after["coalesced"] - before["coalesced"]
            assert evaluations == 1, \
                f"{evaluations} evaluations for one coalesced burst"
            assert coalesced >= 1, "no requests were coalesced"
            store_stats = _metrics(handle.url)["cache"]["store"]["stats"]
            store_puts = sum(store_stats["puts"].values())
            assert store_puts > 0, \
                "worker store puts never reached /metrics"
            print(f"coalesce : {n_coalesce} concurrent identical "
                  f"requests -> {evaluations} evaluation, "
                  f"{coalesced} attached")
            print(f"store    : {store_puts} puts, "
                  f"{sum(store_stats['hits'].values())} hits "
                  "(worker counters included)")

            metrics = _metrics(handle.url)
        finally:
            handle.stop()

        speedup = served_rps / baseline_rps
        print(f"speedup  : {speedup:.1f}x served vs "
              "process-per-request")
        assert speedup >= bar, \
            f"served speedup {speedup:.1f}x below the {bar:.0f}x bar"

        hot = metrics["cache"]["tiers"]["hot"]
        assert hot["hits"] > 0, "hot tier never hit"

        payload = {
            "benchmark": "serve",
            "small": args.small,
            "jobs": args.jobs,
            "workload": WORKLOAD,
            "baseline_requests": n_baseline,
            "baseline_seconds": round(t_baseline, 3),
            "baseline_rps": round(baseline_rps, 2),
            "served_requests": n_served,
            "served_clients": n_clients,
            "served_seconds": round(t_served, 3),
            "served_rps": round(served_rps, 2),
            "speedup": round(speedup, 1),
            "speedup_bar": bar,
            "coalesce_burst": n_coalesce,
            "coalesce_evaluations": evaluations,
            "coalesce_attached": coalesced,
            "byte_identical": True,
            "hot_tier_hits": hot["hits"],
            "store_puts": metrics["cache"]["store"]["stats"]["puts"],
            "store_hits": metrics["cache"]["store"]["stats"]["hits"],
            "latency_ms": metrics["endpoints"]["predict"]["latency"],
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
