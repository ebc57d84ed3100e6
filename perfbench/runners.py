"""The benchmark's three workloads.

Each runner has a ``setup`` (what a run pays before its first timed
operation) and a ``measure`` that runs one *cold unit* of fixed size
followed by *warm units* (at least :data:`MIN_WARM`, more until they
have taken ``seconds`` in all), checking every output against the golden
table.  The program is driven only through its public entry points:
``repro.evaluation.make_analyzer``, ``repro.dse.explore``,
``FlexCL.predict`` and the ``repro serve`` HTTP API.  All load runs
serially from this one process.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import repro.dse as dse
import repro.interp.synth  # noqa: F401  (imported here, not in a timed pass)
import repro.interp.vexec  # noqa: F401
import repro.lint.summary  # noqa: F401
import repro.model.memory as model_memory
from repro.cache import ArtifactCache, StoreStats
from repro.devices import VIRTEX7
from repro.dse import DesignSpace, check_feasibility
from repro.evaluation import make_analyzer
from repro.model import FlexCL
from repro.model.memo import CacheStats
from repro.workloads import all_workloads

import plans

DEVICE = VIRTEX7
#: warm units every measured phase runs at least
MIN_WARM = 3
#: client connections of the ``serve-mixed`` closed loop
SERVE_CONNECTIONS = 2
#: seconds a ``serve-mixed`` request may take before it counts as failed
SERVE_TIMEOUT_S = 60.0

clock = time.perf_counter


@dataclass
class Phase:
    """What one measured phase produced."""

    wall_s: float = 0.0                    # the cold unit
    warm_s: List[float] = field(default_factory=list)
    kernel_s: List[float] = field(default_factory=list)
    request_s: List[float] = field(default_factory=list)
    #: (kernel, signature, cycles) of the cold unit, for err_pct
    predictions: List[Tuple[str, str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: why operations failed (one entry per failure report)
    reasons: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: per-layer counters the runner reads from the program
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.wall_s + sum(self.warm_s)

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons.append(reason)

    def check(self, golden, kernel: str, signature: str,
              cycles: float) -> None:
        reason = golden.check(kernel, signature, cycles)
        if reason is None:
            self.attempted += 1
        else:
            self.fail(reason)


def fresh_workloads() -> Dict[str, object]:
    """The catalog as a new process builds it: new ``Workload`` objects
    whose kernels are not compiled yet."""
    return {w.qualified_name: dataclasses.replace(w, _module=None)
            for w in all_workloads()}


def designs_by_signature(workload) -> Dict[str, object]:
    return {d.signature(): d
            for d in DesignSpace.default_for(workload.global_size)}


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def store_layer_metrics(stats: StoreStats) -> Dict[str, float]:
    out = {}
    for layer in ("analysis", "pe", "memory", "table1"):
        hits = stats.hits.get(layer, 0)
        lookups = hits + stats.misses.get(layer, 0)
        out[f"cache.hit_ratio.{layer}"] = hits / lookups if lookups else 0.0
    out["cache.evictions"] = stats.evictions
    return out


def memo_metrics(stats: CacheStats) -> Dict[str, float]:
    return {"model.memo_hit_ratio": stats.hit_rate,
            "model.memo_lookups": stats.lookups}


class Catalog:
    """``catalog``: every catalog kernel analysed and predicted at 8
    designs, once against an empty store, then warm."""

    name = "catalog"
    setup_repeats = 3

    def __init__(self, golden, seed: int, work: Path) -> None:
        self.golden = golden
        self.seed = seed
        self.store_dir = work / "catalog-store"

    def setup(self):
        spaces = {w.qualified_name: designs_by_signature(w)
                  for w in all_workloads()}
        return [(name, [(sig, spaces[name][sig]) for sig in sigs])
                for name, sigs in plans.catalog_plan(self.seed,
                                                     self.golden)]

    def release(self, state) -> None:
        pass

    def measure(self, plan, seconds: float, recorder=None) -> Phase:
        phase = Phase()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir.mkdir(parents=True)
        store_stats, memo = StoreStats(), CacheStats()
        phase.wall_s, stats, memo_delta = self._pass(plan, phase, recorder,
                                                     cold=True)
        store_stats, memo = store_stats + stats, memo + memo_delta
        while len(phase.warm_s) < MIN_WARM or sum(phase.warm_s) < seconds:
            elapsed, stats, memo_delta = self._pass(plan, phase, recorder,
                                                    cold=False)
            phase.warm_s.append(elapsed)
            store_stats, memo = store_stats + stats, memo + memo_delta
        phase.peak_rss_mb = self_rss_mb()
        phase.layers.update(store_layer_metrics(store_stats))
        phase.layers.update(memo_metrics(memo))
        phase.layers["cache.store_mb"] = (
            ArtifactCache(self.store_dir).size_bytes() / 2 ** 20)
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return phase

    def _pass(self, plan, phase: Phase, recorder, cold: bool):
        """One pass over the plan with a fresh store handle, fresh
        workloads and no in-process Table-1 memo, as a new process
        would start; returns (seconds, store stats, memo stats)."""
        model_memory._PATTERN_CACHE.clear()
        store = ArtifactCache(self.store_dir)
        workloads = fresh_workloads()
        memo = CacheStats()
        outputs, errors = [], []
        start = clock()
        for name, designs in plan:
            if recorder is not None:
                recorder.set_kernel(name)
            k0 = clock()
            try:
                analyze = make_analyzer(workloads[name], DEVICE,
                                        cache=store)
                model = FlexCL(DEVICE, cache=store)
            except Exception as exc:          # noqa: BLE001
                errors.append((len(designs), f"{name}: "
                               f"{type(exc).__name__}: {exc}"))
                continue
            for sig, design in designs:
                r0 = clock()
                try:
                    info = analyze(design.work_group_size)
                    if info is None:
                        raise RuntimeError("kernel analysis failed")
                    reason = check_feasibility(info, design, DEVICE)
                    if reason is not None:
                        raise RuntimeError(f"infeasible: {reason}")
                    cycles = model.predict(info, design).cycles
                except Exception as exc:      # noqa: BLE001
                    errors.append((1, f"{name} {sig}: "
                                   f"{type(exc).__name__}: {exc}"))
                else:
                    outputs.append((name, sig, cycles))
                if cold:
                    phase.request_s.append(clock() - r0)
            memo = memo + model.cache_stats
            if cold:
                phase.kernel_s.append(clock() - k0)
        elapsed = clock() - start
        for count, reason in errors:
            phase.fail(reason, count)
        for name, sig, cycles in outputs:
            phase.check(self.golden, name, sig, cycles)
        if cold:
            phase.predictions = outputs
        return elapsed, store.stats.copy(), memo


class DseSweep:
    """``dse-sweep``: an exhaustive ``explore`` of every kernel's full
    default design space with a fresh memoizing model and no store."""

    name = "dse-sweep"
    #: each set-up analyses every kernel at every work-group size
    setup_repeats = 2

    def __init__(self, golden, seed: int, work: Path) -> None:
        self.golden = golden
        self.seed = seed

    def setup(self):
        workloads = fresh_workloads()
        kernels = {}
        for name in plans.dse_order(self.seed, self.golden):
            workload = workloads[name]
            space = DesignSpace.default_for(workload.global_size)
            analyze = make_analyzer(workload, DEVICE)
            kernels[name] = (space, {wg: analyze(wg)
                                     for wg in space.work_group_sizes})
        return kernels

    def release(self, state) -> None:
        pass

    def measure(self, kernels, seconds: float, recorder=None) -> Phase:
        phase = Phase()
        models = {name: FlexCL(DEVICE) for name in kernels}
        phase.wall_s = self._pass(kernels, models, phase, recorder,
                                  cold=True)
        while len(phase.warm_s) < MIN_WARM or sum(phase.warm_s) < seconds:
            phase.warm_s.append(self._pass(kernels, models, phase,
                                           recorder, cold=False))
        phase.peak_rss_mb = self_rss_mb()
        memo = CacheStats()
        for model in models.values():
            memo = memo + model.cache_stats
        phase.layers.update(memo_metrics(memo))
        return phase

    def _pass(self, kernels, models, phase: Phase, recorder,
              cold: bool) -> float:
        results, errors = [], []
        start = clock()
        for name, (space, infos) in kernels.items():
            if recorder is not None:
                recorder.set_kernel(name)
            k0 = clock()
            evaluate = self._evaluator(models[name], phase.request_s
                                       if cold else [])
            try:
                result = dse.explore(space, infos.get, evaluate, DEVICE)
                result.best
            except Exception as exc:          # noqa: BLE001
                errors.append((space.size(),
                               f"{name}: {type(exc).__name__}: {exc}"))
            else:
                results.append((name, result))
            if cold:
                phase.kernel_s.append(clock() - k0)
        elapsed = clock() - start
        for count, reason in errors:
            phase.fail(reason, count)
        for name, result in results:
            feasible = self.golden.feasible(name)
            for entry in result.evaluated:
                sig = entry.design.signature()
                if entry.feasible:
                    phase.check(self.golden, name, sig, entry.cycles)
                    if cold:
                        phase.predictions.append((name, sig,
                                                  entry.cycles))
                elif sig in feasible:
                    phase.fail(f"{name} {sig}: rejected "
                               f"({entry.reject_reason}), golden "
                               f"has it feasible")
                else:
                    phase.attempted += 1
        return elapsed

    @staticmethod
    def _evaluator(model, times: List[float]):
        predict = model.predict

        def evaluate(info, design) -> float:
            t0 = clock()
            cycles = predict(info, design).cycles
            times.append(clock() - t0)
            return cycles

        return evaluate


class Daemon:
    """A ``repro serve`` process with one pool worker and an empty
    store under the run's work directory."""

    _count = itertools.count()

    def __init__(self, root: Path, work: Path) -> None:
        n = next(self._count)
        self.store = work / f"serve-store-{n}"
        self.log = work / f"serve-{n}.log"
        shutil.rmtree(self.store, ignore_errors=True)
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   REPRO_CACHE_DIR=str(self.store),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(root / "src"),
                                   os.environ.get("PYTHONPATH")) if p))
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--jobs", "1",
                 "--cache-dir", str(self.store)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=str(root), start_new_session=True)
        try:
            self.port = self._wait_for_port()
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = clock() + timeout
        marker = "listening on http://"
        while clock() < deadline:
            text = self.log.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {text.strip()}")
            time.sleep(0.01)
        raise RuntimeError("repro serve did not report its port")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=SERVE_TIMEOUT_S)

    def request(self, method: str, path: str, body: bytes = None,
                conn: Optional[http.client.HTTPConnection] = None
                ) -> Tuple[int, bytes]:
        own = conn is None
        conn = conn or self.connect()
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            if own:
                conn.close()

    def metrics(self) -> dict:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Interrupt the daemon, wait for it, and kill anything left in
        its process group (the pool worker)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class ServeMixed:
    """``serve-mixed``: a closed loop of two keep-alive connections
    sending a seeded, Zipf-skewed ``/predict`` mix to ``repro serve``."""

    name = "serve-mixed"
    setup_repeats = 3

    def __init__(self, golden, seed: int, work: Path) -> None:
        self.golden = golden
        self.seed = seed
        self.work = work
        self.root = Path(__file__).resolve().parent.parent

    def setup(self):
        requests, sequence = plans.serve_plan(self.seed, self.golden)
        spaces = {w.qualified_name: designs_by_signature(w)
                  for w in all_workloads()}
        bodies = []
        for name, sig in requests:
            d = spaces[name][sig]
            bodies.append(json.dumps({
                "workload": name, "wg": d.work_group_size,
                "pe": d.num_pe, "cu": d.num_cu,
                "vector": d.vector_width, "mode": d.comm_mode,
                "pipeline": d.work_item_pipeline,
                "wg_pipeline": d.work_group_pipeline}).encode())
        return requests, sequence, bodies, Daemon(self.root, self.work)

    def release(self, state) -> None:
        state[3].stop()

    def measure(self, state, seconds: float, recorder=None) -> Phase:
        requests, sequence, bodies, daemon = state
        phase = Phase()
        try:
            start = clock()
            cold = self._loop(daemon, bodies, sequence, requests,
                              recorder)
            phase.wall_s = clock() - start
            served = daemon.metrics()
            replays = []
            while len(replays) < MIN_WARM or sum(phase.warm_s) < seconds:
                t0 = clock()
                replays.append(self._loop(daemon, bodies, sequence,
                                          requests, recorder))
                phase.warm_s.append(clock() - t0)
        finally:
            daemon.stop()
        phase.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

        seen, per_kernel = set(), {}
        first_s, repeat_s = [], []
        for index, (t0, t1, _, _) in zip(sequence, cold):
            latency = t1 - t0
            phase.request_s.append(latency)
            if index in seen:
                repeat_s.append(latency)
            else:
                first_s.append(latency)
                name = requests[index][0]
                per_kernel[name] = per_kernel.get(name, 0.0) + latency
            seen.add(index)
        phase.kernel_s = list(per_kernel.values())
        for results in [cold] + replays:
            for index, outcome in zip(sequence, results):
                cycles = self._check(phase, requests[index], outcome)
                if cycles is not None and results is cold:
                    phase.predictions.append(requests[index] + (cycles,))

        endpoint = served.get("endpoints", {}).get("predict", {})
        store = (served.get("cache") or {}).get("store") or {}
        phase.layers.update({
            "serve.hot_hits": endpoint.get("hot_hits", 0),
            "serve.evaluations": endpoint.get("evaluations", 0),
            "serve.coalesced": endpoint.get("coalesced", 0),
            "serve.rejected": served.get("rejected", 0),
            "serve.first_p50_ms": 1e3 * median(first_s),
            "serve.repeat_p50_ms": 1e3 * median(repeat_s),
            "cache.put_calls": sum(
                n for layer, n in store.get("layers", {}).items()
                if layer != "response"),
            "cache.store_mb": store.get("size_bytes", 0) / 2 ** 20,
            "cache.evictions": store.get("stats", {}).get("evictions", 0),
        })
        return phase

    def _check(self, phase: Phase, request: Tuple[str, str], outcome
               ) -> Optional[float]:
        name, sig = request
        _, _, status, body = outcome
        if status != 200:
            phase.fail(f"{name} {sig}: HTTP {status} {body!r:.200}")
            return None
        try:
            payload = json.loads(body)
            if not payload["feasible"]:
                raise ValueError(f"infeasible: {payload.get('reason')}")
            if payload["design"]["signature"] != sig:
                raise ValueError(f"answered for "
                                 f"{payload['design']['signature']}")
            cycles = payload["prediction"]["cycles"]
        except (ValueError, KeyError, TypeError) as exc:
            phase.fail(f"{name} {sig}: bad response: {exc}")
            return None
        phase.check(self.golden, name, sig, cycles)
        return cycles

    @staticmethod
    def _loop(daemon: Daemon, bodies, sequence, requests, recorder):
        """Send *sequence* over :data:`SERVE_CONNECTIONS` keep-alive
        connections, each waiting for its reply before sending the
        next request.  Returns ``(start, end, status, body)`` per
        request; a transport error is status None."""
        results: List[tuple] = [None] * len(sequence)
        slots = itertools.count()

        def client() -> None:
            conn = daemon.connect()
            try:
                while True:
                    i = next(slots)
                    if i >= len(sequence):
                        return
                    body = bodies[sequence[i]]
                    t0 = clock()
                    try:
                        if recorder is None:
                            status, data = daemon.request(
                                "POST", "/predict", body, conn)
                        else:
                            status, data = recorder.call(
                                "serve.request", daemon.request,
                                ("POST", "/predict", body, conn), {},
                                kernel=requests[sequence[i]][0])
                    except (OSError, http.client.HTTPException) as exc:
                        conn.close()
                        conn = daemon.connect()
                        status, data = None, repr(exc).encode()
                    results[i] = (t0, clock(), status, data)
            finally:
                conn.close()

        threads = [threading.Thread(target=client)
                   for _ in range(SERVE_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results


RUNNERS = {runner.name: runner for runner in (Catalog, DseSweep,
                                               ServeMixed)}
