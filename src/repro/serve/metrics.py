"""Serve-side observability: latency windows and request counters.

Everything here is in-process bookkeeping for the ``/metrics``
endpoint: per-endpoint request counts with each answer's source (hot
tier, coalesced, or freshly evaluated), latency percentiles, the
coalescing rate, and trace-engine provenance.  Counters are guarded by
a lock because completions land from worker-pool callback threads as
well as the event loop; none of it is on the hot path of a cached
request beyond one lock acquisition.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional


class LatencyWindow:
    """A bounded window of recent request latencies (milliseconds) with
    percentile readout — per endpoint, newest-wins once full."""

    def __init__(self, max_samples: int = 1024) -> None:
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._next = 0          # ring-buffer write cursor once full
        self.count = 0          # lifetime observations
        self._lock = threading.Lock()

    def observe(self, latency_ms: float) -> None:
        with self._lock:
            self.count += 1
            if len(self._samples) < self.max_samples:
                self._samples.append(latency_ms)
            else:
                self._samples[self._next] = latency_ms
                self._next = (self._next + 1) % self.max_samples

    def percentile(self, p: float) -> Optional[float]:
        """The *p*-th percentile (0-100) of the current window, by the
        nearest-rank method; None before any observation."""
        with self._lock:
            data = sorted(self._samples)
        if not data:
            return None
        rank = max(0, min(len(data) - 1,
                          int(round(p / 100.0 * (len(data) - 1)))))
        return data[rank]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            data = sorted(self._samples)
            count = self.count
        if not data:
            return {"count": 0}

        def at(p: float) -> float:
            rank = max(0, min(len(data) - 1,
                              int(round(p / 100.0 * (len(data) - 1)))))
            return round(data[rank], 3)

        return {"count": count, "p50_ms": at(50), "p90_ms": at(90),
                "p99_ms": at(99), "max_ms": round(data[-1], 3)}


class EndpointMetrics:
    """Counters of one endpoint: requests, outcomes, and where the
    response came from (hot tier / coalesced onto an in-flight
    evaluation / freshly evaluated)."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.hot_hits = 0
        self.coalesced = 0
        self.evaluations = 0
        self.latency = LatencyWindow()

    def snapshot(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "hot_hits": self.hot_hits,
            "coalesced": self.coalesced,
            "evaluations": self.evaluations,
            "latency": self.latency.snapshot(),
        }


class ServerMetrics:
    """The daemon's full counter set, rendered by ``/metrics``."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self._endpoints: Dict[str, EndpointMetrics] = {}
        self.rejected = 0             # 503 backpressure rejections
        self.responses: Dict[int, int] = {}
        #: analyses per trace engine ("synth" / "vectorized" /
        #: "scalar"), harvested from freshly evaluated payloads
        self.trace_paths: Dict[str, int] = {}

    def endpoint(self, name: str) -> EndpointMetrics:
        with self._lock:
            if name not in self._endpoints:
                self._endpoints[name] = EndpointMetrics()
            return self._endpoints[name]

    def count_response(self, status: int) -> None:
        with self._lock:
            self.responses[status] = self.responses.get(status, 0) + 1

    def observe(self, name: str, status: int, latency_ms: float,
                outcome: Optional[str] = None) -> None:
        """Record one finished request.  *outcome* attributes the
        response source: 'hot', 'coalesced' or 'evaluated'."""
        ep = self.endpoint(name)
        with self._lock:
            ep.requests += 1
            if status >= 400:
                ep.errors += 1
            if outcome == "hot":
                ep.hot_hits += 1
            elif outcome == "coalesced":
                ep.coalesced += 1
            elif outcome == "evaluated":
                ep.evaluations += 1
        ep.latency.observe(latency_ms)
        self.count_response(status)

    def count_trace_paths(self, counts: Dict[str, int]) -> None:
        """Accumulate per-engine trace provenance from one freshly
        evaluated payload (hot hits and coalesced requests re-serve an
        already-counted evaluation, so they don't count again)."""
        with self._lock:
            for source, n in counts.items():
                self.trace_paths[source] = \
                    self.trace_paths.get(source, 0) + n

    def coalescing_summary(self) -> Dict[str, object]:
        with self._lock:
            attached = sum(e.coalesced for e in self._endpoints.values())
            evaluated = sum(e.evaluations
                            for e in self._endpoints.values())
        handled = attached + evaluated
        return {
            "attached": attached,
            "evaluations": evaluated,
            "rate": round(attached / handled, 4) if handled else 0.0,
        }

    def payload(self) -> Dict[str, object]:
        """The endpoint/coalescing half of the ``/metrics`` body (the
        daemon adds queue and cache sections)."""
        with self._lock:
            endpoints = {name: ep.snapshot()
                         for name, ep in self._endpoints.items()}
            responses = {str(code): n
                         for code, n in sorted(self.responses.items())}
            rejected = self.rejected
            trace_paths = {source: n for source, n
                           in sorted(self.trace_paths.items())}
        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "responses": responses,
            "rejected": rejected,
            "endpoints": endpoints,
            "coalescing": self.coalescing_summary(),
            "trace_paths": trace_paths,
        }
