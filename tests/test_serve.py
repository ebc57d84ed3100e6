"""The serve daemon: coalescing, backpressure, streaming, metrics.

These tests run the real asyncio server on an ephemeral port in a
background thread (``serve_in_thread``) and talk to it over real HTTP.
Where determinism matters (coalescing, backpressure) the worker pool's
``submit`` is replaced with a gated stand-in so the test controls
exactly when an evaluation completes.
"""

import concurrent.futures
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ServerConfig, serve_in_thread
from repro.serve.api import (
    MAX_LAUNCH_SIZE,
    ApiError,
    normalize_predict_spec,
    predict_payload,
    request_key,
    run_task,
    shard_tasks,
)
from repro.serve.pool import fork_available
from repro.workloads import get_workload

SAXPY = """
__kernel void saxpy(__global float *x, __global float *y,
                    float a, int n) {
    int i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"""

PREDICT_SPEC = {"source": SAXPY, "global_size": 128, "wg": 32}
#: reads rows past its buffers at a global size of 1024
ATAX = get_workload("polybench", "atax", "atax").source
STATIC_WORKLOAD = "rodinia/backprop/layer"

#: request bodies that parse as JSON (``json.loads`` accepts the
#: non-standard ``Infinity``/``NaN`` literals) but name no valid
#: request: each must be a 400 with a JSON error, never a 500
HOSTILE_BODIES = {
    "wg-infinity": (
        "/predict", '{"workload": "polybench/atax/atax", "wg": Infinity}'),
    "top-infinity": (
        "/explore", '{"workload": "polybench/atax/atax", "top": Infinity}'),
    "global-size-infinity": (
        "/predict", json.dumps({"source": SAXPY})[:-1]
        + ', "global_size": Infinity}'),
    "args-infinity": (
        "/predict",
        '{"workload": "polybench/atax/atax", "args": {"n": Infinity}}'),
    "args-nan": (
        "/predict", json.dumps({"source": SAXPY, "global_size": 128})[:-1]
        + ', "args": {"n": NaN}}'),
    "workload-not-a-string": ("/predict", '{"workload": ["a"]}'),
    "kernel-not-a-string": (
        "/explore", json.dumps({"source": SAXPY, "global_size": 128,
                                "kernel": ["saxpy"]})),
    "graph-wg-does-not-divide": (
        "/predict-graph", '{"program": "srad", "wg": 3}'),
    "wg-fractional": (
        "/predict", '{"workload": "polybench/atax/atax", "wg": 2.5}'),
    "pe-boolean": (
        "/predict", '{"workload": "polybench/atax/atax", "pe": true}'),
    "global-size-huge": (
        "/predict", json.dumps({"source": SAXPY,
                                "global_size": MAX_LAUNCH_SIZE + 1})),
    "wg-huge": (
        "/predict", json.dumps({"workload": "polybench/atax/atax",
                                "wg": MAX_LAUNCH_SIZE + 1})),
    "tier-instant": (
        "/predict", json.dumps({"workload": "polybench/atax/atax",
                                "tier": "instant"})),
    "args-unknown-name": (
        "/predict", '{"workload": "rodinia/nw/nw1", "args": {"bogus": 3}}'),
    "explore-args-unknown-name": (
        "/explore", json.dumps({"source": SAXPY, "global_size": 128,
                                "args": {"bogus": 3}})),
    "source-faults-while-profiled": (
        "/predict", json.dumps({"source": ATAX, "global_size": 1024})),
    "graph-wg-pipe-only": (
        "/predict-graph", '{"program": "scale", "wg": 7}'),
    "args-int-fractional": (
        "/predict",
        '{"workload": "rodinia/nw/nw1", "args": {"penalty": 10.7}}'),
    "args-int-out-of-range": (
        "/predict",
        '{"workload": "rodinia/nw/nw1", "args": {"penalty": 1e300}}'),
}


def _post(url, path, spec, timeout=60):
    req = urllib.request.Request(
        url + path, data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        # The error holds the response: close its socket; the status
        # and headers stay readable.
        exc.close()
        raise


def _get_json(url, path):
    with urllib.request.urlopen(url + path, timeout=30) as resp:
        return json.loads(resp.read())


@pytest.fixture
def server():
    handle = serve_in_thread(ServerConfig(port=0, executor="thread",
                                          jobs=2))
    yield handle
    handle.stop()


class GatedPool:
    """A pool stand-in whose futures only resolve once ``release()``
    is called — makes request overlap deterministic."""

    mode = "gated"
    jobs = 1

    def __init__(self, fail_with=None):
        self.calls = []
        self.gate = threading.Event()
        self.fail_with = fail_with

    def submit(self, task):
        self.calls.append(task)
        future = concurrent.futures.Future()

        def run():
            self.gate.wait(30)
            if self.fail_with is not None:
                future.set_exception(self.fail_with)
            else:
                try:
                    future.set_result(run_task(task, None))
                except Exception as exc:  # pragma: no cover
                    future.set_exception(exc)

        threading.Thread(target=run, daemon=True).start()
        return future

    def release(self):
        self.gate.set()

    def shutdown(self):
        self.gate.set()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestBasics:
    def test_healthz(self, server):
        assert _get_json(server.url, "/healthz") == {"status": "ok"}

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(server.url, "/nope", {})
        assert exc.value.code == 404

    def test_bad_json_400(self, server):
        req = urllib.request.Request(server.url + "/predict",
                                     data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        with exc.value:
            assert exc.value.code == 400

    @pytest.mark.parametrize("case", sorted(HOSTILE_BODIES))
    def test_hostile_body_is_a_client_error(self, server, case):
        path, body = HOSTILE_BODIES[case]
        req = urllib.request.Request(server.url + path,
                                     data=body.encode("utf-8"))
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=60)
        with exc.value:
            assert exc.value.code == 400
            assert json.loads(exc.value.read())["error"]

    @pytest.mark.parametrize("spec", [
        {"source": SAXPY, "global_size": MAX_LAUNCH_SIZE + 1},
        {"source": SAXPY, "global_size": 10 ** 30},
        {"workload": "polybench/atax/atax", "wg": MAX_LAUNCH_SIZE + 1},
    ])
    def test_launch_sizes_bounded_before_allocation(self, spec,
                                                    monkeypatch):
        from repro.serve import api

        def refuse(*args, **kwargs):
            raise AssertionError("buffers allocated for a rejected spec")

        monkeypatch.setattr(api, "build_buffers", refuse)
        with pytest.raises(ApiError, match="at most"):
            normalize_predict_spec(spec)
        with pytest.raises(ApiError, match="at most"):
            api.predict_payload(spec)

    def test_launch_size_bound_is_inclusive(self):
        spec = normalize_predict_spec({"source": SAXPY,
                                       "global_size": MAX_LAUNCH_SIZE,
                                       "wg": MAX_LAUNCH_SIZE})
        assert spec["global_size"] == spec["wg"] == MAX_LAUNCH_SIZE

    def test_integral_design_fields_still_accepted(self):
        spec = normalize_predict_spec({"workload": "polybench/atax/atax",
                                       "wg": 64.0, "pe": "2", "cu": 1})
        assert (spec["wg"], spec["pe"], spec["cu"]) == (64, 2, 1)

    @pytest.mark.parametrize("penalty", [10.7, 2.0 ** 31, -2.0 ** 31 - 1,
                                         1e300])
    def test_integer_args_are_checked_everywhere(self, penalty):
        """A value an ``int`` argument cannot hold is rejected the same
        way by every entry point, never truncated or wrapped."""
        from repro.serve import api
        spec = {"workload": "rodinia/nw/nw1", "args": {"penalty": penalty}}
        for check in (lambda: request_key("predict", spec),
                      lambda: request_key("explore", spec),
                      lambda: shard_tasks("explore", spec),
                      lambda: api.predict_payload(spec)):
            with pytest.raises(ApiError, match="takes an integer"):
                check()

    def test_integral_args_still_accepted(self):
        def key(penalty):
            return request_key("predict", {"workload": "rodinia/nw/nw1",
                                           "args": {"penalty": penalty}})
        assert key(10) == key(10.0) == key("10")
        key(2 ** 31 - 1)
        key(-2 ** 31)

    def test_retired_explore_fields_are_ignored(self, server):
        """``prefilter``/``top_k`` are unknown fields: the answer is
        the exhaustive sweep, byte for byte."""
        spec = {"source": SAXPY, "global_size": 32, "top": 3}
        status, retired = _post(server.url, "/explore",
                                dict(spec, prefilter="ranked",
                                     top_k=8), timeout=300)
        assert status == 200
        status, plain = _post(server.url, "/explore", spec, timeout=300)
        assert status == 200
        assert retired == plain

    def test_predict_roundtrip_and_hot_hit(self, server):
        status, body1 = _post(server.url, "/predict", PREDICT_SPEC)
        assert status == 200
        payload = json.loads(body1)
        assert payload["feasible"] is True
        assert payload["prediction"]["cycles"] > 0
        status, body2 = _post(server.url, "/predict", PREDICT_SPEC)
        assert body2 == body1
        metrics = _get_json(server.url, "/metrics")
        ep = metrics["endpoints"]["predict"]
        assert ep["evaluations"] == 1
        assert ep["hot_hits"] == 1
        assert metrics["cache"]["tiers"]["hot"]["hits"] >= 1

    def test_infeasible_design_is_a_valid_answer(self, server):
        spec = dict(PREDICT_SPEC, wg=48)     # 48 does not divide 128
        status, body = _post(server.url, "/predict", spec)
        assert status == 200
        payload = json.loads(body)
        assert payload["feasible"] is False
        assert "work-group size" in payload["reason"]

    def test_metrics_shape(self, server):
        _post(server.url, "/predict", PREDICT_SPEC)
        m = _get_json(server.url, "/metrics")
        assert m["workers"]["mode"] == "thread"
        assert m["queue"]["limit"] == 64
        assert m["queue"]["active"] == 0
        assert "p50_ms" in m["endpoints"]["predict"]["latency"]
        assert 0.0 <= m["coalescing"]["rate"] <= 1.0
        assert m["cache"]["tiers"]["hot"]["capacity"] == 2048
        assert "tiers" not in m

    def test_exact_payload_carries_tier(self):
        from repro.serve import api
        payload = api.predict_payload(
            {"workload": STATIC_WORKLOAD, "wg": 16})
        assert payload["tier"] == "exact"

    def test_request_key_ignores_retired_explore_fields(self):
        """The retired explore ``prefilter``/``top_k`` fields are
        unknown fields now, so they do not move the explore key."""
        from repro.serve import api
        ex = {"workload": STATIC_WORKLOAD}
        assert api.request_key("explore", ex) == api.request_key(
            "explore", dict(ex, prefilter="ranked"))
        assert api.request_key("explore", ex) == api.request_key(
            "explore", dict(ex, prefilter="ranked", top_k=128))


class TestCoalescing:
    def test_identical_requests_share_one_evaluation(self, server):
        pool = GatedPool()
        server.server.pool = pool

        results = []

        def fire():
            results.append(_post(server.url, "/predict", PREDICT_SPEC))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        # exactly one task reaches the pool, then everyone waits on it
        assert _wait_for(lambda: len(pool.calls) == 1)
        assert _wait_for(
            lambda: len(server.server._inflight) == 1)
        time.sleep(0.2)            # let the remaining posts attach
        assert len(pool.calls) == 1
        pool.release()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 6
        bodies = {body for _, body in results}
        assert len(bodies) == 1    # bit-identical bodies for everyone
        assert all(status == 200 for status, _ in results)
        m = _get_json(server.url, "/metrics")
        ep = m["endpoints"]["predict"]
        assert ep["evaluations"] == 1
        assert ep["coalesced"] == 5
        assert m["coalescing"]["attached"] == 5
        assert m["coalescing"]["rate"] > 0

    def test_failure_propagates_and_is_not_cached(self, server):
        pool = GatedPool(fail_with=RuntimeError("scheduler exploded"))
        server.server.pool = pool

        codes = []

        def fire():
            try:
                codes.append(_post(server.url, "/predict",
                                   PREDICT_SPEC)[0])
            except urllib.error.HTTPError as exc:
                codes.append(exc.code)

        threads = [threading.Thread(target=fire) for _ in range(3)]
        for t in threads:
            t.start()
        assert _wait_for(lambda: len(pool.calls) == 1)
        time.sleep(0.2)
        pool.release()
        for t in threads:
            t.join(timeout=30)
        # every coalesced waiter sees the failure
        assert codes == [500, 500, 500]
        # the failure was not cached: a fresh request re-evaluates and
        # succeeds once the pool behaves again
        server.server.pool = GatedPool()
        server.server.pool.release()
        status, body = _post(server.url, "/predict", PREDICT_SPEC)
        assert status == 200
        assert json.loads(body)["feasible"] is True


class TestBackpressure:
    def test_503_when_admission_queue_full(self):
        handle = serve_in_thread(ServerConfig(
            port=0, executor="thread", jobs=1, queue_limit=1))
        try:
            pool = GatedPool()
            handle.server.pool = pool
            first = []
            t = threading.Thread(target=lambda: first.append(
                _post(handle.url, "/predict", PREDICT_SPEC)))
            t.start()
            assert _wait_for(lambda: handle.server._active == 1)
            # a *different* request cannot be admitted...
            other = dict(PREDICT_SPEC, wg=64)
            with pytest.raises(urllib.error.HTTPError) as exc:
                _post(handle.url, "/predict", other)
            assert exc.value.code == 503
            assert exc.value.headers["Retry-After"] == "1"
            # ...but an *identical* one still coalesces (no new slot)
            second = []
            t2 = threading.Thread(target=lambda: second.append(
                _post(handle.url, "/predict", PREDICT_SPEC)))
            t2.start()
            time.sleep(0.2)
            pool.release()
            t.join(timeout=30)
            t2.join(timeout=30)
            assert first[0][0] == 200
            assert second[0][1] == first[0][1]
            m = _get_json(handle.url, "/metrics")
            assert m["rejected"] == 1
            assert m["responses"]["503"] == 1
        finally:
            handle.stop()

    def test_refused_sources_do_not_grow_the_memo_unbounded(
            self, monkeypatch):
        # request_key compiles each inline source before admission, so
        # even requests answered 503 leave a compiled module behind.
        from repro.cache.hot import HotCache
        from repro.serve import api
        memo = HotCache(max_entries=4)
        monkeypatch.setattr(api, "_SOURCE_MEMO", memo)
        handle = serve_in_thread(ServerConfig(
            port=0, executor="thread", jobs=1, queue_limit=0))
        try:
            for k in range(10):
                source = SAXPY.replace("a * x[i]", f"a * x[i] + {k}.0f")
                with pytest.raises(urllib.error.HTTPError) as exc:
                    _post(handle.url, "/predict",
                          dict(PREDICT_SPEC, source=source))
                assert exc.value.code == 503
            assert 0 < len(memo) <= 4
        finally:
            handle.stop()


class TestSourceMemo:
    def test_inline_predict_compiles_once(self, source_compiles):
        """The request key and the evaluation share one compiled
        module."""
        handle = serve_in_thread(ServerConfig(
            port=0, executor="thread", jobs=1, no_cache=True))
        try:
            status, _ = _post(handle.url, "/predict", PREDICT_SPEC)
            assert status == 200
        finally:
            handle.stop()
        assert source_compiles == [SAXPY]

    def test_threads_share_one_module(self, source_compiles):
        """Threads answering one inline source at once share its module
        (and the memo on its function) and all give the serial answer."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(predict_payload, PREDICT_SPEC)
                           for _ in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [predict_payload(PREDICT_SPEC)] * 8
        assert set(source_compiles) == {SAXPY}


class TestStreaming:
    def test_explore_stream_matches_final_payload(self, server):
        import http.client

        spec = {"source": SAXPY, "global_size": 32, "top": 3}
        status, body = _post(server.url, "/explore", spec, timeout=300)
        assert status == 200

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=300)
        conn.request("POST", "/explore",
                     body=json.dumps(dict(spec, stream=True)))
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "application/x-ndjson"
        events = [json.loads(line)
                  for line in resp.read().decode().strip().split("\n")]
        conn.close()
        assert events[0]["event"] == "start"
        shard_events = [e for e in events if e["event"] == "shard"]
        assert len(shard_events) == events[0]["shards"]
        assert events[-1]["event"] == "result"
        # the streamed result is the same payload as the plain answer
        assert events[-1]["payload"] == json.loads(body)

    def test_suite_stream(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=300)
        conn.request("POST", "/suite", body=json.dumps(
            {"limit": 2, "designs": 2, "stream": True}))
        resp = conn.getresponse()
        assert resp.status == 200
        events = [json.loads(line)
                  for line in resp.read().decode().strip().split("\n")]
        conn.close()
        names = [e["workload"] for e in events if e["event"] == "shard"]
        assert len(names) == 2
        result = events[-1]["payload"]
        assert result["workloads"] == 2
        assert result["predictions"] == len(result["rows"]) == 4


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestProcessPool:
    def test_worker_store_counters_reach_metrics(self, tmp_path):
        """Forked workers count on their own store handle; each task's
        counter delta must reach the daemon's /metrics."""
        handle = serve_in_thread(ServerConfig(
            port=0, executor="process", jobs=1,
            cache_dir=str(tmp_path / "store")))
        try:
            for spec in (PREDICT_SPEC, dict(PREDICT_SPEC, pe=2)):
                status, _ = _post(handle.url, "/predict", spec)
                assert status == 200
            m = _get_json(handle.url, "/metrics")
        finally:
            handle.stop()
        assert m["workers"]["mode"] == "process"
        stats = m["cache"]["store"]["stats"]
        assert sum(stats["puts"].values()) > 0
        # the second design reuses the first one's kernel analysis
        assert stats["hits"].get("analysis", 0) > 0
