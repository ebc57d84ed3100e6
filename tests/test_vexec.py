"""Unit tests for the lane-vectorized interpreter: divergence edge
cases, the barrier-divergence contract, the scalar fallback, and the
executor state-pool regression."""

import numpy as np
import pytest

from repro.frontend import compile_opencl
from repro.interp import (
    Buffer,
    KernelExecutor,
    NDRange,
    VectorizationError,
    VectorizedExecutor,
)


def _compare(src, name, make_buffers, scalars, ndrange, max_groups=None):
    """Run both engines on fresh inputs and assert bit-identity."""
    fn = compile_opencl(src).get(name)
    for i, inst in enumerate(fn.instructions()):
        inst.site_id = i
    ref_buffers = make_buffers()
    got_buffers = make_buffers()
    ref = KernelExecutor(fn, ref_buffers, dict(scalars)).run(
        ndrange, max_groups=max_groups)
    got = VectorizedExecutor(fn, got_buffers, dict(scalars)).run(
        ndrange, max_groups=max_groups)
    assert got.block_counts == ref.block_counts
    assert got.trip_counts == ref.trip_counts
    assert got.barriers_per_item == ref.barriers_per_item
    assert len(got.traces) == len(ref.traces)
    for wi in range(len(ref.traces)):
        assert list(got.traces[wi]) == list(ref.traces[wi])
    for key in ref_buffers:
        a, b = ref_buffers[key].data, got_buffers[key].data
        assert np.array_equal(a, b, equal_nan=(a.dtype.kind == "f"))
    return ref, got


class TestDivergence:
    def test_all_lanes_inactive_loop_body(self):
        # The loop bound is 0 for every lane: the body never runs, the
        # back-edge block never executes, trip counts record 0.
        src = r"""
        __kernel void k(__global int* out, int n) {
            int tid = get_global_id(0);
            int acc = 0;
            for (int i = 0; i < n; i++)
                acc += i;
            out[tid] = acc;
        }
        """
        _compare(src, "k",
                 lambda: {"out": Buffer("out", np.zeros(8, np.int32))},
                 {"n": 0}, NDRange(8, 8))

    def test_per_lane_data_dependent_trip_counts(self):
        # Every lane runs the loop a different number of times; exit
        # lanes wait at the loop-exit block until the rest reconverge.
        src = r"""
        __kernel void k(__global const int* in, __global int* out,
                        __global int* trips) {
            int tid = get_global_id(0);
            int acc = 0;
            for (int i = 0; i < trips[tid]; i++)
                acc += in[i];
            out[tid] = acc;
        }
        """
        trips = np.array([0, 5, 1, 7, 3, 2, 6, 4], np.int32)
        _compare(src, "k",
                 lambda: {"in": Buffer("in", np.arange(8, dtype=np.int32)),
                          "out": Buffer("out", np.zeros(8, np.int32)),
                          "trips": Buffer("trips", trips.copy())},
                 {}, NDRange(8, 8))

    def test_nan_float_compares(self):
        # NaN compares are false under every predicate in both
        # engines; both branches of the select must agree lane-wise.
        src = r"""
        __kernel void k(__global float* a, __global int* out) {
            int tid = get_global_id(0);
            int r = 0;
            if (a[tid] < 1.0f) r += 1;
            if (a[tid] > 1.0f) r += 2;
            if (a[tid] == a[tid]) r += 4;
            out[tid] = r;
        }
        """
        vals = np.array([0.5, float("nan"), 2.0, float("nan"),
                         1.0, -1.0, float("inf"), float("-inf")],
                        np.float32)
        _compare(src, "k",
                 lambda: {"a": Buffer("a", vals.copy()),
                          "out": Buffer("out", np.zeros(8, np.int32))},
                 {}, NDRange(8, 8))
        # NaN must flow through the observable result, not just the
        # branch: lane 1 and 3 take neither < nor > and fail ==.
        fn = compile_opencl(src).get("k")
        bufs = {"a": Buffer("a", vals.copy()),
                "out": Buffer("out", np.zeros(8, np.int32))}
        VectorizedExecutor(fn, bufs, {}).run(NDRange(8, 8))
        assert list(bufs["out"].data) == [5, 0, 6, 0, 4, 5, 6, 5]

    def test_guarded_return_then_barrier_converges(self):
        # Lanes that retire via an early return count as converged at
        # the remaining lanes' single barrier site (scalar phase
        # semantics); this is the bfs/pgain shape.
        src = r"""
        __kernel void k(__global int* out, int n) {
            int tid = get_local_id(0);
            __local int tmp[8];
            if (tid >= n) return;
            tmp[tid] = tid;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[tid] = tmp[n - 1 - tid];
        }
        """
        _compare(src, "k",
                 lambda: {"out": Buffer("out", np.zeros(8, np.int32))},
                 {"n": 5}, NDRange(8, 8))

    def test_barrier_under_divergence_raises(self):
        # Live lanes parked at two different barrier sites: outside
        # the vectorizable subset (lockstep release order would be
        # unspecified), so the vectorized engine refuses.
        src = r"""
        __kernel void k(__global int* a) {
            int tid = get_local_id(0);
            if (a[tid] > 0) {
                barrier(CLK_LOCAL_MEM_FENCE);
                a[tid] = 1;
            } else {
                barrier(CLK_LOCAL_MEM_FENCE);
                a[tid] = 2;
            }
        }
        """
        fn = compile_opencl(src).get("k")
        data = np.array([1, 0, 1, 0], np.int32)
        ex = VectorizedExecutor(fn, {"a": Buffer("a", data)}, {})
        with pytest.raises(VectorizationError,
                           match="barrier reached under divergence"):
            ex.run(NDRange(4, 4))
        # The failed run must leave the buffer untouched (the caller
        # falls back to the scalar interpreter on pristine inputs).
        assert list(data) == [1, 0, 1, 0]

    def test_auto_mode_falls_back_to_scalar(self):
        from repro.analysis import analyze_kernel
        from repro.devices import VIRTEX7

        src = r"""
        __kernel void k(__global int* a) {
            int tid = get_local_id(0);
            if (a[tid] > 0) {
                barrier(CLK_LOCAL_MEM_FENCE);
                a[tid] = 1;
            } else {
                barrier(CLK_LOCAL_MEM_FENCE);
                a[tid] = 2;
            }
        }
        """
        fn = compile_opencl(src).get("k")

        def buffers():
            return {"a": Buffer("a", np.array([1, 0, 1, 0], np.int32))}

        info = analyze_kernel(fn, buffers(), {}, NDRange(4, 4), VIRTEX7)
        assert info.trace_source == "scalar"
        with pytest.raises(VectorizationError):
            VectorizedExecutor(fn, buffers(), {}).run(NDRange(4, 4))


def _spy_lane_runs(monkeypatch):
    """Record the group count of every lane run: ``[n]`` is one merged
    run over n groups, ``[n, 1, ..., 1]`` a merged run rolled back and
    rerun group by group."""
    runs = []
    real = VectorizedExecutor._run_lanes

    def spy(self, gids):
        runs.append(len(gids))
        return real(self, gids)

    monkeypatch.setattr(VectorizedExecutor, "_run_lanes", spy)
    return runs


class TestMergedGroups:
    def test_cross_group_raw_rolls_back(self, monkeypatch):
        # Every group reads buf[l] before group 0 overwrites it: run in
        # launch order, group 1 sees group 0's 7s; run merged it would
        # read the initial zeros.
        src = r"""
        __kernel void k(__global int* buf, __global int* out) {
            int l = get_local_id(0);
            out[get_global_id(0)] = buf[l];
            if (get_group_id(0) == 0)
                buf[l] = 7;
        }
        """
        runs = _spy_lane_runs(monkeypatch)
        _, got = _compare(
            src, "k",
            lambda: {"buf": Buffer("buf", np.zeros(4, np.int32)),
                     "out": Buffer("out", np.zeros(8, np.int32))},
            {}, NDRange(8, 4))
        assert runs == [2, 1, 1]
        assert got.groups_executed == 2

    def test_groups_run_different_barrier_counts(self, monkeypatch):
        # The trip count, and so the number of barriers, is uniform
        # within a group but differs between groups, and odd and even
        # groups park at different barrier sites: each group is
        # released at its own barriers.
        src = r"""
        __kernel void k(__global const int* n, __global int* out) {
            __local int tmp[4];
            int l = get_local_id(0);
            int g = get_group_id(0);
            int acc = 0;
            for (int i = 0; i < n[g]; i++) {
                tmp[l] = acc + i;
                if (g % 2) {
                    barrier(CLK_LOCAL_MEM_FENCE);
                    acc += tmp[(l + 1) % 4];
                } else {
                    barrier(CLK_LOCAL_MEM_FENCE);
                    acc -= tmp[(l + 3) % 4];
                }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            out[get_global_id(0)] = acc;
        }
        """
        runs = _spy_lane_runs(monkeypatch)
        ref, got = _compare(
            src, "k",
            lambda: {"n": Buffer("n", np.array([3, 0, 5, 1], np.int32)),
                     "out": Buffer("out", np.zeros(16, np.int32))},
            {}, NDRange(16, 4))
        assert runs == [4]
        assert got.barriers_per_item == ref.barriers_per_item == 10

    def test_fault_in_last_group_matches_scalar(self, monkeypatch):
        # Groups 0-2 store before group 3 reads out of bounds: the error
        # is the scalar executor's, and no store survives the launch.
        src = r"""
        __kernel void k(__global const int* idx, __global const int* in,
                        __global int* out) {
            int gid = get_global_id(0);
            out[gid] = in[idx[gid]];
        }
        """
        idx = np.arange(16, dtype=np.int32)
        idx[15] = 1000
        fn = compile_opencl(src).get("k")

        def buffers():
            return {"idx": Buffer("idx", idx.copy()),
                    "in": Buffer("in", np.arange(16, dtype=np.int32) + 1),
                    "out": Buffer("out", np.zeros(16, np.int32))}

        ref_bufs = buffers()
        with pytest.raises(Exception) as ref:
            KernelExecutor(fn, ref_bufs, {}).run(NDRange(16, 4))
        runs = _spy_lane_runs(monkeypatch)
        got_bufs = buffers()
        with pytest.raises(Exception) as got:
            VectorizedExecutor(fn, got_bufs, {}).run(NDRange(16, 4))
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)
        assert runs == [4, 1, 1, 1, 1]
        for name, buf in buffers().items():
            assert np.array_equal(got_bufs[name].data, buf.data)

    def test_groups_own_their_local_arena(self, monkeypatch):
        # Every group writes the same __local offset; each reads back
        # only its own value, at the same trace address as alone.
        src = r"""
        __kernel void k(__global int* out) {
            __local int cell[1];
            if (get_local_id(0) == 0)
                cell[0] = 10 * (get_group_id(0) + 1);
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = cell[0];
        }
        """
        runs = _spy_lane_runs(monkeypatch)
        _, got = _compare(
            src, "k",
            lambda: {"out": Buffer("out", np.zeros(12, np.int32))},
            {}, NDRange(12, 4))
        assert runs == [3]
        local_addrs = {
            a.addr for wi in range(len(got.traces))
            for a in got.traces[wi] if a.space == "local"}
        assert local_addrs == {64}


    def test_local_atomics_stay_in_their_group(self, monkeypatch):
        # Local atomics do not force the per-group loop: each group
        # counts into its own arena.
        src = r"""
        __kernel void k(__global const int* in, __global int* out) {
            __local int hits[1];
            if (get_local_id(0) == 0)
                hits[0] = 0;
            barrier(CLK_LOCAL_MEM_FENCE);
            if (in[get_global_id(0)] > 0)
                atomic_inc(&hits[0]);
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = hits[0];
        }
        """
        runs = _spy_lane_runs(monkeypatch)
        flags = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1], np.int32)
        _compare(src, "k",
                 lambda: {"in": Buffer("in", flags.copy()),
                          "out": Buffer("out", np.zeros(12, np.int32))},
                 {}, NDRange(12, 4))
        assert runs == [3]


class TestStatePool:
    def test_pool_shrinks_to_current_work_group(self):
        src = r"""
        __kernel void k(__global int* out) {
            out[get_global_id(0)] = 1;
        }
        """
        fn = compile_opencl(src).get("k")
        ex = KernelExecutor(
            fn, {"out": Buffer("out", np.zeros(256, np.int32))}, {})
        ex.run(NDRange(256, 256))
        assert len(ex._state_pool) == 256
        # A later launch at a smaller work-group size must not keep the
        # 256 states alive.
        ex.run(NDRange(256, 16))
        assert len(ex._state_pool) == 16
        ex.run(NDRange(256, 64))
        assert len(ex._state_pool) == 64


class TestProvenanceSurface:
    def test_server_metrics_trace_path_counters(self):
        from repro.serve.metrics import ServerMetrics

        m = ServerMetrics()
        m.count_trace_paths({"vectorized": 2, "synth": 1})
        m.count_trace_paths({"vectorized": 1})
        payload = m.payload()
        assert payload["trace_paths"] == {"synth": 1, "vectorized": 3}

    def test_daemon_harvests_predict_and_suite_payloads(self):
        from repro.serve.daemon import PredictionServer, ServerConfig

        server = PredictionServer(ServerConfig(no_cache=True))
        try:
            server._harvest_trace_paths(
                {"traces": {"provenance": "vectorized"}})
            server._harvest_trace_paths(
                {"traces": {"provenance": "synthesized"}})
            server._harvest_trace_paths(
                {"trace_paths": {"scalar": 2, "vectorized": 3}})
            assert server.metrics.payload()["trace_paths"] == {
                "scalar": 2, "synth": 1, "vectorized": 4}
        finally:
            server.pool.shutdown()

    def test_suite_payload_counts_trace_paths(self):
        from repro.serve import api

        spec = {"suite": "rodinia", "limit": 3, "designs": 2}
        payload = api.suite_payload(spec)
        assert payload["trace_paths"]
        assert (sum(payload["trace_paths"].values())
                == payload["predictions"])
        for row in payload["rows"]:
            assert row["trace_source"] in ("synth", "vectorized",
                                           "scalar")

    def test_predict_payload_reports_vectorized_provenance(
            self, monkeypatch):
        from repro.serve import api

        spec = {"workload": "rodinia/bfs/bfs_1"}
        payload = api.predict_payload(api.normalize_predict_spec(spec))
        assert payload["traces"]["provenance"] == "vectorized"

        def refuse(self, *args, **kwargs):
            raise VectorizationError("forced")

        monkeypatch.setattr(VectorizedExecutor, "run", refuse)
        scalar = api.predict_payload(api.normalize_predict_spec(spec))
        assert scalar["traces"]["provenance"] == "interpreted"
        assert scalar["prediction"] == payload["prediction"]
