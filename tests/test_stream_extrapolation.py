"""Regression tests for per-group memory-stream extrapolation.

Guarded stencils (jacobi-2d style) trace *nothing* in boundary
work-groups and change their active-work-item shape with a short row
period; the extrapolator must neither replay an empty boundary group
for the rest of the NDRange nor mis-shift congruence classes.
"""

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.devices import VIRTEX7
from repro.dse import Design
from repro.frontend import compile_opencl
from repro.interp import Buffer, KernelExecutor, NDRange
from repro.simulator import SystemRun

GUARDED = """
__kernel void guarded(__global const float* a, __global float* b,
                      int dim) {
    int tid = get_global_id(0);
    int row = tid / 48;
    int col = tid % 48;
    if (row >= 1 && row < 47 && col >= 1 && col < 47) {
        b[tid] = 0.25f * (a[tid - 1] + a[tid + 1]
                          + a[tid - 48] + a[tid + 48]);
    }
}
"""


def make_info(wg=32):
    n = 48 * 48
    fn = compile_opencl(GUARDED).get("guarded")
    return analyze_kernel(
        fn,
        {"a": Buffer("a", np.ones(n, np.float32)),
         "b": Buffer("b", np.zeros(n, np.float32))},
        {"dim": 48}, NDRange(n, wg), VIRTEX7)


def exact_group_requests(info, design, group):
    """Ground truth: execute every group and build its stream."""
    from repro.analysis import GroupStreamExtrapolator
    from repro.analysis.packed import pack_traces
    from repro.dram.coalesce import coalesce_packed
    n = 48 * 48
    fn = compile_opencl(GUARDED).get("guarded")
    ex = KernelExecutor(
        fn,
        {"a": Buffer("a", np.ones(n, np.float32)),
         "b": Buffer("b", np.zeros(n, np.float32))},
        {"dim": 48})
    launch = ex.run(NDRange(n, design.work_group_size))
    wg = design.work_group_size
    traces = [[a for a in t if a.space == "global"]
              for t in launch.traces]
    stream = GroupStreamExtrapolator(
        pack_traces(traces[group * wg:(group + 1) * wg], wg),
        pipelined=design.work_item_pipeline).stream(0)
    return requests(coalesce_packed(stream.kind, stream.addr, stream.nbytes,
                                    VIRTEX7.mem_access_unit_bits))


def requests(columns):
    """``(kind, addr, nbytes)`` of each request in coalesced columns."""
    return list(zip(*(c.tolist() for c in columns)))


class TestExtrapolation:
    def test_interior_groups_not_empty(self):
        """The 92%-error bug: every unprofiled group replayed the empty
        boundary group."""
        info = make_info()
        design = Design(32, True, 1, 1, 1, "pipeline")
        streams = SystemRun(VIRTEX7)._group_streams(info, design)
        interior = [len(requests(streams(g))) for g in range(6, 60)]
        assert sum(interior) > 0
        assert np.mean(interior) > 5

    def test_volume_tracks_ground_truth(self):
        info = make_info()
        design = Design(32, True, 1, 1, 1, "pipeline")
        streams = SystemRun(VIRTEX7)._group_streams(info, design)
        total_extrap = sum(len(requests(streams(g))) for g in range(72))
        total_exact = sum(len(exact_group_requests(info, design, g))
                          for g in range(72))
        assert total_extrap == pytest.approx(total_exact, rel=0.25)

    def test_profiled_groups_exact(self):
        info = make_info()
        design = Design(32, True, 1, 1, 1, "pipeline")
        streams = SystemRun(VIRTEX7)._group_streams(info, design)
        for g in range(3):
            exact = exact_group_requests(info, design, g)
            assert requests(streams(g)) == exact

    def test_uniform_kernels_shift_linearly(self):
        src = """
        __kernel void plain(__global const float* a, __global float* b,
                            int n) {
            int i = get_global_id(0);
            if (i < n) b[i] = a[i];
        }
        """
        n = 2048
        fn = compile_opencl(src).get("plain")
        info = analyze_kernel(
            fn,
            {"a": Buffer("a", np.ones(n, np.float32)),
             "b": Buffer("b", np.zeros(n, np.float32))},
            {"n": n}, NDRange(n, 64), VIRTEX7)
        design = Design(64, True, 1, 1, 1, "pipeline")
        streams = SystemRun(VIRTEX7)._group_streams(info, design)
        g5 = requests(streams(5))
        g6 = requests(streams(6))
        assert len(g5) == len(g6) > 0
        deltas = {b[1] - a[1] for a, b in zip(g5, g6)}
        assert deltas == {64 * 4}     # one group of 64 floats forward
