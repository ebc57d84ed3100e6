"""Catalog-wide differential sweep for the lane-vectorized interpreter.

The vectorized executor claims full coverage of the non-pipe catalog —
including every kernel the summary engine proves IRREGULAR (the ones
synthesis cannot touch).  Every kernel must produce a launch that is
bit-identical to the scalar profiling interpreter: same group/item
counts, block counts, trip counts, barrier counts, per-work-item traces
address-for-address, and the same final buffer contents.
"""

import numpy as np
import pytest

from repro.interp import KernelExecutor
from repro.interp.vexec import VectorizedExecutor
from repro.workloads import registry

#: the data-dependent kernels (KNOWN_IRREGULAR in test_static_sweep):
#: synthesis skips them, so vectorization owns their cold path and must
#: never fall back to the scalar interpreter
DYNAMIC = {
    "rodinia/bfs/bfs_1",
    "rodinia/bfs/bfs_2",
    "rodinia/btree/findK",
    "rodinia/btree/rangeK",
    "rodinia/cfd/compute",
    "rodinia/hybridsort/count",
    "rodinia/hybridsort/sort",
    "rodinia/kmeans/center",
    "rodinia/lavaMD/lavaMD",
    "rodinia/leukocyte/gicov",
    "rodinia/particlefilter/find_index",
    "rodinia/streamcluster/pgain",
}

ALL = registry.all_workloads()


def test_catalog_includes_every_dynamic_kernel():
    names = {w.qualified_name for w in ALL}
    assert DYNAMIC <= names


@pytest.mark.parametrize("workload", ALL,
                         ids=[w.qualified_name for w in ALL])
def test_vectorized_launch_matches_interpreter(workload):
    fn = workload.function()
    for i, inst in enumerate(fn.instructions()):
        inst.site_id = i
    ndrange = workload.ndrange()
    ref_buffers = workload.make_buffers()
    got_buffers = workload.make_buffers()
    ref = KernelExecutor(fn, ref_buffers,
                         dict(workload.scalars)).run(ndrange, max_groups=2)
    # No VectorizationError escape hatch here: the whole catalog is in
    # the vectorizable subset, dynamic kernels included.
    got = VectorizedExecutor(fn, got_buffers,
                             dict(workload.scalars)).run(ndrange,
                                                         max_groups=2)
    assert got.groups_executed == ref.groups_executed
    assert got.work_items_executed == ref.work_items_executed
    assert got.block_counts == ref.block_counts
    assert got.trip_counts == ref.trip_counts
    assert got.barriers_per_item == ref.barriers_per_item
    assert len(got.traces) == len(ref.traces)
    for wi in range(len(ref.traces)):
        assert list(got.traces[wi]) == list(ref.traces[wi]), \
            f"work-item {wi} trace differs"
    for name in ref_buffers:
        a, b = ref_buffers[name].data, got_buffers[name].data
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), \
                f"buffer {name} contents differ"
        else:
            assert np.array_equal(a, b), f"buffer {name} contents differ"


@pytest.mark.parametrize(
    "workload", [w for w in ALL if w.qualified_name in DYNAMIC],
    ids=sorted(DYNAMIC))
def test_dynamic_kernel_predictions_are_engine_independent(
        workload, scalar_reference):
    """End-to-end: the automatic chain (which vectorizes every dynamic
    kernel) and the scalar reference analysis yield identical FlexCL
    predictions, and the analysis is attributed to the vectorized
    engine."""
    from repro.analysis import analyze_kernel
    from repro.devices import VIRTEX7
    from repro.dse.space import Design
    from repro.model import FlexCL

    v = analyze_kernel(workload.function(), workload.make_buffers(),
                       dict(workload.scalars), workload.ndrange(),
                       VIRTEX7)
    s = scalar_reference(workload.function(), workload.make_buffers(),
                         dict(workload.scalars), workload.ndrange(),
                         VIRTEX7)
    assert v.trace_source == "vectorized"
    assert s.trace_source == "scalar"
    assert v.block_weights == s.block_weights
    assert v.barriers_per_wi == s.barriers_per_wi
    assert v.traces.global_reads_per_wi == s.traces.global_reads_per_wi
    assert (v.traces.global_writes_per_wi
            == s.traces.global_writes_per_wi)

    model = FlexCL(VIRTEX7)
    design = Design(work_group_size=v.work_group_size)
    pv = model.predict(v, design)
    ps = model.predict(s, design)
    assert pv.cycles == ps.cycles
    assert pv.bottleneck == ps.bottleneck


#: at wg 16 the merged run of these kernels shows a cross-group global
#: conflict, so the launch is rolled back and rerun group by group
ROLLED_BACK_AT_WG16 = {"rodinia/bfs/bfs_1", "rodinia/bfs/bfs_2"}


@pytest.mark.parametrize(
    "workload", [w for w in ALL if w.qualified_name in DYNAMIC],
    ids=[w.qualified_name for w in ALL if w.qualified_name in DYNAMIC])
def test_full_profile_depth_matches_interpreter(workload, monkeypatch):
    """Every dynamic kernel at wg 16 over the full profiling depth:
    the merged lane run (or its per-group rollback) reproduces the
    scalar executor's launch, traces and final buffers."""
    from repro.analysis.kernel_info import DEFAULT_PROFILE_GROUPS

    runs = []
    real_run_lanes = VectorizedExecutor._run_lanes

    def spy(self, gids):
        runs.append(len(gids))
        return real_run_lanes(self, gids)

    monkeypatch.setattr(VectorizedExecutor, "_run_lanes", spy)
    fn = workload.function()
    for i, inst in enumerate(fn.instructions()):
        inst.site_id = i
    ndrange = workload.ndrange(16)
    ref_buffers = workload.make_buffers()
    got_buffers = workload.make_buffers()
    ref = KernelExecutor(fn, ref_buffers, dict(workload.scalars)).run(
        ndrange, max_groups=DEFAULT_PROFILE_GROUPS)
    vex = VectorizedExecutor(fn, got_buffers, dict(workload.scalars))
    got = vex.run(ndrange, max_groups=DEFAULT_PROFILE_GROUPS)

    groups = ref.groups_executed
    assert groups == DEFAULT_PROFILE_GROUPS
    if vex._global_atomics:
        assert runs == [1] * groups
    elif workload.qualified_name in ROLLED_BACK_AT_WG16:
        assert runs == [groups] + [1] * groups
    else:
        assert runs == [groups]
    assert got.groups_executed == ref.groups_executed
    assert got.work_items_executed == ref.work_items_executed
    assert got.block_counts == ref.block_counts
    assert got.trip_counts == ref.trip_counts
    assert got.barriers_per_item == ref.barriers_per_item
    assert len(got.traces) == len(ref.traces)
    for wi in range(len(ref.traces)):
        assert list(got.traces[wi]) == list(ref.traces[wi]), \
            f"work-item {wi} trace differs"
    for name in ref_buffers:
        a, b = ref_buffers[name].data, got_buffers[name].data
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), \
            f"buffer {name} contents differ"
