"""One profile per kernel: :class:`SharedProfile` slices every
work-group size's launch from one engine run, and each slice must equal
a lone run at that size.

Covers every eligible bundled kernel at every valid work-group size
(launches, KernelInfos, fingerprints, model cycles), request order,
the ineligible kernels' one-run-per-size path, the fallbacks (a fault
past the smallest prefix, a work-item reading another's write), and
store compatibility with analyses keyed before sharing existed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.analysis.kernel_info import (
    DEFAULT_PROFILE_GROUPS,
    SharedProfile,
    _profile,
    shares_prefix_profile,
)
from repro.cache import ArtifactCache
from repro.devices import VIRTEX7
from repro.dse import Design
from repro.evaluation import make_analyzer
from repro.interp import Buffer, KernelExecutor
from repro.interp.synth import TraceSynthesizer
from repro.interp.vexec import VectorizedExecutor
from repro.lint.summary import VERDICT_STATIC, summarize_kernel
from repro.model import FlexCL
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import Workload

INELIGIBLE = {
    "rodinia/backprop/layer", "rodinia/hybridsort/count",
    "rodinia/hybridsort/prefix", "rodinia/lud/diagonal",
    "rodinia/particlefilter/sum", "rodinia/pathfinder/dynproc",
    "rodinia/srad/reduce",
}
WORKLOADS = {w.qualified_name: w for w in all_workloads()}
ELIGIBLE = sorted(set(WORKLOADS) - INELIGIBLE)

#: analysis keys (and engines) of two kernels, as computed before the
#: profile was shared: a store written then must still be read warm
KEYS_BEFORE_SHARING = {
    "rodinia/nn/nn": {
        16: "11590572268d54d06eabc86aafd2a80536c8f273cb464810121c3d9cd2c30f0a",
        32: "a91b76fe3eaf62b1f1533c2d5fb0bf226179ea108d955395d739d1a47c2f527f",
        64: "448f17a0163e77adf83c73caeb28ce8b25e597ff3a56fb33a70ded6aaee35209",
        128: "0e6924c80773799ae006f948c7457b1b7227c01663873ffe6d94f36d22421d4a",
        256: "2016dcd28ed6969fab2e4987e768d4a9c9d417d42b351452a4278a9a939aeb73",
    },
    "rodinia/bfs/bfs_1": {
        16: "0030ec2158071fb5316dd77550b6f51c229918e2a5bd73a3da98d4181639cd95",
        32: "0a049e01593b061fa44ff79f27f21ead879864dc9632bae16dd287f07284e89f",
        64: "6ecd7dd74ef43ef011d3b2bae5b0e2c878b212199287eee46e98b05862e1f0dd",
        128: "10b04744bddbc137d3ad02f109e3393f42d4f332aaf41cf711ed8312146e9365",
        256: "3fb97600cd699c8ad9023806ad76d02c70bed83cc3879cc83a0a37082fce13b6",
    },
}

COLUMNS = ("site", "kind", "nbytes", "space", "buf", "lane", "addr")


@pytest.fixture
def engine_runs(monkeypatch):
    """Count every trace-engine launch; the list fills as runs happen."""
    runs = []
    for cls, name in ((TraceSynthesizer, "synth"),
                      (VectorizedExecutor, "vectorized"),
                      (KernelExecutor, "scalar")):
        def counted(self, *args, _run=cls.run, _name=name, **kwargs):
            runs.append(_name)
            return _run(self, *args, **kwargs)
        monkeypatch.setattr(cls, "run", counted)
    return runs


def _lone(workload, wg):
    """A fresh analysis at one work-group size, no sharing."""
    return analyze_kernel(workload.function(), workload.make_buffers(),
                          workload.scalars, workload.ndrange(wg), VIRTEX7)


def _assert_same_traces(a, b):
    assert a.wg_size == b.wg_size
    assert len(a.groups) == len(b.groups)
    for ga, gb in zip(a.groups, b.groups):
        assert ga.names == gb.names and ga.wg_size == gb.wg_size
        for col in COLUMNS:
            x, y = getattr(ga, col), getattr(gb, col)
            assert x.dtype == y.dtype and np.array_equal(x, y), col


def _assert_same_info(got, want):
    assert got.fingerprint == want.fingerprint
    assert got.trace_source == want.trace_source
    assert got.block_weights == want.block_weights
    assert got.barriers_per_wi == want.barriers_per_wi
    assert ([loop.profiled_trip_count for loop in got.loop_nest.loops]
            == [loop.profiled_trip_count
                for loop in want.loop_nest.loops])
    _assert_same_traces(got.traces.global_traces,
                        want.traces.global_traces)
    design = Design(work_group_size=got.work_group_size)
    assert (FlexCL(VIRTEX7).predict(got, design).cycles
            == FlexCL(VIRTEX7).predict(want, design).cycles)


class TestEligibility:
    def test_seven_bundled_kernels_run_alone(self):
        assert {name for name, w in WORKLOADS.items()
                if not shares_prefix_profile(w.function())} == INELIGIBLE
        assert len(ELIGIBLE) == 60


@pytest.mark.parametrize("name", ELIGIBLE)
def test_slices_equal_lone_runs(name):
    workload = WORKLOADS[name]
    fn = workload.function()
    static = summarize_kernel(fn).verdict == VERDICT_STATIC
    shared = SharedProfile(
        lambda: (workload.make_buffers(), workload.scalars),
        workload.valid_work_group_sizes())
    analyze = make_analyzer(workload, VIRTEX7)
    for wg in workload.valid_work_group_sizes():
        ndrange = workload.ndrange(wg)
        sliced = shared.launch(fn, ndrange, static)
        assert sliced is not None, f"{name} wg {wg} was not sliced"
        launch, source = sliced
        lone, lone_source = _profile(
            fn, workload.make_buffers(), workload.scalars, ndrange,
            DEFAULT_PROFILE_GROUPS, static, False)
        assert source == lone_source
        for field in ("groups_executed", "work_items_executed",
                      "block_counts", "trip_counts",
                      "barriers_per_item"):
            assert getattr(launch, field) == getattr(lone, field), field
        _assert_same_traces(launch.traces, lone.traces)
        _assert_same_info(analyze(wg), _lone(workload, wg))


@pytest.mark.parametrize("name", ["rodinia/nn/nn", "rodinia/bfs/bfs_1",
                                  "polybench/gemm/gemm"])
def test_request_order_does_not_matter(name):
    workload = WORKLOADS[name]
    sizes = list(workload.valid_work_group_sizes())
    shuffled = sizes[:]
    random.Random(7).shuffle(shuffled)
    ascending = make_analyzer(workload, VIRTEX7)
    for order in (sizes[::-1], shuffled):
        analyze = make_analyzer(workload, VIRTEX7)
        for wg in order:
            analyze(wg)
        for wg in sizes:
            _assert_same_info(analyze(wg), ascending(wg))


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_ineligible_kernel_runs_once_per_size(name, engine_runs):
    workload = WORKLOADS[name]
    analyze = make_analyzer(workload, VIRTEX7)
    sizes = workload.valid_work_group_sizes()
    for wg in sizes:
        assert analyze(wg) is not None
    assert len(engine_runs) == len(sizes)


def test_eligible_kernel_runs_once(engine_runs):
    workload = WORKLOADS["rodinia/nn/nn"]
    analyze = make_analyzer(workload, VIRTEX7)
    for wg in workload.valid_work_group_sizes():
        assert analyze(wg).trace_source == "synth"
    assert engine_runs == ["synth"]


def _inline(source: str, make_buffers, global_size=1024) -> Workload:
    return Workload(suite="test", benchmark="inline", kernel="k",
                    source=source, global_size=global_size,
                    make_buffers=make_buffers, scalars={})


def _float_buffers(n=1024):
    def make():
        return {"a": Buffer("a", np.arange(n, dtype=np.float32)),
                "b": Buffer("b", np.zeros(n, dtype=np.float32))}
    return make


class TestFallback:
    def test_fault_past_the_first_64_items(self):
        # Work-items 64 and up write out of bounds: only wg 16's four
        # groups (64 items) profile cleanly.
        workload = _inline("""
            __kernel void k(__global const float *a, __global float *b) {
                int i = get_global_id(0);
                if (i < 64) b[i] = a[i];
                else b[i + 100000] = a[i];
            }""", _float_buffers())
        analyze = make_analyzer(workload, VIRTEX7)
        sizes = workload.valid_work_group_sizes()
        got = {wg: analyze(wg) for wg in sizes}
        assert got[16] is not None
        assert all(got[wg] is None for wg in sizes if wg != 16)
        _assert_same_info(got[16], _lone(workload, 16))
        for wg in sizes[1:]:
            with pytest.raises(Exception):
                _lone(workload, wg)

    def test_data_dependent_fault(self):
        # The same fault behind a data-dependent branch (vectorized
        # engine): wg 16 analyses, every wider size fails.
        workload = _inline("""
            __kernel void k(__global const float *a, __global float *b) {
                int i = get_global_id(0);
                if (a[i] < 64.0f) b[i] = a[i];
                else b[i + 100000] = a[i];
            }""", _float_buffers())
        analyze = make_analyzer(workload, VIRTEX7)
        sizes = workload.valid_work_group_sizes()
        assert analyze(16).trace_source == "vectorized"
        _assert_same_info(analyze(16), _lone(workload, 16))
        assert all(analyze(wg) is None for wg in sizes[1:])

    def test_read_of_another_items_write(self, engine_runs):
        # Work-item i writes a[i + 1], which work-item i + 1 reads to
        # branch: the vectorized engine's answer then depends on which
        # items share a group, so every size runs alone.
        workload = _inline("""
            __kernel void k(__global float *a, __global float *b) {
                int i = get_global_id(0);
                if (a[i] > 0.5f) b[i] = a[i];
                if (i + 1 < 1024) a[i + 1] = 0.0f;
            }""", _float_buffers())
        fn = workload.function()
        assert shares_prefix_profile(fn)
        assert summarize_kernel(fn).verdict != VERDICT_STATIC
        analyze = make_analyzer(workload, VIRTEX7)
        sizes = workload.valid_work_group_sizes()
        for wg in sizes:
            _assert_same_info(analyze(wg), _lone(workload, wg))
        # One shared attempt, then one run per size alone (the lone
        # reference runs above are not counted: they come after).
        assert engine_runs[:len(sizes) + 1] == ["vectorized"] * (
            len(sizes) + 1)


    def test_sizes_that_do_not_divide_the_width_run_alone(
            self, engine_runs):
        # Valid sizes 16, 32 and 64 set the width to 64; 48 does not
        # divide it and 320 exceeds it, so each of those runs alone.
        workload = _inline("""
            __kernel void k(__global const float *a, __global float *b) {
                int i = get_global_id(0);
                b[i] = a[i] * 2.0f;
            }""", _float_buffers(960), global_size=960)
        assert workload.valid_work_group_sizes() == (16, 32, 64)
        analyze = make_analyzer(workload, VIRTEX7)
        for wg in (16, 32, 64, 48, 320):
            assert analyze(wg).trace_source == "synth"
        assert engine_runs == ["synth"] * 3
        for wg in (16, 32, 64, 48, 320):
            _assert_same_info(analyze(wg), _lone(workload, wg))


class TestStore:
    @pytest.mark.parametrize("name", sorted(KEYS_BEFORE_SHARING))
    def test_keys_unchanged(self, name):
        workload = WORKLOADS[name]
        analyze = make_analyzer(workload, VIRTEX7)
        assert {wg: analyze(wg).fingerprint
                for wg in workload.valid_work_group_sizes()} \
            == KEYS_BEFORE_SHARING[name]

    def test_store_of_lone_analyses_reads_warm(self, tmp_path,
                                               engine_runs):
        # Lone analyses are what every analysis was before sharing:
        # their store must answer every shared analyzer's lookup.
        workload = get_workload("rodinia", "bfs", "bfs_1")
        sizes = workload.valid_work_group_sizes()
        store = ArtifactCache(tmp_path)
        lone = {wg: analyze_kernel(
            workload.function(), workload.make_buffers(),
            workload.scalars, workload.ndrange(wg), VIRTEX7, cache=store)
            for wg in sizes}
        del engine_runs[:]
        warm = ArtifactCache(tmp_path)
        analyze = make_analyzer(workload, VIRTEX7, cache=warm)
        for wg in sizes:
            _assert_same_info(analyze(wg), lone[wg])
        assert warm.stats.hits == {"analysis": len(sizes)}
        assert not warm.stats.misses and not warm.stats.puts
        assert engine_runs == []
