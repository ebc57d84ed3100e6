"""Columnar (packed) trace pipeline vs the original object pipeline:
analysis, stream extrapolation, coalescing, bank classification and the
memory model must produce identical results on identical traces."""

import pickle

import numpy as np
import pytest

from repro.analysis.memtrace import analyze_traces
from repro.analysis.packed import PackedTraces, pack_traces
from repro.analysis.streams import GroupStreamExtrapolator
from repro.dram.coalesce import coalesce_packed, coalesce_stream
from repro.dram.patterns import BankMapping, classify_bank_stream, \
    classify_packed
from repro.interp import KernelExecutor
from repro.workloads import registry

# a diverse slice of the catalog: strided, tiled/local, 2D, reductions
SAMPLE = ["rodinia/nn/nn", "rodinia/hotspot/hotspot",
          "rodinia/srad/srad", "polybench/gemm/gemm",
          "polybench/atax/atax"]
BY_NAME = {w.qualified_name: w for w in registry.all_workloads()}


def object_traces(name, max_groups=3):
    """Per-work-item object traces straight from the interpreter."""
    w = BY_NAME[name]
    fn = w.function()
    for i, inst in enumerate(fn.instructions()):
        inst.site_id = i
    ndrange = w.ndrange()
    launch = KernelExecutor(fn, w.make_buffers(), dict(w.scalars)).run(
        ndrange, max_groups=max_groups)
    return launch.traces, ndrange.work_group_size


@pytest.fixture(scope="module", params=SAMPLE)
def traced(request):
    traces, wg = object_traces(request.param)
    return traces, wg, pack_traces(traces, wg)


def same_site_stats(a, b):
    assert a.sites.keys() == b.sites.keys()
    for s in a.sites:
        assert a.sites[s] == b.sites[s], f"site {s} stats differ"


class TestPackedTracesContainer:
    def test_sequence_view_is_lossless(self, traced):
        traces, wg, packed = traced
        assert len(packed) == len(traces)
        for wi in range(len(traces)):
            assert list(packed[wi]) == traces[wi]

    def test_global_view_flattens_groups(self, traced):
        traces, wg, packed = traced
        g = packed.global_view()
        assert isinstance(g, PackedTraces)
        assert len(g) == len(traces)
        assert list(g[0]) == traces[0]

    def test_pickle_roundtrip(self, traced):
        traces, wg, packed = traced
        back = pickle.loads(pickle.dumps(packed))
        assert len(back) == len(packed)
        for wi in range(len(traces)):
            assert list(back[wi]) == traces[wi]

    def test_pack_empty(self):
        packed = pack_traces([], 64)
        assert len(packed) == 0
        assert analyze_traces(packed).sites == {}

    def test_non_dividing_wg_size_collapses_to_one_group(self):
        traces, wg = object_traces(SAMPLE[0], max_groups=1)
        packed = pack_traces(traces, wg + 1)
        assert packed.wg_size == len(traces)
        assert len(packed.groups) == 1
        for wi in range(len(traces)):
            assert list(packed[wi]) == traces[wi]


class TestAnalysisEquivalence:
    def test_analyze_traces_identical(self, traced):
        traces, wg, packed = traced
        obj = analyze_traces(traces)
        col = analyze_traces(packed)
        same_site_stats(obj, col)
        assert obj.recurrences == col.recurrences
        assert obj.global_reads_per_wi == col.global_reads_per_wi
        assert obj.global_writes_per_wi == col.global_writes_per_wi
        assert obj.local_reads_per_wi == col.local_reads_per_wi
        assert obj.local_writes_per_wi == col.local_writes_per_wi

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_extrapolated_streams_identical(self, traced, pipelined):
        traces, wg, packed = traced
        obj = GroupStreamExtrapolator(traces, wg, pipelined=pipelined)
        col = GroupStreamExtrapolator(packed, wg, pipelined=pipelined)
        n_groups = len(traces) // wg
        for g in range(n_groups + 3):    # profiled + extrapolated
            assert list(obj.stream(g)) == list(col.stream(g)), \
                f"group {g} stream differs"


class TestDramEquivalence:
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_coalesce_identical(self, traced, pipelined):
        traces, wg, packed = traced
        col = GroupStreamExtrapolator(packed, wg, pipelined=pipelined)
        for g in range(2):
            stream = col.stream(g)
            reqs_obj = coalesce_stream([stream[i]
                                        for i in range(len(stream))])
            reqs_col = coalesce_stream(stream)
            assert reqs_obj == reqs_col

    def test_coalesce_packed_merges_runs(self):
        # 16 contiguous 4-byte reads with a 64-byte unit -> 1 request
        kind = np.zeros(16, np.uint8)
        addr = np.arange(16, dtype=np.int64) * 4
        nb = np.full(16, 4, np.int32)
        rk, ra, rn = coalesce_packed(kind, addr, nb, unit_bits=512)
        assert rk.tolist() == [0]
        assert ra.tolist() == [0]
        assert rn.tolist() == [64]

    def test_coalesce_packed_breaks_on_kind_change(self):
        kind = np.array([0, 0, 1, 1], np.uint8)
        addr = np.arange(4, dtype=np.int64) * 4
        nb = np.full(4, 4, np.int32)
        rk, _, _ = coalesce_packed(kind, addr, nb, unit_bits=512)
        assert rk.tolist() == [0, 1]

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_bank_classification_identical(self, traced, pipelined):
        traces, wg, packed = traced
        mapping = BankMapping(num_banks=8, row_bytes=1024,
                              interleave_bytes=64)
        col = GroupStreamExtrapolator(packed, wg, pipelined=pipelined)
        for g in range(2):
            stream = col.stream(g)
            reqs = coalesce_stream([stream[i]
                                    for i in range(len(stream))])
            want = classify_bank_stream(reqs, mapping)
            rk = np.array([0 if r.kind == "read" else 1 for r in reqs],
                          np.uint8)
            ra = np.array([r.addr for r in reqs], np.int64)
            rn = np.array([r.nbytes for r in reqs], np.int64)
            got = classify_packed(rk, ra, rn, mapping)
            assert want == got


class TestModelEquivalence:
    def test_prediction_identical_static_vs_interpreted(
            self, scalar_reference):
        from repro.analysis import analyze_kernel
        from repro.devices import KU060
        from repro.model import FlexCL
        w = BY_NAME[SAMPLE[0]]
        fn = w.function()
        model = FlexCL(KU060)
        from repro.dse.space import DesignSpace
        space = DesignSpace.default_for(w.global_size)
        for d in space.designs()[:4]:
            ndrange = w.ndrange(local_size=d.work_group_size)
            static = analyze_kernel(fn, w.make_buffers(), dict(w.scalars),
                                    ndrange, KU060)
            assert static.trace_source == "synth"
            interpreted = scalar_reference(fn, w.make_buffers(),
                                           dict(w.scalars), ndrange,
                                           KU060)
            a, b = (model.predict(info, d).cycles
                    for info in (interpreted, static))
            assert a == b
