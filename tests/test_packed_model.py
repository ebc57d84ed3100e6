"""The columnar (packed) trace pipeline against a golden recorded from
the object-per-access reference: analysis, stream extrapolation,
coalescing, bank classification and the memory model's window rows
must reproduce ``tests/data/packed_reference.json`` (regenerate it with
``tests/data/make_packed_reference.py``) on the interpreter's traces."""

import hashlib
import json
import pickle
from pathlib import Path
from types import SimpleNamespace

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
GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "packed_reference.json").read_text())
MODES = {True: "pipelined", False: "sequential"}
MAPPING = BankMapping(num_banks=8, row_bytes=1024, interleave_bytes=64)


def stream_digest(kinds, addrs, sizes) -> str:
    """The golden's digest of a stream's (kind, addr, nbytes) rows."""
    text = ";".join(f"{k},{a},{n}" for k, a, n in zip(kinds, addrs, sizes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


@pytest.fixture
def reference(traced, request):
    return GOLDEN[request.node.callspec.params["traced"]]


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
    def test_analyze_traces_identical(self, traced, reference):
        traces, wg, packed = traced
        col = analyze_traces(packed)
        assert len(traces) == reference["work_items"]
        assert wg == reference["wg_size"]
        assert {str(s): {"kind": st.kind, "space": st.space,
                         "buffer": st.buffer, "nbytes": st.nbytes,
                         "per_wi_count": st.per_wi_count,
                         "wi_stride": st.wi_stride,
                         "inner_stride": st.inner_stride}
                for s, st in col.sites.items()} == reference["sites"]
        assert [[r.load_site, r.store_site, r.space, r.buffer, r.distance]
                for r in col.recurrences] == reference["recurrences"]
        assert {"global_reads": col.global_reads_per_wi,
                "global_writes": col.global_writes_per_wi,
                "local_reads": col.local_reads_per_wi,
                "local_writes": col.local_writes_per_wi} \
            == reference["per_wi"]

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_extrapolated_streams_identical(self, traced, reference,
                                            pipelined):
        traces, wg, packed = traced
        col = GroupStreamExtrapolator(packed, pipelined=pipelined)
        want = reference["streams"][MODES[pipelined]]
        assert len(want) == len(traces) // wg + 3   # profiled + 3 more
        for g, (length, digest) in enumerate(want):
            stream = col.stream(g)
            assert [len(stream), stream_digest(
                stream.kind.tolist(), stream.addr.tolist(),
                stream.nbytes.tolist())] == [length, digest], \
                f"group {g} stream differs"


class TestDramEquivalence:
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_coalesce_identical(self, traced, reference, pipelined):
        traces, wg, packed = traced
        col = GroupStreamExtrapolator(packed, pipelined=pipelined)
        want = reference["requests"][MODES[pipelined]]
        assert [len(coalesce_stream(col.stream(g)))
                for g in range(len(want))] == want

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
    def test_bank_classification_identical(self, traced, reference,
                                           pipelined):
        traces, wg, packed = traced
        col = GroupStreamExtrapolator(packed, pipelined=pipelined)
        want = reference["patterns"][MODES[pipelined]]
        for g, counts in enumerate(want):
            stream = col.stream(g)
            reqs = coalesce_stream(stream)
            rk, ra, rn = coalesce_packed(stream.kind, stream.addr,
                                         stream.nbytes)
            for got in (classify_bank_stream(reqs, MAPPING),
                        classify_packed(rk, ra, rn, MAPPING)):
                assert {p.name: n for p, n in got.counts.items()
                        if n} == counts


class TestModelEquivalence:
    @pytest.mark.parametrize("mode", ["pipelined", "sequential",
                                      "pipelined/uncoalesced",
                                      "sequential/uncoalesced"])
    def test_memory_row_identical(self, traced, reference, mode):
        """``memory_model`` over the whole window reproduces the
        object-per-access row (a window below the 96-group cap is the
        NDRange's group count)."""
        from repro.devices import VIRTEX7
        from repro.model.memory import memory_model, pattern_table_for
        traces, wg, packed = traced
        want = reference["rows"][mode]
        window = want["window"]
        info = SimpleNamespace(
            traces=SimpleNamespace(global_traces=packed.global_view()),
            num_work_groups=window, work_group_size=wg)
        table = pattern_table_for(VIRTEX7)
        got = memory_model(info, VIRTEX7,
                           pipelined=mode.startswith("pipelined"),
                           coalescing=not mode.endswith("uncoalesced"),
                           table=table)
        counts = {p.name: n for p, n in got.pattern_counts.counts.items()
                  if n}
        assert counts == want["patterns"]
        assert got.requests_per_group == round(want["requests"] / window)
        assert got.accesses_per_group == round(want["accesses"] / window)
        assert got.latency_per_wi == (table.weighted_latency(
            got.pattern_counts) / (window * wg))

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
