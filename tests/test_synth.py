"""Tests for the static trace synthesizer: bit-identical launch results
against the profiling interpreter on hand-written kernels, plus the
analyze_kernel wiring (engine choice, fallback, cache keys)."""

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.devices import VIRTEX7
from repro.frontend import compile_opencl
from repro.interp import Buffer, KernelExecutor, NDRange, VectorizedExecutor
from repro.interp.synth import SynthesisError, TraceSynthesizer


def build(source, kernel=None):
    module = compile_opencl(source)
    return module.get(kernel) if kernel else module.kernels[0]


def make_buffers(fn, n=256):
    from repro.interp.memory import dtype_for_type
    from repro.ir.types import PointerType
    buffers, scalars = {}, {}
    for arg in fn.args:
        if isinstance(arg.type, PointerType):
            dtype = dtype_for_type(arg.type.pointee)
            rng = np.random.default_rng(7)
            if np.issubdtype(dtype, np.floating):
                buffers[arg.name] = Buffer(
                    arg.name, rng.random(n).astype(dtype))
            else:
                buffers[arg.name] = Buffer(
                    arg.name, rng.integers(0, n, n).astype(dtype))
        elif arg.type.is_integer:
            scalars[arg.name] = n
        else:
            scalars[arg.name] = 1.5
    return buffers, scalars


def assert_identical(source, ndrange, kernel=None, max_groups=4,
                     engine=TraceSynthesizer):
    """*engine*'s (by default the synthesizer's) and the interpreter's
    launches must agree exactly."""
    fn = build(source, kernel)
    for i, inst in enumerate(fn.instructions()):
        inst.site_id = i
    buffers, scalars = make_buffers(fn)
    ref = KernelExecutor(fn, buffers, scalars).run(
        ndrange, max_groups=max_groups)
    buffers2, scalars2 = make_buffers(fn)
    got = engine(fn, buffers2, scalars2).run(
        ndrange, max_groups=max_groups)
    assert got.groups_executed == ref.groups_executed
    assert got.work_items_executed == ref.work_items_executed
    assert got.block_counts == ref.block_counts
    assert got.trip_counts == ref.trip_counts
    assert got.barriers_per_item == ref.barriers_per_item
    assert len(got.traces) == len(ref.traces)
    for wi in range(len(ref.traces)):
        assert list(got.traces[wi]) == list(ref.traces[wi]), \
            f"work-item {wi} trace differs"
    return got


class TestSynthesizerMatchesInterpreter:
    def test_guarded_saxpy(self):
        assert_identical("""
        __kernel void saxpy(__global float *x, __global float *y,
                            float a, int n) {
            int i = get_global_id(0);
            if (i < n) y[i] = a * x[i] + y[i];
        }""", NDRange(256, 64))

    def test_boundary_guard_partial_groups(self):
        # n < global size: later lanes take the else path
        fn = build("""
        __kernel void head(__global float *y, int n) {
            int i = get_global_id(0);
            if (i < n) y[i] = 1.0f;
        }""")
        for i, inst in enumerate(fn.instructions()):
            inst.site_id = i
        buffers = {"y": Buffer("y", np.zeros(256, np.float32))}
        ref = KernelExecutor(fn, dict(buffers), {"n": 100}).run(
            NDRange(256, 64), max_groups=4)
        got = TraceSynthesizer(fn, dict(buffers), {"n": 100}).run(
            NDRange(256, 64), max_groups=4)
        for wi in range(len(ref.traces)):
            assert list(got.traces[wi]) == list(ref.traces[wi])

    def test_local_tile_with_barriers(self):
        assert_identical("""
        __kernel void tile(__global float *a, __global float *b) {
            __local float t[64];
            int lid = get_local_id(0);
            t[lid] = a[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            b[get_global_id(0)] = t[63 - lid];
        }""", NDRange(256, 64))

    def test_counter_loop(self):
        assert_identical("""
        __kernel void rowsum(__global float *a, __global float *out,
                             int n) {
            float acc = 0.0f;
            for (int j = 0; j < 16; j++)
                acc += a[j];
            out[get_global_id(0)] = acc;
        }""", NDRange(128, 32))

    def test_do_while_loop(self):
        assert_identical("""
        __kernel void dw(__global int *a) {
            int i = get_global_id(0);
            int j = 0;
            do {
                a[i & 63] = j;
                j++;
            } while (j < 4);
        }""", NDRange(128, 32))

    def test_break_and_continue(self):
        assert_identical("""
        __kernel void bc(__global int *a, int n) {
            int i = get_global_id(0);
            int s = 0;
            for (int j = 0; j < 32; j++) {
                if (j == i % 7) continue;
                if (j > 20) break;
                s += a[j];
            }
            a[i % 64] = s;
        }""", NDRange(128, 64))

    def test_global_atomics(self):
        assert_identical("""
        __kernel void hist(__global int *bins) {
            int i = get_global_id(0);
            atomic_add(&bins[i & 15], 1);
        }""", NDRange(128, 32))

    def test_2d_ndrange(self):
        assert_identical("""
        __kernel void t2d(__global float *a, __global float *b) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int w = get_global_size(0);
            b[y * w + x] = a[x * 8 + y];
        }""", NDRange((16, 16), (8, 4)))

    def test_private_array(self):
        assert_identical("""
        __kernel void pa(__global int *a) {
            int tmp[8];
            int i = get_global_id(0);
            for (int j = 0; j < 8; j++) tmp[j] = j * i;
            a[i % 64] = tmp[i % 8];
        }""", NDRange(128, 64))

    def test_ternary_select_and_int_builtins(self):
        assert_identical("""
        __kernel void sb(__global int *a, int n) {
            int i = get_global_id(0);
            int j = (i < 32) ? i : (n - i);
            a[j & 63] = max(i, 3);
        }""", NDRange(128, 64))


class TestSynthesizerRejections:
    def test_data_dependent_address_raises(self):
        fn = build("""
        __kernel void g(__global int *idx, __global float *a) {
            a[idx[get_global_id(0)]] = 1.0f;
        }""")
        buffers, scalars = make_buffers(fn)
        with pytest.raises(SynthesisError):
            TraceSynthesizer(fn, buffers, scalars).run(NDRange(128, 32))

    def test_out_of_bounds_raises_like_executor(self):
        fn = build("""
        __kernel void oob(__global float *a) {
            a[get_global_id(0)] = 2.0f;
            a[get_global_id(0) + 10000000] = 1.0f;
        }""")
        buffers = {"a": Buffer("a", np.zeros(64, np.float32))}
        with pytest.raises(Exception) as scalar:
            KernelExecutor(fn, dict(buffers), {}).run(NDRange(64, 32))
        with pytest.raises(SynthesisError):
            TraceSynthesizer(fn, dict(buffers), {}).run(NDRange(64, 32))
        # The vectorized executor reproduces the executor's own fault
        # and rolls back the in-bounds stores it made before it.
        fresh = {"a": Buffer("a", np.zeros(64, np.float32))}
        with pytest.raises(Exception) as vectorized:
            VectorizedExecutor(fn, fresh, {}).run(NDRange(64, 32))
        assert type(vectorized.value) is type(scalar.value)
        assert str(vectorized.value) == str(scalar.value)
        assert not fresh["a"].data.any()


class TestAnalyzeKernelWiring:
    SRC = """
    __kernel void saxpy(__global float *x, __global float *y,
                        float a, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = a * x[i] + y[i];
    }"""
    IRR = """
    __kernel void gather(__global int *idx, __global float *a,
                         __global float *out) {
        int i = get_global_id(0);
        out[i] = a[idx[i]];
    }"""

    def analyze(self, src, **kw):
        fn = build(src)
        buffers, scalars = make_buffers(fn)
        return analyze_kernel(fn, buffers, scalars, NDRange(256, 64),
                              VIRTEX7, **kw)

    def reference(self, src, scalar_reference):
        fn = build(src)
        buffers, scalars = make_buffers(fn)
        return scalar_reference(fn, buffers, scalars, NDRange(256, 64),
                                VIRTEX7)

    def test_auto_uses_synthesis_for_static(self):
        info = self.analyze(self.SRC)
        assert info.trace_source == "synth"
        assert info.summary_verdict == "static"
        assert_identical(self.SRC, info.ndrange)

    def test_auto_falls_back_for_irregular(self):
        info = self.analyze(self.IRR)
        assert info.trace_source == "vectorized"
        assert info.summary_verdict == "irregular"
        assert_identical(self.IRR, info.ndrange,
                         engine=VectorizedExecutor)

    def test_never_interprets(self, scalar_reference):
        """The scalar reference: a KernelExecutor launch passed in."""
        info = self.reference(self.SRC, scalar_reference)
        assert info.trace_source == "scalar"
        assert info.summary_verdict is None

    def test_static_and_interp_fingerprints_differ(self,
                                                   scalar_reference):
        """A passed-in launch bypasses the cache: it has no key."""
        a = self.reference(self.SRC, scalar_reference)
        b = self.analyze(self.SRC)
        assert a.fingerprint is None
        assert a.fingerprint != b.fingerprint

    def test_synthesis_failure_keeps_the_key(self, monkeypatch):
        """One cache key per analysis, whichever engine answers."""
        synthesized = self.analyze(self.SRC)

        def refuse(self, *args, **kwargs):
            raise SynthesisError("forced")

        monkeypatch.setattr(TraceSynthesizer, "run", refuse)
        fallback = self.analyze(self.SRC)
        assert synthesized.trace_source == "synth"
        assert fallback.trace_source == "vectorized"
        assert fallback.fingerprint == synthesized.fingerprint

    def test_identical_analysis_products(self, scalar_reference):
        a = self.reference(self.SRC, scalar_reference)
        b = self.analyze(self.SRC)
        assert b.trace_source == "synth"
        assert a.block_weights == b.block_weights
        assert a.barriers_per_wi == b.barriers_per_wi
        assert a.traces.sites.keys() == b.traces.sites.keys()
        for s in a.traces.sites:
            assert a.traces.sites[s] == b.traces.sites[s]

    def test_cache_roundtrip_preserves_static_entry(self, tmp_path):
        from repro.cache import open_cache
        cache = open_cache(str(tmp_path / "c"))
        first = self.analyze(self.SRC, cache=cache)
        assert first.trace_source == "synth"
        again = self.analyze(self.SRC, cache=cache)
        assert again.fingerprint == first.fingerprint
        assert again.trace_source == "synth"
        # cached entry materialises the same traces
        assert list(again.traces.global_traces[0]) \
            == list(first.traces.global_traces[0])
