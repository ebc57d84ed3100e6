"""One kernel analyzer and one per-Function memo.

:func:`repro.evaluation.kernel_analyzer` is the only memoizing analyzer:
catalog runs (``make_analyzer``), the serve explorer and multi-kernel
program exploration all use it.  :func:`repro.ir.function.function_memo`
is the only memo keyed on IR: it lives on the ``Function``, dies with
it and is never pickled, so a stored analysis carries IR only.
"""

import gc
import pickle
import shutil
import weakref

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.devices import VIRTEX7
from repro.dse import Design, DesignSpace, explore_program
from repro.evaluation import harness, kernel_analyzer
from repro.frontend import compile_opencl
from repro.interp import Buffer
from repro.interp.synth import TraceSynthesizer
from repro.interp.vexec import VectorizedExecutor
from repro.ir.function import function_memo
from repro.lint.summary import classify_function, summarize_kernel
from repro.model import FlexCL
from repro.serve.api import (explore_rows, predict_payload,
                             resolve_workload)
from repro.workloads.programs import get_program

N = 1024
WG_SIZES = (16, 64)

SCALE = r"""
__kernel void k(__global const float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) b[i] = a[i] * 2.0f;
}
"""

HEAVY = r"""
__kernel void k(__global const float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float x = a[i];
        for (int d = 0; d < 16; d++) {
            x = exp(x * 0.1f) + log(x + 2.0f);
        }
        b[i] = x;
    }
}
"""


def inputs():
    return ({"a": Buffer("a", np.arange(N, dtype=np.float32) + 0.5),
             "b": Buffer("b", np.zeros(N, np.float32))}, {"n": N})


def compile_k(src):
    """A fresh Function, as a new process would compile it."""
    return compile_opencl(src).get("k")


def analyzer(src, cache=None):
    return kernel_analyzer(compile_k(src), inputs, N, WG_SIZES, VIRTEX7,
                           cache=cache)


def cycles(info, wg=64):
    return FlexCL(VIRTEX7).predict(info, Design(work_group_size=wg)).cycles


class TestFunctionMemo:
    def test_builds_once_per_function_and_key(self):
        fn, other = compile_k(SCALE), compile_k(SCALE)
        builds = []

        def build(tag):
            return lambda: builds.append(tag) or tag

        assert function_memo(fn, "x", build("fn-x")) == "fn-x"
        assert function_memo(fn, "x", build("again")) == "fn-x"
        assert function_memo(fn, ("y", 1), build("fn-y")) == "fn-y"
        assert function_memo(other, "x", build("other-x")) == "other-x"
        assert builds == ["fn-x", "fn-y", "other-x"]

    def test_unmemoizable_inputs_build_afresh(self):
        class Unhashable:
            __hash__ = None

        calls = []
        for _ in range(2):
            function_memo(Unhashable(), "x", lambda: calls.append(1))
        assert len(calls) == 2

    def test_requests_add_no_memo_keys(self):
        """Only what the IR determines is memoized: requests that
        differ in a scalar value leave nothing of their own on the
        catalog function, which lives as long as the process."""
        spec = {"workload": "rodinia/backprop/layer", "wg": 64}
        fn = resolve_workload(spec["workload"]).function()
        predict_payload(dict(spec, args={"hid": 16}))
        keys = set(fn._derived)
        for hid in (17, 18):
            assert predict_payload(dict(spec, args={"hid": hid}))[
                "feasible"]
        assert set(fn._derived) == keys

    def test_memo_is_not_pickled(self):
        fn = compile_k(SCALE)
        analyze = kernel_analyzer(fn, inputs, N, WG_SIZES, VIRTEX7)
        for wg in WG_SIZES:
            assert analyze(wg) is not None
        assert fn._derived
        copy = pickle.loads(pickle.dumps(fn))
        assert copy._derived == {}
        assert set(vars(copy)) == set(vars(fn))
        assert summarize_kernel(copy).fingerprint == \
            summarize_kernel(fn).fingerprint

    def test_entries_die_with_the_function(self):
        """Memoized values (summaries, classifiers, DFGs) refer back to
        their function; they must not keep it alive."""
        fn = compile_k(SCALE)
        analyze = kernel_analyzer(fn, inputs, N, WG_SIZES, VIRTEX7)
        for wg in WG_SIZES:
            assert analyze(wg) is not None
        alive = weakref.ref(fn)
        del fn, analyze
        gc.collect()
        assert alive() is None


class TestStoredAnalyses:
    def test_entry_pickles_ir_only(self, tmp_path):
        store = ArtifactCache(tmp_path)
        info = analyzer(SCALE, cache=store)(64)
        path = store._entry_path("analysis", info.fingerprint)
        with open(path, "rb") as fh:
            stored = pickle.load(fh)
        assert set(vars(stored.fn)) == set(vars(compile_k(SCALE)))
        assert stored.fn._derived == {}

    def test_entry_with_memo_attributes_reads_warm(self, tmp_path):
        """An entry whose ``fn`` carries the access summary and the
        determinism classifier as attributes, as stores filled by
        earlier versions hold, is still a hit with identical cycles."""
        cold = analyzer(SCALE)(64)
        legacy = analyzer(SCALE)(64)
        legacy.fn._access_summary = summarize_kernel(legacy.fn)
        legacy.fn._determinism_classifier = classify_function(legacy.fn)
        store = ArtifactCache(tmp_path)
        store.put("analysis", legacy.fingerprint, legacy)

        warm = analyzer(SCALE, cache=store)(64)
        assert store.stats.hits.get("analysis") == 1
        assert "_access_summary" in vars(warm.fn)
        assert warm.fingerprint == cold.fingerprint
        assert cycles(warm) == cycles(cold)

    def test_copied_entry_gives_the_cold_answer(self, tmp_path):
        """An analysis entry copied over another key's path is not
        returned: the hit must match its key, else it is recomputed
        and the entry overwritten."""
        store = ArtifactCache(tmp_path)
        scale = analyzer(SCALE, cache=store)(64)
        heavy = analyzer(HEAVY, cache=store)(64)
        assert cycles(scale) != cycles(heavy)
        target = store._entry_path("analysis", heavy.fingerprint)
        shutil.copyfile(store._entry_path("analysis", scale.fingerprint),
                        target)

        again = analyzer(HEAVY, cache=store)(64)
        assert again.fingerprint == heavy.fingerprint
        assert cycles(again) == cycles(analyzer(HEAVY)(64))
        with open(target, "rb") as fh:
            assert pickle.load(fh).fingerprint == heavy.fingerprint


class TestOneAnalyzer:
    @pytest.fixture
    def engine_runs(self, monkeypatch):
        """Counts trace-engine runs (the profiling work an analyzer
        shares across work-group sizes)."""
        runs = []
        for cls in (TraceSynthesizer, VectorizedExecutor):
            def counted(self, *args, _run=cls.run, **kwargs):
                runs.append(type(self).__name__)
                return _run(self, *args, **kwargs)
            monkeypatch.setattr(cls, "run", counted)
        return runs

    @pytest.fixture
    def harness_calls(self, monkeypatch):
        """Counts analyses made through the harness's ``analyze_kernel``
        binding, the one instrumentation wraps."""
        calls = []
        original = harness.analyze_kernel

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(harness, "analyze_kernel", counted)
        return calls

    def test_explore_program_profiles_once_per_stage(self, engine_runs,
                                                     harness_calls):
        program = get_program("cfd")

        def space(w):
            return DesignSpace(
                work_group_sizes=w.valid_work_group_sizes(),
                pipeline_options=(True,), wg_pipeline_options=(False,),
                pe_counts=(1,), cu_counts=(1,), vector_widths=(1,),
                comm_modes=("pipeline",))
        result = explore_program(program, VIRTEX7, depths=(16,),
                                 space=space, top_k=1)
        stages = program.stages
        sizes = sum(len(w.valid_work_group_sizes()) for w in stages)
        assert len(stages) == 4 and sizes == 20
        assert len(engine_runs) == len(stages)
        assert len(harness_calls) == sizes
        assert result.best is not None

    def test_serve_explorer_uses_the_analyzer(self, engine_runs,
                                              harness_calls):
        rows = explore_rows({"workload": "rodinia/cfd/compute"},
                            wg_sizes=(16, 32, 64))
        assert rows and len(harness_calls) == 3
        assert len(engine_runs) == 1
