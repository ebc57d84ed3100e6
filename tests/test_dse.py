"""Unit tests for the design space and the explorers."""

import numpy as np
import pytest

import repro.evaluation.harness as harness
from repro.devices import VIRTEX7
from repro.dse import (
    Design,
    DesignSpace,
    check_feasibility,
    explore,
    step_by_step_search,
)
from repro.evaluation import kernel_analyzer
from repro.frontend import compile_opencl
from repro.interp import Buffer
from repro.model import FlexCL


class TestDesign:
    def test_signature_roundtrip_unique(self):
        designs = list(DesignSpace())
        signatures = {d.signature() for d in designs}
        assert len(signatures) == len(designs)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Design(comm_mode="teleport")

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            Design(num_pe=0)

    def test_effective_slots(self):
        assert Design(num_pe=4, vector_width=2).effective_pe_slots == 8


class TestDesignSpace:
    def test_size_matches_iteration(self):
        space = DesignSpace()
        assert space.size() == len(list(space))

    def test_default_for_filters_wg_sizes(self):
        space = DesignSpace.default_for(100)
        assert all(100 % wg == 0 for wg in space.work_group_sizes)

    def test_default_for_tiny_kernel(self):
        space = DesignSpace.default_for(16)
        assert space.work_group_sizes == (16,)

    def test_paper_scale(self):
        """Hundreds of design points per kernel (paper §4.1)."""
        space = DesignSpace.default_for(4096)
        assert 100 <= space.size() <= 1000


def _make_env(n=512):
    src = r"""
    __kernel void k(__global const float* a, __global float* b, int n) {
        int i = get_global_id(0);
        if (i < n) b[i] = a[i] * 2.0f + 1.0f;
    }
    """
    fn = compile_opencl(src).get("k")
    return kernel_analyzer(
        fn, lambda: ({"a": Buffer("a", np.arange(n, dtype=np.float32)),
                      "b": Buffer("b", np.zeros(n, np.float32))},
                     {"n": n}),
        n, (32, 64), VIRTEX7)


class TestExplorer:
    def test_exhaustive_explores_feasible(self):
        analyzer = _make_env()
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(64,),
                            pe_counts=(1, 2), cu_counts=(1, 2),
                            vector_widths=(1,))
        result = explore(space, analyzer,
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7)
        assert result.evaluated
        assert result.best is not None
        assert result.best.cycles == min(
            e.cycles for e in result.feasible)

    def test_infeasible_designs_marked(self):
        analyzer = _make_env()
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(48,),   # does not divide
                            pe_counts=(1,), cu_counts=(1,),
                            vector_widths=(1,))
        result = explore(space, analyzer,
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7)
        assert all(not e.feasible for e in result.evaluated)
        assert result.best is None

    def test_rank(self):
        analyzer = _make_env()
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(64,), pe_counts=(1, 2),
                            cu_counts=(1,), vector_widths=(1,))
        result = explore(space, analyzer,
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7)
        ranked = result.ranked()
        assert ranked[0] is result.best
        assert [e.cycles for e in ranked] == sorted(
            e.cycles for e in result.feasible)

    def test_analyses_once_per_size(self, monkeypatch):
        """The explorers call ``analyze`` once per design and keep no
        analysis memo of their own: the analyzer's memo makes a sweep
        and a search over two sizes run two analyses in all."""
        calls = []
        original = harness.analyze_kernel

        def counting(*args, **kwargs):
            calls.append(args[3].work_group_size)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "analyze_kernel", counting)
        analyzer = _make_env()
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(32, 64),
                            pe_counts=(1, 2), cu_counts=(1, 2),
                            vector_widths=(1,))

        def evaluator(info, d):
            return model.predict(info, d).cycles

        explore(space, analyzer, evaluator, VIRTEX7)
        step_by_step_search(space, analyzer, evaluator, VIRTEX7)
        assert sorted(calls) == [32, 64]


class TestHeuristicSearch:
    def test_returns_feasible_design(self):
        analyzer = _make_env()
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(32, 64),
                            pe_counts=(1, 2, 4), cu_counts=(1, 2),
                            vector_widths=(1,))
        pick = step_by_step_search(
            space, analyzer,
            lambda info, d: model.predict(info, d).cycles, VIRTEX7)
        assert pick is not None
        info = analyzer(pick.work_group_size)
        assert check_feasibility(info, pick, VIRTEX7) is None

    def test_heuristic_never_beats_exhaustive(self):
        analyzer = _make_env()
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(32, 64),
                            pe_counts=(1, 2, 4), cu_counts=(1, 2),
                            vector_widths=(1,))

        def evaluator(info, d):
            return model.predict(info, d).cycles

        exhaustive = explore(space, analyzer, evaluator, VIRTEX7)
        pick = step_by_step_search(space, analyzer, evaluator, VIRTEX7)
        info = analyzer(pick.work_group_size)
        pick_cycles = evaluator(info, pick)
        assert pick_cycles >= exhaustive.best.cycles - 1e-9
