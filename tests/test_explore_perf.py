"""Tests for the high-throughput DSE engine: parallel exploration,
sub-model memoization, and exploration-result caching."""

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.devices import VIRTEX7
from repro.dse import DesignSpace, EvaluatedDesign, ExplorationResult, explore
from repro.dse.explorer import resolve_jobs
from repro.dse.space import Design, check_feasibility
from repro.frontend import compile_opencl
from repro.interp import Buffer, NDRange
from repro.model import FlexCL
from repro.model.memo import CacheStats
from repro.scheduling import ResourceBudget
from test_packed_model import BY_NAME, SAMPLE

SRC = r"""
__kernel void k(__global const float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) b[i] = a[i] * 2.0f + 1.0f;
}
"""


def _analyzer(n=256):
    fn = compile_opencl(SRC).get("k")

    def analyze(wg):
        try:
            return analyze_kernel(
                fn,
                {"a": Buffer("a", np.arange(n, dtype=np.float32)),
                 "b": Buffer("b", np.zeros(n, np.float32))},
                {"n": n}, NDRange(n, wg), VIRTEX7)
        except Exception:
            return None

    return analyze


SPACE = DesignSpace(work_group_sizes=(16, 32, 64),
                    pe_counts=(1, 2), cu_counts=(1, 2),
                    vector_widths=(1,))


class TestParallelExplore:
    def test_parallel_matches_serial_exactly(self):
        """Same designs, same cycles, same order — bit-identical."""
        analyze = _analyzer()
        model = FlexCL(VIRTEX7)

        def evaluator(info, d):
            return model.predict(info, d).cycles

        serial = explore(SPACE, analyze, evaluator, VIRTEX7)
        parallel = explore(SPACE, analyze, evaluator, VIRTEX7, jobs=3)
        assert len(serial.evaluated) == len(parallel.evaluated)
        for s, p in zip(serial.evaluated, parallel.evaluated):
            assert s.design == p.design
            assert s.cycles == p.cycles          # exact, not approx
            assert s.feasible == p.feasible
            assert s.reject_reason == p.reject_reason
        assert parallel.jobs > 1

    def test_parallel_infeasible_wg_matches_serial(self):
        analyze = _analyzer(n=256)
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(48, 64),  # 48 ∤ 256
                            pe_counts=(1,), cu_counts=(1,),
                            vector_widths=(1,))

        def evaluator(info, d):
            return model.predict(info, d).cycles

        serial = explore(space, analyze, evaluator, VIRTEX7)
        parallel = explore(space, analyze, evaluator, VIRTEX7, jobs=2)
        assert [(e.design, e.cycles, e.feasible, e.reject_reason)
                for e in serial.evaluated] \
            == [(e.design, e.cycles, e.feasible, e.reject_reason)
                for e in parallel.evaluated]

    def test_single_wg_size_falls_back_to_serial(self):
        analyze = _analyzer()
        model = FlexCL(VIRTEX7)
        space = DesignSpace(work_group_sizes=(64,), pe_counts=(1,),
                            cu_counts=(1,), vector_widths=(1,))
        result = explore(space, analyze,
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7, jobs=4)
        assert result.jobs == 1          # nothing to shard
        assert result.evaluated

    def test_parallel_collects_cache_stats(self):
        analyze = _analyzer()
        model = FlexCL(VIRTEX7)
        result = explore(SPACE, analyze,
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7, jobs=3,
                         cache_stats=lambda: model.cache_stats)
        assert result.cache_stats is not None
        stats = result.cache_stats
        n_feasible = len(result.feasible)
        # One PE and one memory lookup per feasible (evaluated) design.
        assert stats.hits["pe"] + stats.misses["pe"] == n_feasible
        assert stats.hits["memory"] + stats.misses["memory"] \
            == n_feasible
        assert stats.total_hits > 0

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestMemoization:
    def _info(self, wg=64):
        return _analyzer()(wg)

    def test_memoized_prediction_identical(self):
        info = self._info()
        plain = FlexCL(VIRTEX7, memoize=False)
        memo = FlexCL(VIRTEX7, memoize=True)
        for d in (Design(work_group_size=64),
                  Design(work_group_size=64, num_pe=2),
                  Design(work_group_size=64, comm_mode="barrier",
                         work_item_pipeline=False)):
            assert memo.predict(info, d).cycles \
                == plain.predict(info, d).cycles

    def test_repeat_prediction_hits_both_caches(self):
        info = self._info()
        model = FlexCL(VIRTEX7)
        d = Design(work_group_size=64)
        model.predict(info, d)
        before = model.cache_stats
        model.predict(info, d)
        delta = model.cache_stats - before
        assert delta.hits["pe"] == 1 and delta.misses["pe"] == 0
        assert delta.hits["memory"] == 1 and delta.misses["memory"] == 0

    def test_unkeyed_parameter_change_hits_cache(self):
        """comm_mode and work_group_pipeline feed only the cheap
        sub-models; changing them must not bust the memo."""
        info = self._info()
        model = FlexCL(VIRTEX7)
        model.predict(info, Design(work_group_size=64))
        before = model.cache_stats
        model.predict(info, Design(work_group_size=64,
                                   comm_mode="barrier"))
        model.predict(info, Design(work_group_size=64,
                                   work_group_pipeline=True))
        delta = model.cache_stats - before
        assert delta.total_misses == 0
        assert delta.total_hits == 4

    def test_budget_change_busts_pe_cache_only(self):
        """num_pe/num_cu/vector_width change the PE budget, never the
        memory model's key.  The PE row is keyed on what the schedule
        reads of the budget: a DSP budget still above the kernel's
        static DSP cost with the same ResMII DSP term hits it, one that
        changes that term misses it."""
        info = self._info()
        model = FlexCL(VIRTEX7)
        model.predict(info, Design(work_group_size=64))

        # 3600 -> 1800 DSPs per PE: ceil(5 / dsp_budget) stays 1
        before = model.cache_stats
        model.predict(info, Design(work_group_size=64, num_pe=2))
        delta = model.cache_stats - before
        assert delta.hits["pe"] == 1 and delta.misses["pe"] == 0
        assert delta.hits["memory"] == 1 and delta.misses["memory"] == 0

        # 3600 // 1024 = 3 DSPs per PE: ceil(5 / 3) = 2
        before = model.cache_stats
        model.predict(info, Design(work_group_size=64, num_pe=64,
                                   num_cu=16))
        delta = model.cache_stats - before
        assert delta.misses["pe"] == 1
        assert delta.hits["memory"] == 1 and delta.misses["memory"] == 0

    def test_pipeline_change_busts_both(self):
        info = self._info()
        model = FlexCL(VIRTEX7)
        model.predict(info, Design(work_group_size=64))
        before = model.cache_stats
        model.predict(info, Design(work_group_size=64,
                                   work_item_pipeline=False,
                                   comm_mode="barrier"))
        delta = model.cache_stats - before
        assert delta.misses["pe"] == 1
        assert delta.misses["memory"] == 1

    def test_distinct_infos_do_not_alias(self):
        """Two analyses of the same kernel are distinct cache rows."""
        model = FlexCL(VIRTEX7)
        d = Design(work_group_size=64)
        a, b = self._info(), self._info()
        model.predict(a, d)
        before = model.cache_stats
        model.predict(b, d)
        delta = model.cache_stats - before
        assert delta.misses["pe"] == 1 and delta.misses["memory"] == 1

    def test_clear_cache(self):
        info = self._info()
        model = FlexCL(VIRTEX7)
        d = Design(work_group_size=64)
        model.predict(info, d)
        model.clear_cache()
        before = model.cache_stats
        model.predict(info, d)
        delta = model.cache_stats - before
        assert delta.total_misses == 2

    def test_memoize_disabled_reports_zero_stats(self):
        info = self._info()
        model = FlexCL(VIRTEX7, memoize=False)
        model.predict(info, Design(work_group_size=64))
        assert model.cache_stats.lookups == 0


class TestCacheStats:
    """The benchmark sums ``FlexCL.cache_stats`` under the historical
    name ``CacheStats`` and reads ``hit_rate`` and ``lookups``."""

    def _model(self, info):
        model = FlexCL(VIRTEX7)
        # the second design hits both rows (see the budget test above)
        for d in (Design(work_group_size=64),
                  Design(work_group_size=64, num_pe=2)):
            model.predict(info, d)
        return model

    def test_arithmetic_and_rates(self):
        info = _analyzer()(64)
        total = CacheStats()
        for _ in range(2):
            model = self._model(info)
            total = total + model.cache_stats
        assert total.hits == {"pe": 2, "memory": 2}
        assert total.misses == {"pe": 2, "memory": 2}
        assert total.lookups == 8
        assert total.hit_rate == pytest.approx(0.5)
        assert (total - model.cache_stats).lookups == 4
        assert CacheStats().hit_rate == 0.0

    def test_to_dict_and_summary(self):
        stats = self._model(_analyzer()(64)).cache_stats
        d = stats.to_dict()
        assert d["hits"]["pe"] == 1 and "hit_rate" in d
        assert "pe 1/2" in stats.summary("memo")


class TestResultCaching:
    def _entry(self, cycles, feasible=True, wg=64):
        pe = int(cycles) % 8 + 1 if feasible else 1
        return EvaluatedDesign(Design(work_group_size=wg, num_pe=pe),
                               cycles, feasible=feasible)

    def test_ranked_cached_and_invalidated_on_append(self):
        result = ExplorationResult()
        result.append(self._entry(30.0))
        result.append(self._entry(10.0))
        first = result.ranked()
        assert result.ranked() is first          # cached object
        assert result.best.cycles == 10.0
        result.append(self._entry(5.0))          # invalidates
        assert result.ranked() is not first
        assert result.best.cycles == 5.0

    def test_rank_uses_cached_order(self):
        result = ExplorationResult()
        e1, e2 = self._entry(20.0), self._entry(10.0)
        result.append(e1)
        result.append(e2)
        assert result.rank(e2.design) == 1
        assert result.rank(e1.design) == 2
        assert result.rank(Design(work_group_size=128)) is None

    def test_infeasible_excluded(self):
        result = ExplorationResult()
        result.append(self._entry(float("inf"), feasible=False))
        assert result.best is None
        assert result.feasible == []

    def test_invalidate_after_direct_mutation(self):
        result = ExplorationResult()
        result.append(self._entry(10.0))
        assert result.best.cycles == 10.0
        result.evaluated.append(self._entry(1.0))
        result.invalidate()
        assert result.best.cycles == 1.0


class TestMemoizedBudgetKey:
    def test_budget_is_hashable_cache_key(self):
        b1 = ResourceBudget.for_pe(VIRTEX7, 2, 2)
        b2 = ResourceBudget.for_pe(VIRTEX7, 2, 2)
        assert b1 == b2 and hash(b1) == hash(b2)
        assert len({b1, b2}) == 1


def _pe_fields(pe):
    return (pe.ii, pe.depth, pe.latency_wg, pe.rec_mii, pe.res_mii,
            pe.block_latencies)


@pytest.mark.parametrize("name", SAMPLE)
def test_pe_memo_key_is_exact(name):
    """Every feasible design of the default space, plus infeasible ones
    whose DSP budget is below the static DSP cost, predicts the same
    with the PE memo as without it."""
    w = BY_NAME[name]
    space = DesignSpace.default_for(w.global_size)
    memo = FlexCL(VIRTEX7)
    plain = FlexCL(VIRTEX7, memoize=False)
    for wg in space.work_group_sizes:
        info = analyze_kernel(w.function(), w.make_buffers(),
                              dict(w.scalars), w.ndrange(wg), VIRTEX7)
        designs = [d for d in space if d.work_group_size == wg
                   and check_feasibility(info, d, VIRTEX7) is None]
        # 3600 DSPs over 16 CUs of 16-64 PEs: 14, 7 and 3 per PE
        starved = [Design(work_group_size=wg, num_pe=pe, num_cu=16,
                          work_item_pipeline=pipelined)
                   for pe in (16, 32, 64) for pipelined in (True, False)]
        assert all(check_feasibility(info, d, VIRTEX7) for d in starved)
        assert any(ResourceBudget.for_pe(VIRTEX7, d.effective_pe_slots,
                                         d.num_cu).dsp_budget
                   < info.dsp_static_cost for d in starved)
        for d in designs + starved:
            a, b = memo.predict(info, d), plain.predict(info, d)
            assert a.cycles == b.cycles, d
            assert _pe_fields(a.pe) == _pe_fields(b.pe), d
    assert memo.cache_stats.hits["pe"] > 0
