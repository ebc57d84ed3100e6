"""Tests for the high-throughput DSE engine: sharded exploration on the
worker pool, sub-model memoization, and exploration-result caching."""

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.cache import ArtifactCache
from repro.cache.hot import HotCache
from repro.cli import main
from repro.devices import VIRTEX7
from repro.dse import DesignSpace, EvaluatedDesign, ExplorationResult
from repro.dse.space import Design, check_feasibility
from repro.evaluation import kernel_analyzer
from repro.frontend import compile_opencl
from repro.interp import Buffer
from repro.model import FlexCL
from repro.model.memo import CacheStats
from repro.scheduling import ResourceBudget
from repro.serve import api
from repro.serve.pool import WorkerPool
from test_packed_model import BY_NAME, SAMPLE

SRC = r"""
__kernel void k(__global const float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) b[i] = a[i] * 2.0f + 1.0f;
}
"""


def _analyzer(n=256):
    fn = compile_opencl(SRC).get("k")
    return kernel_analyzer(
        fn, lambda: ({"a": Buffer("a", np.arange(n, dtype=np.float32)),
                      "b": Buffer("b", np.zeros(n, np.float32))},
                     {"n": n}),
        n, DesignSpace.default_for(n).work_group_sizes, VIRTEX7)


SPEC = {"source": SRC, "kernel": "k", "global_size": 256}


def _pooled_rows(spec, jobs, cache=None):
    """Every explore row of *spec*, evaluated as the daemon's
    ``explore-shard`` tasks on a process-mode worker pool, in
    enumeration order."""
    pool = WorkerPool(jobs=jobs, mode="process",
                      shared_cache=HotCache(store=cache) if cache else None)
    try:
        futures = [pool.submit(dict(
            task, no_cache=cache is None,
            cache_dir=str(cache.root) if cache else None))
            for task in api.shard_tasks("explore", spec)]
        results = [f.result() for f in futures]
    finally:
        pool.shutdown()
    assert api.assemble("explore", spec, results) \
        == api.explore_payload(spec)
    return sorted((row for rows in results for row in rows),
                  key=lambda row: row["index"])


class TestParallelExplore:
    """``explore --jobs N`` fans the sweep out as one pool task per
    work-group size; every sharded row must equal the serial one."""

    def test_parallel_matches_serial_exactly(self):
        """Same designs, same cycles, same order — bit-identical."""
        serial = api.explore_rows(SPEC)
        assert _pooled_rows(SPEC, jobs=3) == serial
        assert len({row["work_group_size"] for row in serial}) == 5

    def test_parallel_infeasible_wg_matches_serial(self):
        """A shard whose analysis fails (here: out-of-bounds reads once
        a work-group exceeds 64 items) comes back as infeasible rows."""
        spec = dict(SPEC, source=r"""
        __kernel void k(__global float* a, int n) {
            int i = get_global_id(0);
            float v = a[i];
            if (get_local_size(0) > 64) v += a[i + n];
            a[i] = v;
        }""")
        rows = _pooled_rows(spec, jobs=2)
        assert rows == api.explore_rows(spec)
        failed = {row["work_group_size"] for row in rows
                  if row["reason"] == "analysis failed for this "
                                      "work-group size"}
        assert failed == {128, 256}
        assert any(row["feasible"] for row in rows)

    def test_single_wg_size_falls_back_to_serial(self, tmp_path, capsys,
                                                 monkeypatch):
        """No listed work-group size divides 40 work-items, so the space
        has one size: ``--jobs 4`` has nothing to fan out and evaluates
        in this process."""
        submitted = []
        monkeypatch.setattr(WorkerPool, "submit",
                            lambda pool, task: submitted.append(task))
        spec = dict(SPEC, global_size=40)
        assert len(api.shard_tasks("explore", spec)) == 1
        path = tmp_path / "k.cl"
        path.write_text(SRC)
        assert main(["explore", str(path), "--global-size", "40",
                     "--json", "--no-cache", "--jobs", "4"]) == 0
        assert submitted == []
        assert '"feasible"' in capsys.readouterr().out

    def test_parallel_collects_cache_stats(self, tmp_path, capsys):
        """Each worker's store counters reach the parent's handle: one
        analysis miss and put per work-group size on a cold store, one
        hit each on a warm one, and the CLI's store line counts them."""
        cold = ArtifactCache(tmp_path / "store")
        _pooled_rows(SPEC, jobs=3, cache=cold)
        assert cold.stats.misses["analysis"] == 5
        assert cold.stats.puts["analysis"] == 5
        warm = ArtifactCache(tmp_path / "store")
        _pooled_rows(SPEC, jobs=3, cache=warm)
        assert warm.stats.hits["analysis"] == 5
        assert not warm.stats.misses

        path = tmp_path / "k.cl"
        path.write_text(SRC)
        assert main(["explore", str(path), "--global-size", "256",
                     "--cache-dir", str(tmp_path / "cli"),
                     "--jobs", "2"]) == 0
        assert "analysis 0/5" in capsys.readouterr().out


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
    """``ExplorationResult`` caches nothing: ``feasible``, ``ranked()``
    and ``best`` read ``evaluated`` as it is now."""

    def _entry(self, cycles, feasible=True, wg=64):
        pe = int(cycles) % 8 + 1 if feasible else 1
        return EvaluatedDesign(Design(work_group_size=wg, num_pe=pe),
                               cycles, feasible=feasible)

    def test_ranked_reads_evaluated_on_every_call(self):
        result = ExplorationResult([self._entry(30.0), self._entry(10.0)])
        assert [e.cycles for e in result.ranked()] == [10.0, 30.0]
        assert result.best.cycles == 10.0
        result.evaluated.append(self._entry(5.0))
        assert [e.cycles for e in result.ranked()] == [5.0, 10.0, 30.0]
        assert result.best.cycles == 5.0

    def test_ties_keep_enumeration_order(self):
        first, second = self._entry(10.0, wg=64), self._entry(10.0, wg=128)
        result = ExplorationResult([self._entry(20.0), first, second])
        assert result.ranked()[:2] == [first, second]
        assert result.best is first

    def test_infeasible_excluded(self):
        result = ExplorationResult(
            [self._entry(float("inf"), feasible=False)])
        assert result.best is None
        assert result.feasible == []

    def test_best_follows_direct_mutation(self):
        result = ExplorationResult([self._entry(10.0)])
        assert result.best.cycles == 10.0
        result.evaluated.append(self._entry(1.0))
        assert result.best.cycles == 1.0
        result.evaluated.append(self._entry(2.0, feasible=False))
        assert len(result.feasible) == 2


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


def _structure(graph):
    """Everything SMS reads of a graph, written out independently of
    repro.scheduling.sms_signature."""
    return tuple((n.op_class, n.latency, tuple(n.preds), tuple(n.succs))
                 for n in graph.nodes)


@pytest.mark.parametrize("name", SAMPLE)
def test_pe_schedules_run_once_per_distinct_key(name, monkeypatch):
    """One model's sweep over every work-group size, starved budgets
    included, runs one list schedule per distinct (block DFG, ports,
    DSP budget clamped to the block's DSP cost) and one SMS search per
    distinct (function DFG structure, ports, MII), and its PE results
    equal the unshared model's."""
    import repro.model.pe as pe
    from repro.latency.optable import DSP_COST
    from repro.scheduling import compute_mii

    w = BY_NAME[name]
    space = DesignSpace.default_for(w.global_size)
    points = []
    for wg in space.work_group_sizes:
        info = analyze_kernel(w.function(), w.make_buffers(),
                              dict(w.scalars), w.ndrange(wg), VIRTEX7)
        points += [(info, d) for d in space if d.work_group_size == wg
                   and check_feasibility(info, d, VIRTEX7) is None]
        points += [(info, Design(work_group_size=wg, num_pe=pe_count,
                                 num_cu=16, work_item_pipeline=pipelined))
                   for pe_count in (16, 32, 64)
                   for pipelined in (True, False)]

    list_keys, sms_keys = set(), set()
    for info, d in points:
        budget = ResourceBudget.for_pe(VIRTEX7, d.effective_pe_slots,
                                       d.num_cu)
        for dfg in info.block_dfgs.values():
            cost = sum(DSP_COST[n.op_class] for n in dfg.nodes)
            list_keys.add((id(dfg), budget.ports,
                           min(budget.dsp_budget, cost)))
        if d.work_item_pipeline:
            mii = compute_mii(info.function_dfg, budget, info.traces,
                              info.dsp_cost_per_wi).mii
            sms_keys.add((_structure(info.function_dfg), budget.ports,
                          mii))

    runs = {"list": 0, "sms": 0}

    def counted(kind, fn):
        def run(*args, **kwargs):
            runs[kind] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(pe, "list_schedule",
                        counted("list", pe.list_schedule))
    monkeypatch.setattr(pe, "swing_modulo_schedule",
                        counted("sms", pe.swing_modulo_schedule))
    shared = FlexCL(VIRTEX7)
    results = [shared.predict(info, d).pe for info, d in points]
    assert runs == {"list": len(list_keys), "sms": len(sms_keys)}
    # Sharing must be real: strictly fewer runs than PE-row misses ask.
    assert runs["list"] < sum(len(info.block_dfgs) for info, _ in points)

    plain = FlexCL(VIRTEX7, memoize=False)
    for (info, d), pe_result in zip(points, results):
        assert _pe_fields(pe_result) == _pe_fields(plain.predict(info,
                                                                 d).pe), d
