"""Parallel batch evaluation of the whole workload catalog.

:func:`run_suite` is the front end the persistent cache was built for:
it fans the Rodinia/PolyBench catalog across a forked process pool,
analyses every kernel at every feasible work-group size, and predicts a
deterministic sample of design points per kernel with the FlexCL model.
All workers share one on-disk :class:`~repro.cache.ArtifactCache`, so
the first (cold) run populates the store and every later run — in this
process or any other — warm-starts in seconds.

Predictions are pure functions of (kernel, design, device): a warm
suite run is row-for-row bit-identical to a cold or uncached one, which
``benchmarks/bench_suite_cache.py`` and the test suite assert.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.store import StoreStats
from repro.dse.explorer import resolve_jobs
from repro.dse.space import DesignSpace
from repro.evaluation.harness import make_analyzer, sample_designs
from repro.model import FlexCL
from repro.workloads.base import Workload


@dataclass
class SuitePrediction:
    """One predicted design point of one workload."""

    workload: str          # qualified name, e.g. 'rodinia/nw/nw1'
    design: str            # design signature
    cycles: float
    #: which engine produced the analysis traces ("synth" /
    #: "vectorized" / "scalar"); provenance only — rows() stays a
    #: 3-tuple so prediction equality checks are engine-agnostic
    trace_source: str = "scalar"

    def row(self) -> Tuple[str, str, float]:
        return (self.workload, self.design, self.cycles)


@dataclass
class SuiteResult:
    """The outcome of one batch evaluation."""

    predictions: List[SuitePrediction] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    jobs: int = 1
    workloads_evaluated: int = 0
    #: persistent-store counters aggregated across all workers
    #: (None when the suite ran uncached)
    store_stats: Optional[StoreStats] = None

    def rows(self) -> List[Tuple[str, str, float]]:
        """The predictions as plain sortable tuples (for equality
        checks between runs)."""
        return [p.row() for p in self.predictions]

    def by_workload(self) -> Dict[str, List[SuitePrediction]]:
        out: Dict[str, List[SuitePrediction]] = {}
        for p in self.predictions:
            out.setdefault(p.workload, []).append(p)
        return out

    def trace_sources(self) -> Dict[str, int]:
        """Prediction counts per trace engine, e.g.
        ``{"synth": 410, "vectorized": 96}`` — how each analysis
        behind each prediction got its traces."""
        out: Dict[str, int] = {}
        for p in self.predictions:
            out[p.trace_source] = out.get(p.trace_source, 0) + 1
        return out


def _evaluate_workload(workload: Workload, device, cache,
                       designs_per_kernel: int
                       ) -> List[SuitePrediction]:
    """Analyse one workload and predict its sampled design points."""
    analyzer = make_analyzer(workload, device, cache=cache)
    space = DesignSpace.default_for(workload.global_size)
    designs = sample_designs(workload, device, space,
                             designs_per_kernel, analyzer)
    model = FlexCL(device, cache=cache)
    out: List[SuitePrediction] = []
    for design in designs:
        info = analyzer(design.work_group_size)
        if info is None:
            continue
        out.append(SuitePrediction(
            workload=workload.qualified_name,
            design=design.signature(),
            cycles=model.predict(info, design).cycles,
            trace_source=getattr(info, "trace_source", "scalar")))
    return out


#: fork-inherited worker context (workload factories hold closures, so
#: nothing here may cross a pickle boundary)
_SUITE_STATE: Optional[tuple] = None


def _run_suite_shard(indices: List[int]
                     ) -> Tuple[List[Tuple[int, List[SuitePrediction]]],
                                StoreStats]:
    workloads, device, cache, designs_per_kernel = _SUITE_STATE
    before = cache.stats.copy() if cache is not None else StoreStats()
    out = [(i, _evaluate_workload(workloads[i], device, cache,
                                  designs_per_kernel))
           for i in indices]
    after = cache.stats.copy() if cache is not None else StoreStats()
    return out, after - before


def run_suite(workloads: Sequence[Workload], device,
              jobs=None, cache=None,
              designs_per_kernel: int = 8) -> SuiteResult:
    """Predict *designs_per_kernel* sampled design points for every
    workload in *workloads* on *device*.

    *jobs* fans workloads out over forked worker processes (``'auto'``
    = one per core, capped at the workload count); all workers read and
    write the shared persistent *cache*, so parallel cold runs warm the
    store cooperatively and warm runs are embarrassingly fast.  Results
    are returned in catalog order and are identical for any *jobs*
    value and any cache state.
    """
    start = time.perf_counter()
    workloads = list(workloads)
    n_jobs = resolve_jobs(jobs, limit=len(workloads))
    result = SuiteResult(workloads_evaluated=len(workloads))

    use_parallel = (n_jobs > 1 and len(workloads) > 1
                    and "fork" in multiprocessing.get_all_start_methods())
    if use_parallel:
        import concurrent.futures

        global _SUITE_STATE
        n_jobs = min(n_jobs, len(workloads))
        shards = [list(range(s, len(workloads), n_jobs))
                  for s in range(n_jobs)]
        _SUITE_STATE = (workloads, device, cache, designs_per_kernel)
        try:
            ctx = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=n_jobs, mp_context=ctx) as pool:
                outcomes = list(pool.map(_run_suite_shard, shards))
        finally:
            _SUITE_STATE = None
        merged: List[Optional[List[SuitePrediction]]] = \
            [None] * len(workloads)
        total = StoreStats()
        for entries, stats in outcomes:
            total = total + stats
            for index, preds in entries:
                merged[index] = preds
        for preds in merged:
            result.predictions.extend(preds or [])
        result.jobs = n_jobs
        result.store_stats = total if cache is not None else None
    else:
        before = cache.stats.copy() if cache is not None else None
        for workload in workloads:
            result.predictions.extend(
                _evaluate_workload(workload, device, cache,
                                   designs_per_kernel))
        if before is not None:
            result.store_stats = cache.stats - before

    result.elapsed_seconds = time.perf_counter() - start
    return result


def default_suite_workloads(suite: Optional[str] = None,
                            limit: int = 0) -> List[Workload]:
    """The workload catalog for a suite run: both suites by default,
    optionally filtered to 'rodinia'/'polybench' and truncated to the
    first *limit* kernels (0 = all)."""
    from repro.workloads import polybench_workloads, rodinia_workloads
    if suite == "rodinia":
        catalog = rodinia_workloads()
    elif suite == "polybench":
        catalog = polybench_workloads()
    elif suite is None:
        catalog = rodinia_workloads() + polybench_workloads()
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if limit > 0:
        catalog = catalog[:limit]
    return catalog
