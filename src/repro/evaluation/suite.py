"""Batch evaluation of the whole workload catalog.

:func:`run_suite` is the front end the persistent cache was built for:
it analyses every Rodinia/PolyBench kernel at every feasible work-group
size and predicts a deterministic sample of design points per kernel
with the FlexCL model.  Everything goes through one on-disk
:class:`~repro.cache.ArtifactCache`, so the first (cold) run populates
the store and every later run — in this process or any other —
warm-starts in seconds.

The run is serial.  ``suite --jobs N`` and the serve daemon fan the
catalog out as one ``suite-shard`` task per workload over
:mod:`repro.serve.pool`, whose workers share the same disk store.

Predictions are pure functions of (kernel, design, device): a warm
suite run is row-for-row bit-identical to a cold or uncached one, which
``benchmarks/bench_suite_cache.py`` and the test suite assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.store import StoreStats
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
    workloads_evaluated: int = 0
    #: persistent-store counters of the run (None when it ran uncached)
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


def run_suite(workloads: Sequence[Workload], device, cache=None,
              designs_per_kernel: int = 8) -> SuiteResult:
    """Predict *designs_per_kernel* sampled design points for every
    workload in *workloads* on *device*, in catalog order, reading and
    writing the persistent *cache*.  Results are identical for any
    cache state.
    """
    start = time.perf_counter()
    workloads = list(workloads)
    result = SuiteResult(workloads_evaluated=len(workloads))
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
