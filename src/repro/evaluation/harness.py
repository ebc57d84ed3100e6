"""Accuracy evaluation harness (Table 2 / PolyBench methodology)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import analyze_kernel
from repro.analysis.kernel_info import (
    DEFAULT_PROFILE_GROUPS,
    KernelInfo,
    SharedProfile,
)
from repro.baselines import SDAccelEstimator, SDAccelFailure
from repro.dse.space import Design, DesignSpace, check_feasibility
from repro.interp import NDRange
from repro.latency.microbench import _stable_hash
from repro.model import FlexCL
from repro.simulator import SystemRun
from repro.workloads.base import Workload


def kernel_analyzer(fn, make_inputs: Callable[[], tuple],
                    global_size: int, wg_sizes: Sequence[int], device,
                    cache=None, profile_groups: Optional[int] = None
                    ) -> Callable[[int], Optional[KernelInfo]]:
    """The one memoized ``analyze(wg_size) -> KernelInfo`` of kernel
    *fn* over a 1-D launch of *global_size* work-items.

    *make_inputs* returns fresh ``(buffers, scalars)`` (profiling
    mutates buffers).  Each work-group size is analysed once; an
    analysis that raises gives None ('this configuration does not
    build').  With a persistent *cache*
    (:class:`repro.cache.ArtifactCache`), analyses are additionally
    content-addressed on disk and shared across processes.

    The analyzer profiles the kernel once: its
    :class:`~repro.analysis.kernel_info.SharedProfile`, built on the
    first store miss over the widest of *wg_sizes* and the requested
    size, serves every size that divides that width by slicing, when
    the kernel admits it.  Each result equals a lone analysis at that
    size."""
    groups = profile_groups or DEFAULT_PROFILE_GROUPS
    shared = SharedProfile(make_inputs, wg_sizes, groups)
    memo: Dict[int, Optional[KernelInfo]] = {}

    def analyze(wg_size: int) -> Optional[KernelInfo]:
        if wg_size not in memo:
            try:
                buffers, scalars = make_inputs()
                memo[wg_size] = analyze_kernel(
                    fn, buffers, scalars, NDRange(global_size, wg_size),
                    device, profile_groups=groups, cache=cache,
                    shared=shared)
            except Exception:
                memo[wg_size] = None
        return memo[wg_size]

    return analyze


def make_analyzer(workload: Workload, device,
                  profile_groups: Optional[int] = None,
                  cache=None) -> Callable[[int], Optional[KernelInfo]]:
    """:func:`kernel_analyzer` of one catalog *workload*, profiling
    ahead for every size of ``workload.valid_work_group_sizes()``."""
    return kernel_analyzer(
        workload.function(),
        lambda: (workload.make_buffers(), workload.scalars),
        workload.global_size, workload.valid_work_group_sizes(), device,
        cache=cache, profile_groups=profile_groups)


def sample_designs(workload: Workload, device,
                   space: Optional[DesignSpace] = None,
                   max_designs: Optional[int] = None,
                   analyzer: Optional[Callable] = None) -> List[Design]:
    """The feasible design points for a workload, deterministically
    subsampled to *max_designs* (the benches simulate a subset; the
    reported #Designs is the full feasible count)."""
    if space is None:
        space = DesignSpace.default_for(workload.global_size)
    if analyzer is None:
        analyzer = make_analyzer(workload, device)
    feasible: List[Design] = []
    for design in space:
        info = analyzer(design.work_group_size)
        if info is None:
            continue
        if check_feasibility(info, design, device) is None:
            feasible.append(design)
    if max_designs is None or len(feasible) <= max_designs:
        return feasible
    keyed = sorted(
        feasible,
        key=lambda d: _stable_hash("sample", workload.qualified_name,
                                   d.signature()))
    return sorted(keyed[:max_designs],
                  key=lambda d: d.signature())


@dataclass
class DesignRecord:
    """One evaluated design point."""

    design: Design
    actual_cycles: float
    flexcl_cycles: float
    sdaccel_cycles: Optional[float]    # None == estimator failed

    @property
    def flexcl_error(self) -> float:
        return abs(self.flexcl_cycles - self.actual_cycles) \
            / self.actual_cycles * 100.0

    @property
    def sdaccel_error(self) -> Optional[float]:
        if self.sdaccel_cycles is None:
            return None
        return abs(self.sdaccel_cycles - self.actual_cycles) \
            / self.actual_cycles * 100.0


@dataclass
class KernelAccuracy:
    """Per-kernel Table 2 row."""

    workload: Workload
    n_designs_total: int               # feasible design-space size
    records: List[DesignRecord] = field(default_factory=list)
    flexcl_seconds: float = 0.0        # measured model time (all records)
    simulate_seconds: float = 0.0      # measured simulator time

    @property
    def flexcl_mean_error(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.flexcl_error for r in self.records) \
            / len(self.records)

    @property
    def sdaccel_mean_error(self) -> Optional[float]:
        errors = [r.sdaccel_error for r in self.records
                  if r.sdaccel_error is not None]
        if not errors:
            return None
        return sum(errors) / len(errors)

    @property
    def sdaccel_failure_rate(self) -> float:
        if not self.records:
            return 0.0
        failed = sum(1 for r in self.records if r.sdaccel_cycles is None)
        return failed / len(self.records) * 100.0


def estimate_synthesis_time(workload: Workload, n_designs: int,
                            flow: str) -> float:
    """Extrapolated wall-clock of the real flows (we have no Vivado):
    System Run full synthesis averages ~45 min/design and SDAccel HLS
    ~35 s/design on the paper's host, with per-kernel spread keyed
    deterministically on the kernel name.  Returns hours for
    'system_run' and minutes for 'sdaccel'."""
    h = _stable_hash("synthtime", flow, workload.qualified_name) % 1000
    if flow == "system_run":
        per_design_hours = 0.45 + 0.75 * (h / 1000.0)   # 27-72 min
        return per_design_hours * n_designs
    if flow == "sdaccel":
        per_design_minutes = 0.35 + 0.55 * (h / 1000.0)  # 21-54 s
        return per_design_minutes * n_designs
    raise ValueError(f"unknown flow {flow!r}")


def evaluate_accuracy(workload: Workload, device,
                      space: Optional[DesignSpace] = None,
                      max_designs: Optional[int] = 24,
                      cache=None) -> KernelAccuracy:
    """Evaluate FlexCL and the SDAccel estimator against System Run on
    a (sub)sampled design space of one kernel.  *cache* warm-starts the
    kernel analyses and model sub-results from disk."""
    analyzer = make_analyzer(workload, device, cache=cache)
    if space is None:
        space = DesignSpace.default_for(workload.global_size)
    all_feasible = sample_designs(workload, device, space, None, analyzer)
    designs = sample_designs(workload, device, space, max_designs,
                             analyzer)

    model = FlexCL(device, cache=cache)
    estimator = SDAccelEstimator(device)
    simulator = SystemRun(device)
    result = KernelAccuracy(workload=workload,
                            n_designs_total=len(all_feasible))

    for design in designs:
        info = analyzer(design.work_group_size)
        if info is None:
            continue
        t0 = time.perf_counter()
        flexcl_cycles = model.predict(info, design).cycles
        result.flexcl_seconds += time.perf_counter() - t0

        try:
            sdaccel_cycles = estimator.estimate(info, design)
        except SDAccelFailure:
            sdaccel_cycles = None

        t0 = time.perf_counter()
        actual = simulator.run(info, design).cycles
        result.simulate_seconds += time.perf_counter() - t0

        result.records.append(DesignRecord(
            design=design, actual_cycles=actual,
            flexcl_cycles=flexcl_cycles,
            sdaccel_cycles=sdaccel_cycles))
    return result
