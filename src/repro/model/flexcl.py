"""The top-level FlexCL model: predict cycles for (kernel, design, device).

Usage::

    from repro.model import FlexCL
    model = FlexCL(device)
    prediction = model.predict(kernel_info, design)
    print(prediction.cycles, prediction.seconds)

The model is purely analytical: given the one-time kernel analysis
(:class:`~repro.analysis.KernelInfo`), each design point evaluates in
milliseconds — this is what makes design-space exploration "seconds
instead of hours or days".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.kernel_info import KernelInfo
from repro.cache import (
    HotCache,
    StoreStats,
    device_fingerprint,
    digest,
    submodel_key,
)
from repro.dse.space import Design
from repro.model.cu import CUModelResult, cu_model
from repro.model.integrate import IntegrationResult, integrate
from repro.model.kernel import KernelModelResult, kernel_computation_model
from repro.model.memory import (
    MemoryModelResult,
    memory_model,
    pattern_table_for,
)
from repro.model.pe import PEModelResult, pe_memo_key, pe_model
from repro.scheduling import ResourceBudget


@dataclass
class Prediction:
    """A FlexCL performance estimate with its full breakdown."""

    cycles: float
    design: Design
    pe: PEModelResult
    cu: CUModelResult
    kernel: KernelModelResult
    memory: MemoryModelResult
    integration: IntegrationResult
    clock_mhz: float

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    @property
    def bottleneck(self) -> str:
        """A coarse hint at what limits this design (§1: FlexCL "helps
        to identify the performance bottlenecks")."""
        if self.integration.mode == "barrier":
            mem = self.memory.latency_per_wi * self.kernel.num_groups
            return ("global-memory transfers"
                    if mem > self.kernel.latency else "computation")
        if self.memory.latency_per_wi > self.pe.ii:
            return "global-memory bandwidth (II bound by L_mem^wi)"
        if self.pe.rec_mii >= self.pe.res_mii \
                and self.pe.rec_mii > 1.0:
            return "inter-work-item recurrence (RecMII)"
        if self.pe.res_mii > 1.0:
            return "local-memory ports / DSPs (ResMII)"
        return "pipeline depth / parallelism"


class _Pin:
    """Identity-hashed stand-in for one analysed kernel in memo keys.

    :class:`KernelInfo` is an unhashable dataclass.  A memo row keyed on
    its pin holds the analysis alive, so a recycled ``id()`` can never
    alias a dead analysis to a live one.
    """

    __slots__ = ("info",)

    def __init__(self, info) -> None:
        self.info = info


class FlexCL:
    """The analytical model for one device.

    Ablation switches (used by the ablation benchmarks) default to the
    full model: *model_scheduling_overhead* (Eqs. 7–8's ΔL term),
    *model_coalescing* (§3.4), *model_patterns* (Table 1; when off, a
    single average latency prices every request).

    With *memoize* (the default) the expensive sub-models are cached on
    the parameters they actually depend on — the PE schedule on
    ``(wg_size, pipelined)`` plus the part of the budget it reads
    (:func:`~repro.model.pe.pe_memo_key`), the memory model on
    ``(wg_size, pipelined, coalescing)`` — which makes full design-space
    sweeps many times faster without changing a single predicted cycle.
    The rows live in an unbounded :class:`~repro.cache.hot.HotCache`
    (layers ``"pe"`` and ``"memory"``) keyed on the analysed kernel's
    identity; ``cache_stats`` reports its in-memory hit/miss counts.

    With a persistent *cache* (:class:`repro.cache.ArtifactCache`), the
    memoized rows and the profiled Table-1 pattern table are also read
    from / written through to disk, so a fresh process warm-starts from
    earlier runs (again without changing a single predicted cycle).
    Rows are named on disk by the kernel's content fingerprint plus the
    model context; kernels analysed without a fingerprint stay
    memory-only.
    """

    def __init__(self, device,
                 model_scheduling_overhead: bool = True,
                 model_coalescing: bool = True,
                 model_patterns: bool = True,
                 memoize: bool = True,
                 cache=None) -> None:
        self.device = device
        self.model_scheduling_overhead = model_scheduling_overhead
        self.model_coalescing = model_coalescing
        self.model_patterns = model_patterns
        self.persistent_cache = cache
        # The spill salt scopes persistent rows to this model context:
        # full device identity plus the one ablation switch
        # (model_patterns) that changes sub-model inputs without
        # appearing in the memo keys.
        self._salt = digest(device_fingerprint(device), model_patterns)
        #: unbounded: one model may serve many kernels in a sweep, and a
        #: cap would evict rows mid-sweep
        self._memo = (HotCache(store=cache, max_entries=None)
                      if memoize else None)
        self._pins: Dict[int, _Pin] = {}
        self._pattern_table = pattern_table_for(device, cache=cache)
        if not model_patterns:
            avg = (sum(self._pattern_table.latencies.values())
                   / len(self._pattern_table.latencies))
            flat = {p: avg for p in self._pattern_table.latencies}
            from repro.dram.microbench import PatternLatencyTable
            self._pattern_table = PatternLatencyTable(latencies=flat)

    @property
    def cache_stats(self) -> StoreStats:
        """In-memory hit/miss counters of the sub-model memo, per layer
        (zeros when memoization is disabled)."""
        if self._memo is None:
            return StoreStats()
        return self._memo.hot_stats.copy()

    def clear_cache(self) -> None:
        """Drop memoized sub-model results (e.g. between kernels)."""
        if self._memo is not None:
            self._memo.clear()
            self._pins.clear()

    def _memoized(self, layer: str, info: KernelInfo, key: tuple,
                  compute):
        """*compute*() memoized under (*info*, *key*).  The store key
        is derived only on an in-memory miss, and only when *info* has
        a content fingerprint."""
        pin = self._pins.get(id(info))
        if pin is None:
            pin = self._pins.setdefault(id(info), _Pin(info))
        disk_key = None
        if self.persistent_cache is not None:
            def disk_key():
                fp = getattr(info, "fingerprint", None)
                return (submodel_key(layer, fp, self._salt, key)
                        if fp else None)
        return self._memo.get_or_compute(layer, (pin,) + key, compute,
                                         disk_key)

    def _pe_model(self, info: KernelInfo, design: Design,
                  budget: ResourceBudget) -> PEModelResult:
        """PE schedule, memoized on what it reads: the analysed kernel,
        work-group size, pipelining, and the part of the per-PE budget
        the schedule can see (:func:`~repro.model.pe.pe_memo_key`)."""
        pipelined = design.work_item_pipeline
        wg = design.work_group_size
        if self._memo is None:
            return pe_model(info, budget, pipelined=pipelined, wg_size=wg)
        return self._memoized(
            "pe", info, pe_memo_key(info, budget, pipelined, wg),
            lambda: pe_model(info, budget, pipelined=pipelined,
                             wg_size=wg))

    def _memory_model(self, info: KernelInfo,
                      design: Design) -> MemoryModelResult:
        """Memory model, memoized on the analysed kernel, work-group
        size, pipelining, and the coalescing ablation switch."""
        pipelined = design.work_item_pipeline
        if self._memo is None:
            return memory_model(info, self.device, pipelined=pipelined,
                                coalescing=self.model_coalescing,
                                table=self._pattern_table)
        return self._memoized(
            "memory", info,
            (design.work_group_size, pipelined, self.model_coalescing),
            lambda: memory_model(info, self.device, pipelined=pipelined,
                                 coalescing=self.model_coalescing,
                                 table=self._pattern_table))

    def predict(self, info: KernelInfo, design: Design) -> Prediction:
        """Estimate the cycles of *design* for the analysed kernel."""
        if design.work_group_size != info.work_group_size:
            raise ValueError(
                f"design work-group size {design.work_group_size} does "
                f"not match the analysed configuration "
                f"{info.work_group_size}; re-run kernel analysis")
        device = self.device
        budget = ResourceBudget.for_pe(
            device, design.effective_pe_slots, design.num_cu)

        pe = self._pe_model(info, design, budget)
        cu = cu_model(info, device, pe, design.effective_pe_slots,
                      design.num_cu, design.work_group_size)
        overhead = (device.schedule_overhead_cycles
                    if self.model_scheduling_overhead else 1.0)
        kernel = kernel_computation_model(
            cu, design.num_cu, info.total_work_items,
            design.work_group_size, overhead,
            work_group_pipeline=design.work_group_pipeline)
        memory = self._memory_model(info, design)
        result = integrate(design.comm_mode, pe, cu, kernel, memory,
                           info.total_work_items, design.work_group_size,
                           work_group_pipeline=design.work_group_pipeline,
                           schedule_overhead=overhead)
        return Prediction(cycles=result.cycles, design=design, pe=pe,
                          cu=cu, kernel=kernel, memory=memory,
                          integration=result, clock_mhz=device.clock_mhz)
