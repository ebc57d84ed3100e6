"""Kernel analysis orchestration (paper §3.2, Figure 2's "Kernel
Analysis" box).

:func:`analyze_kernel` runs the whole front half of FlexCL:

1. profile a few work-groups with the fastest trace engine the kernel
   admits (dynamic trip counts and memory traces — "the profiling overhead is very small ... because
   only a few work-groups are profiled in practice"); an analyzer that
   probes several work-group sizes profiles the kernel once and slices
   each size's launch from that run (:class:`SharedProfile`);
2. discover loops and attach trip counts (static counts win);
3. build the simplified CDFG artefacts: per-block DFGs and the
   whole-work-item DFG (one per function and latency table, or the
   analysis's own when profiled recurrence edges join it);
4. aggregate resource usage (local ports pressure, DSP cost, local
   memory bytes).

The result, :class:`KernelInfo`, is design-independent for a fixed
work-group size: the model and baselines schedule it per design point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.dfg import (
    DataFlowGraph,
    build_block_dfg,
    build_function_dfg,
)
from repro.analysis.loops import LoopNest, find_loops
from repro.analysis.memtrace import TraceAnalysis, analyze_traces
from repro.analysis.packed import PackedGroup, PackedTraces, pack_traces
from repro.interp.executor import (
    KNOWN_ATOMICS,
    Buffer,
    KernelExecutor,
    LaunchResult,
    NDRange,
    finalize_trip_counts,
)
from repro.ir.function import Function, function_memo
from repro.ir.instructions import Alloca, Barrier, Call, PipeRead, PipeWrite
from repro.ir.types import AddressSpace, PointerType
from repro.latency.optable import OpLatencyTable

#: work-groups profiled by default (paper: "only a few work-groups").
#: Four groups let the simulator's address extrapolation find interior
#: (non-boundary) inter-group deltas even when the active-work-item
#: shape varies with a short row period (guarded stencils).
DEFAULT_PROFILE_GROUPS = 4


def _table_key(table: OpLatencyTable) -> tuple:
    # ``OpLatencyTable.for_device`` builds a fresh object per call, so
    # identity is useless as a memo key; hash the contents instead.
    return (table.scale, tuple(sorted(
        (cls.name, lat) for cls, lat in table.latencies.items())))


def _block_dfgs_for(fn: Function, table: OpLatencyTable
                    ) -> Dict[str, DataFlowGraph]:
    """Per-block DFGs depend only on the IR and the latency table —
    not on the NDRange — so one build serves every work-group size.
    Consumers (the list scheduler, baselines) never mutate them."""
    return function_memo(
        fn, ("block_dfgs", _table_key(table)),
        lambda: {block.name: build_block_dfg(block, table)
                 for block in fn.reachable_blocks()})


def _function_dfg_for(fn: Function, table: OpLatencyTable
                      ) -> DataFlowGraph:
    """The function DFG depends only on the IR and the latency table,
    so every analysis without recurrence edges shares one; node weights
    are each analysis's ``block_weights``.  ``build_function_dfg`` is
    looked up in this module when the memo misses."""
    return function_memo(fn, ("function_dfg", _table_key(table)),
                         lambda: build_function_dfg(fn, table))


#: builtins whose value depends on the work-group size
_GROUP_GEOMETRY = frozenset({"get_local_id", "get_group_id",
                             "get_local_size", "get_num_groups"})


def shares_prefix_profile(fn: Function) -> bool:
    """True when one launch prefix profiles *fn* at every work-group
    size.

    Without barriers the executor runs each group's work-items one
    after another, and the groups in launch order, so a 1-D launch
    executes its work-items in global-id order whatever the group
    size.  A kernel that reads no group geometry, synchronises nowhere
    and shares no ``__local`` memory, atomics or pipes then does the
    same thing per work-item at every size: work-group size W's
    profile, the first ``profile_groups * W`` work-items, is a prefix
    of a wider size's.
    """
    for arg in fn.args:
        if (isinstance(arg.type, PointerType)
                and arg.type.space == AddressSpace.LOCAL):
            return False
    for block in fn.reachable_blocks():
        for inst in block.instructions:
            if isinstance(inst, (Barrier, PipeRead, PipeWrite)):
                return False
            if isinstance(inst, Alloca) and inst.space == AddressSpace.LOCAL:
                return False
            if isinstance(inst, Call) and (inst.callee in _GROUP_GEOMETRY
                                           or inst.callee in KNOWN_ATOMICS):
                return False
    return True


class SharedProfile:
    """One profiling run per kernel, sliced for every work-group size.

    Internal to the analyzer that probes one kernel at several
    work-group sizes (:func:`repro.evaluation.kernel_analyzer`); pass
    it to :func:`analyze_kernel` as *shared*.
    The first analysis that misses the store runs one engine over the
    first ``min(G, profile_groups * width)`` work-items, where *width*
    is the largest of *wg_sizes* and that analysis's work-group size.
    Each analysis at a size that divides *width* then slices its
    :class:`LaunchResult` from that run: traces regrouped with
    group-local lane offsets (views of the run's columns), block and trip
    counts of its own prefix, and its group and item tallies.  The
    slice equals a run at that size alone, engine provenance included.

    The run is shared only when :func:`shares_prefix_profile` holds,
    the launch is 1-D, and it finishes on the engine a lone run would
    pick first (the synthesizer for a STATIC kernel, else the
    vectorized interpreter) with no global address written by one
    work-item and read by another: the vectorized engine steps a
    group's work-items in lockstep, and every work-item reads what
    launch order shows it only without such an address.  Otherwise
    every size is profiled alone, as :func:`analyze_kernel` does
    without *shared*.

    *make_inputs* returns fresh ``(buffers, scalars)``, equal to the
    ones each analysis receives; the shared run consumes its own set.
    The profile lives as long as its owner: nothing is memoized
    process-wide.
    """

    def __init__(self, make_inputs, wg_sizes,
                 profile_groups: int = DEFAULT_PROFILE_GROUPS) -> None:
        self._make_inputs = make_inputs
        self._wg_sizes = tuple(wg_sizes)
        self._groups = max(profile_groups, 1)
        self._built = False
        #: the shared run's launch, or None when sizes run alone
        self._ndrange: Optional[NDRange] = None
        self._source = ""
        #: the shared run's packed groups, one per *width* work-items
        self._wide: list = []
        self._item_counts: Dict[str, np.ndarray] = {}

    def launch(self, fn: Function, ndrange: NDRange, static: bool
               ) -> Optional[Tuple[LaunchResult, str]]:
        """``(launch, trace_source)`` for *ndrange*'s profiled groups,
        sliced from the shared run (built on the first call), or None
        when this size must be profiled alone."""
        if not self._built:
            self._built = True
            self._build(fn, ndrange, static)
        shared = self._ndrange
        if (shared is None or ndrange.global_size != shared.global_size
                or shared.local_size[0] % ndrange.local_size[0]):
            return None
        return self._slice(fn, ndrange.local_size[0]), self._source

    def _build(self, fn: Function, ndrange: NDRange, static: bool
               ) -> None:
        width = max(self._wg_sizes + (ndrange.work_group_size,))
        if (ndrange.dims != 1 or ndrange.global_size[0] % width
                or not shares_prefix_profile(fn)):
            return
        shared = NDRange(ndrange.global_size, width)
        buffers, scalars = self._make_inputs()
        try:
            if static:
                from repro.interp.synth import TraceSynthesizer
                run = TraceSynthesizer(fn, buffers, scalars).run
            else:
                from repro.interp.vexec import VectorizedExecutor
                run = VectorizedExecutor(fn, buffers, scalars).run
            launch = run(shared, max_groups=self._groups,
                         item_counts=True)
        except Exception:
            # Each size then runs alone: sizes whose prefix stops short
            # of the fault still analyse, the others raise as before.
            return
        wide = launch.traces.groups
        if not static:
            from repro.interp.vexec import shared_global_write
            item = np.concatenate([g.lane + i * width
                                   for i, g in enumerate(wide)])
            if shared_global_write(
                    *(np.concatenate([getattr(g, col) for g in wide])
                      for col in ("kind", "space", "addr")),
                    item, read_by_other=True):
                return
        self._ndrange = shared
        self._source = "synth" if static else "vectorized"
        self._wide = wide
        self._item_counts = launch.item_block_counts

    def _slice(self, fn: Function, wg: int) -> LaunchResult:
        """The launch a lone run at work-group size *wg* (a divisor of
        the width) records: each of its groups is a run of rows of one
        wide group, every column a view, with its own lane offsets."""
        width = self._ndrange.local_size[0]
        n_groups = min(self._groups, self._ndrange.global_size[0] // wg)
        items = n_groups * wg
        groups = []
        for g in range(n_groups):
            wide = self._wide[g * wg // width]
            first = g * wg % width
            lane_starts = wide.lane_starts[first:first + wg + 1]
            lo, hi = lane_starts[0], lane_starts[-1]
            groups.append(PackedGroup(
                wide.site[lo:hi], wide.kind[lo:hi], wide.nbytes[lo:hi],
                wide.space[lo:hi], wide.buf[lo:hi], lane_starts - lo,
                wide.addr[lo:hi], wide.names, wg))
        counts = {}
        for name, per_item in self._item_counts.items():
            count = int(per_item[:items].sum())
            if count:
                counts[name] = count
        # barriers_per_item stays 0: a sharing kernel has no barrier.
        return LaunchResult(
            groups_executed=n_groups, work_items_executed=items,
            block_counts=counts, traces=PackedTraces(groups, wg),
            trip_counts=finalize_trip_counts(fn, counts, items))


@dataclass
class KernelInfo:
    """Frozen product of kernel analysis for one (kernel, wg-size,
    device) combination.

    Its launch may be a slice of a wider profile shared across
    work-group sizes (:class:`SharedProfile`).  A slice equals a lone
    profile at this size, so nothing here, the fingerprint included,
    records which one it came from."""

    name: str
    fn: Function
    ndrange: NDRange
    device: object
    table: OpLatencyTable
    #: content hash of the analysis inputs (kernel IR, launch signature,
    #: buffer contents, device, profiling depth) — the persistent cache
    #: key this analysis was (or would be) stored under, and the kernel
    #: identity the sub-model caches spill their rows against
    fingerprint: Optional[str] = None
    loop_nest: LoopNest = None
    traces: TraceAnalysis = None
    function_dfg: DataFlowGraph = None
    block_dfgs: Dict[str, DataFlowGraph] = field(default_factory=dict)
    #: per-work-item execution frequency of each block (profiled)
    block_weights: Dict[str, float] = field(default_factory=dict)
    #: weighted DSP cost of one work-item's operations
    dsp_cost_per_wi: float = 0.0
    #: DSP slices of one PE instance (each static op is a core)
    dsp_static_cost: float = 0.0
    #: bytes of __local memory declared by the kernel (per CU)
    local_mem_bytes: int = 0
    barriers_per_wi: int = 0
    #: which engine produced the traces: ``"synth"`` (static
    #: synthesizer), ``"vectorized"`` (lane-vectorized interpreter),
    #: or ``"scalar"`` (per-work-item interpreter)
    trace_source: str = "scalar"
    #: access-summary verdict ("static" / "irregular"), when computed
    summary_verdict: Optional[str] = None

    @property
    def work_group_size(self) -> int:
        return self.ndrange.work_group_size

    @property
    def total_work_items(self) -> int:
        return self.ndrange.num_work_items

    @property
    def num_work_groups(self) -> int:
        return self.ndrange.num_work_groups

    @property
    def uses_barrier(self) -> bool:
        return self.barriers_per_wi > 0


def analysis_fingerprint(fn: Function, buffers: Dict[str, Buffer],
                         scalars: Dict[str, object], ndrange: NDRange,
                         device, table: OpLatencyTable,
                         profile_groups: int,
                         summary_fingerprint: str) -> str:
    """Content hash of one analysis run's inputs (the persistent cache
    key): kernel IR, buffer contents, scalars, NDRange, the full device
    configuration, the op-latency table, and the profiling depth, plus
    the access summary's fingerprint and the versions of the summary
    and vectorized engines — bumping either version makes every older
    entry unreachable, whichever engine produced it."""
    from repro.cache import analysis_key, digest
    from repro.interp.vexec import VEXEC_ENGINE_VERSION
    from repro.lint.summary.engine import SUMMARY_ENGINE_VERSION
    table_part = digest(sorted((cls.name, lat) for cls, lat
                               in table.latencies.items()), table.scale)
    return analysis_key(fn, buffers, scalars, ndrange, device,
                        (profile_groups, table_part,
                         SUMMARY_ENGINE_VERSION, summary_fingerprint,
                         VEXEC_ENGINE_VERSION))


def analyze_kernel(fn: Function, buffers: Dict[str, Buffer],
                   scalars: Dict[str, object], ndrange: NDRange,
                   device, profile_groups: int = DEFAULT_PROFILE_GROUPS,
                   cache=None, launch: Optional[LaunchResult] = None,
                   shared: Optional[SharedProfile] = None) -> KernelInfo:
    """Run FlexCL kernel analysis.  *buffers* are consumed (the profiling
    run mutates them); pass fresh copies if the caller needs the data.

    The kernel picks its trace engine: when the access summary proves
    it STATIC the profile is synthesized analytically
    (:class:`repro.interp.synth.TraceSynthesizer`); otherwise, or when
    synthesis raises :class:`~repro.interp.synth.SynthesisError`, the
    lane-vectorized interpreter
    (:class:`repro.interp.vexec.VectorizedExecutor`) runs it, and on
    :class:`~repro.interp.vexec.VectorizationError` the scalar
    :class:`KernelExecutor` does.  All three produce bit-identical
    launches and traces; :attr:`KernelInfo.trace_source` records which
    one ran.

    With a :class:`repro.cache.ArtifactCache` as *cache*, the analysis
    is content-addressed: a prior run with the same kernel, inputs, and
    device (in any process) is loaded from disk instead of re-profiled,
    and a cache hit leaves *buffers* untouched.  The result is
    bit-identical either way.

    *launch* takes a pre-recorded :class:`LaunchResult` instead of
    profiling.  Pipe kernels need it: they cannot be profiled standalone
    (a blocking FIFO op only makes progress when the peer kernel is
    live), so co-execute the whole program with
    :class:`repro.interp.ProgramExecutor` and pass each stage's launch.
    A ``KernelExecutor(...).run(...)`` result gives the scalar
    reference analysis.  The persistent cache is bypassed (the launch
    came from outside this function's hashed inputs).

    *shared* is internal: the :class:`SharedProfile` of an analyzer
    that probes this kernel at several work-group sizes.  On a store
    miss the launch is sliced from its one run when the kernel admits
    it, and profiled alone otherwise; either way the result, its
    fingerprint and its ``trace_source`` equal an analysis without it.
    """
    table = OpLatencyTable.for_device(device)

    if launch is not None:
        if isinstance(launch.traces, list):
            launch.traces = pack_traces(launch.traces,
                                        ndrange.work_group_size)
        return _build_info(fn, ndrange, device, table, launch,
                           fingerprint=None, summary=None,
                           trace_source="scalar")

    from repro.lint.summary import VERDICT_STATIC, summarize_kernel
    summary = summarize_kernel(fn)
    # Hash the inputs before profiling mutates the buffers; the key
    # doubles as the KernelInfo fingerprint the sub-model caches use.
    fingerprint = analysis_fingerprint(fn, buffers, scalars, ndrange,
                                       device, table, profile_groups,
                                       summary.fingerprint)
    if cache is not None:
        # A hit must be the analysis of this key: an entry copied or
        # renamed onto the path is recomputed and overwritten.
        found, cached = cache.get("analysis", fingerprint)
        if (found and isinstance(cached, KernelInfo)
                and cached.fingerprint == fingerprint):
            return cached
    static = summary.verdict == VERDICT_STATIC
    sliced = (shared.launch(fn, ndrange, static) if shared is not None
              else None)
    if sliced is not None:
        launch, trace_source = sliced
    else:
        launch, trace_source = _profile(
            fn, buffers, scalars, ndrange, max(profile_groups, 1),
            static)
    info = _build_info(fn, ndrange, device, table, launch, fingerprint,
                       summary, trace_source)
    if cache is not None:
        cache.put("analysis", fingerprint, info)
    return info


def _profile(fn: Function, buffers: Dict[str, Buffer],
             scalars: Dict[str, object], ndrange: NDRange,
             max_groups: int, static: bool):
    """Profile *max_groups* work-groups with the first engine that
    accepts the kernel; returns ``(launch, trace_source)``."""
    if static:
        from repro.interp.synth import SynthesisError, TraceSynthesizer
        try:
            return TraceSynthesizer(fn, buffers, scalars).run(
                ndrange, max_groups=max_groups), "synth"
        except SynthesisError:
            # The summary over-promised (or the launch hits a runtime
            # condition the executor would also fault on): fall back to
            # execution, which reproduces the real error behaviour.
            pass

    from repro.interp.vexec import VectorizationError, VectorizedExecutor
    try:
        return VectorizedExecutor(fn, buffers, scalars).run(
            ndrange, max_groups=max_groups), "vectorized"
    except VectorizationError:
        # The kernel (or this launch) left the vectorizable subset; the
        # buffers were restored, so scalar interpretation reproduces
        # canonical behaviour.
        pass

    launch = KernelExecutor(fn, buffers, scalars).run(
        ndrange, max_groups=max_groups)
    # Pack interpreter traces into the columnar form so analysis and
    # cache serialisation stay on the fast path either way.
    launch.traces = pack_traces(launch.traces, ndrange.work_group_size)
    return launch, "scalar"


def _build_info(fn: Function, ndrange: NDRange, device,
                table: OpLatencyTable, launch: LaunchResult,
                fingerprint: Optional[str], summary,
                trace_source: str) -> KernelInfo:
    # Stable site ids shared with the trace records (the engines number
    # sites in the same instruction order).
    for i, inst in enumerate(fn.instructions()):
        inst.site_id = i  # type: ignore[attr-defined]
    loop_nest = find_loops(fn)
    items = max(launch.work_items_executed, 1)
    block_weights = {name: count / items
                     for name, count in launch.block_counts.items()}
    # Attach profiled trip counts to loops lacking static ones.
    for loop in loop_nest.loops:
        profiled = launch.trip_counts.get(loop.header)
        if profiled is not None:
            loop.profiled_trip_count = profiled

    trace_analysis = analyze_traces(launch.traces)

    block_dfgs = _block_dfgs_for(fn, table)
    if trace_analysis.recurrences:
        # Recurrence edges are profile data: this analysis's own graph.
        function_dfg = build_function_dfg(fn, table)
        _add_recurrence_edges(function_dfg, trace_analysis)
    else:
        function_dfg = _function_dfg_for(fn, table)

    return KernelInfo(
        name=fn.name, fn=fn, ndrange=ndrange, device=device, table=table,
        fingerprint=fingerprint,
        loop_nest=loop_nest, traces=trace_analysis,
        function_dfg=function_dfg, block_dfgs=block_dfgs,
        block_weights=block_weights,
        dsp_cost_per_wi=_dsp_cost_per_wi(function_dfg, table,
                                         block_weights),
        dsp_static_cost=float(sum(
            table.dsp_cost(node.inst) for node in function_dfg.nodes)),
        local_mem_bytes=_local_mem_bytes(fn),
        barriers_per_wi=launch.barriers_per_item,
        trace_source=trace_source,
        summary_verdict=(summary.verdict if summary is not None
                         else None),
    )


def _add_recurrence_edges(graph: DataFlowGraph,
                          traces: TraceAnalysis) -> None:
    """Add store -> load edges with inter-work-item distances."""
    by_site = {}
    for node in graph.nodes:
        site = getattr(node.inst, "site_id", None)
        if site is not None:
            by_site[site] = node
    for rec in traces.recurrences:
        store_node = by_site.get(rec.store_site)
        load_node = by_site.get(rec.load_site)
        if store_node is not None and load_node is not None:
            graph.add_edge(store_node, load_node, distance=rec.distance)


def _dsp_cost_per_wi(graph: DataFlowGraph, table: OpLatencyTable,
                     block_weights: Dict[str, float]) -> float:
    total = 0.0
    for node in graph.nodes:
        total += (table.dsp_cost(node.inst)
                  * block_weights.get(node.block, 1.0))
    return total


def _local_mem_bytes(fn: Function) -> int:
    total = 0
    for inst in fn.instructions():
        if isinstance(inst, Alloca) and inst.space == AddressSpace.LOCAL:
            total += max(inst.allocated.bytes, 1)
    return total
