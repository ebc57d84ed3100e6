"""Processing-element model (paper §3.3.1).

A PE executes one work-item at a time; with work-item pipelining the PE
overlaps successive work-items at initiation interval II_comp^wi.  The
model:

1. estimates every basic block's latency with resource-aware
   priority-ordered list scheduling (ASAP);
2. derives the pipeline depth D_comp^PE as the summed block latency
   along the critical path of the simplified CDFG (loop regions
   contribute trip_count × per-iteration latency);
3. computes MII = max(RecMII, ResMII) (Eqs. 2–4) and refines
   II_comp^wi with Swing Modulo Scheduling;
4. applies Eq. 1:  L_comp^PE = II · (N_wi^wg − 1) + D.

Given a *shared* dict (one per :class:`~repro.model.flexcl.FlexCL`),
steps 1 and 3 compute each distinct schedule once: a block's list
schedule is keyed on its DFG, the port limits and the DSP budget clamped
to the block's own DSP cost (``_block_key``), and an SMS search on the
function DFG's structure, the port limits and MII
(:func:`~repro.scheduling.sms.sms_signature`).  Block DFGs are shared
across work-group sizes, so one schedule serves every work-group size,
both pipelining modes and every budget at or above the clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.analysis.dfg import DataFlowGraph
from repro.analysis.kernel_info import KernelInfo
from repro.latency.optable import DSP_COST
from repro.scheduling import (
    ResourceBudget,
    SMSResult,
    compute_mii,
    critical_path_depth,
    graph_rec_mii,
    list_schedule,
    res_mii_dsp,
    sms_signature,
    swing_modulo_schedule,
)


@dataclass
class PEModelResult:
    """(II, D) of one PE plus the derived work-group latency."""

    ii: float                      # II_comp^wi
    depth: float                   # D_comp^PE
    latency_wg: float              # L_comp^PE (Eq. 1)
    block_latencies: Dict[str, float] = None
    rec_mii: float = 1.0
    res_mii: float = 1.0


def _per_graph(shared: dict, tag: str, graph: DataFlowGraph,
               derive: Callable[[DataFlowGraph], object]):
    """*derive*(*graph*), computed once per graph object.  The entry
    pins the graph, so its ``id()`` cannot be recycled while *shared*
    holds keys made from it."""
    key = (tag, id(graph))
    entry = shared.get(key)
    if entry is None:
        entry = shared[key] = (graph, derive(graph))
    return entry[1]


def _dsp_cost(graph: DataFlowGraph) -> int:
    return sum(DSP_COST[node.op_class] for node in graph.nodes)


def _block_key(shared: dict, graph: DataFlowGraph,
               budget: ResourceBudget) -> tuple:
    """What :func:`~repro.scheduling.list_schedule` reads of one block:
    the block DFG, the port limits and the DSP budget.  Its DSP check
    blocks an op only while the in-flight DSP cost plus its own exceeds
    ``dsp_budget``; in-flight ops are the block's own, so the check
    never fires once the budget covers the block's DSP cost: clamp it
    there."""
    return ("list", id(graph), budget.ports,
            min(budget.dsp_budget,
                _per_graph(shared, "dsp", graph, _dsp_cost)))


def schedule_blocks(info: KernelInfo, budget: ResourceBudget,
                    shared: Optional[dict] = None) -> Dict[str, float]:
    """List-schedule every basic block under *budget*, reusing the
    schedules in *shared* (see the module docstring) when given."""
    if shared is None:
        return {name: list_schedule(dfg, budget).latency
                for name, dfg in info.block_dfgs.items()}
    latencies = {}
    for name, dfg in info.block_dfgs.items():
        key = _block_key(shared, dfg, budget)
        latency = shared.get(key)
        if latency is None:
            latency = shared[key] = list_schedule(dfg, budget).latency
        latencies[name] = latency
    return latencies


def _modulo_schedule(graph: DataFlowGraph, budget: ResourceBudget,
                     mii: float,
                     shared: Optional[dict] = None) -> SMSResult:
    """:func:`swing_modulo_schedule`, run once per distinct graph
    structure, port limits and MII in *shared* when given."""
    if shared is None:
        return swing_modulo_schedule(graph, budget, mii)
    # One token per distinct signature: graphs of equal structure share
    # it, and the key hashes in constant time.
    token = _per_graph(shared, "sig", graph, lambda g: shared.setdefault(
        ("structure", sms_signature(g)), object()))
    key = ("sms", token, budget.ports, mii)
    result = shared.get(key)
    if result is None:
        result = shared[key] = swing_modulo_schedule(graph, budget, mii)
    return result


def _rec_mii(info: KernelInfo, shared: Optional[dict]) -> Optional[float]:
    """RecMII, computed once per function DFG and recurrence set in
    *shared* (None without *shared*: :func:`compute_mii` computes it)."""
    if shared is None:
        return None
    recurrences = info.traces.recurrences
    key = ("rec_mii",) + tuple((r.load_site, r.store_site, r.distance)
                               for r in recurrences)
    return _per_graph(shared, key, info.function_dfg,
                      lambda g: graph_rec_mii(g, recurrences))


def pe_memo_key(info: KernelInfo, budget: ResourceBudget,
                pipelined: bool, wg_size: int) -> tuple:
    """The inputs :func:`pe_model` reads from a design, as a memo key.

    Besides the port limits (``budget.ports``) the model reads the
    budget's ``dsp_budget`` in exactly two places:

    - the list scheduler's DSP check, which blocks an op only while the
      DSP cost already in flight plus its own exceeds ``dsp_budget``.
      In-flight ops all belong to one block, and every block's DSP cost
      sums to at most ``info.dsp_static_cost`` (the sum over the whole
      function DFG, whose nodes are the reachable blocks' instructions).
      So the check never fires once ``dsp_budget >= ceil(static)``, and
      every budget at or above that bound schedules alike: clamp it;
    - ResMII's DSP term (:func:`~repro.scheduling.mii.res_mii_dsp`),
      which only the pipelined model reads (RecMII and SMS read the
      graph and the port limits): key on the term itself.

    Below the bound the key keeps the real ``dsp_budget``, so it is
    exact for infeasible designs too; feasible designs always sit at or
    above it (:func:`repro.dse.space.check_feasibility`)."""
    dsp = budget.dsp_budget
    return (wg_size, pipelined, budget.ports,
            min(dsp, math.ceil(info.dsp_static_cost)),
            res_mii_dsp(info.dsp_cost_per_wi, dsp) if pipelined else None)


def pe_model(info: KernelInfo, budget: ResourceBudget,
             pipelined: bool = True,
             wg_size: Optional[int] = None,
             shared: Optional[dict] = None) -> PEModelResult:
    """Run the full PE model for one design's budget, sharing schedules
    through *shared* when given (the result is the same either way)."""
    block_latencies = schedule_blocks(info, budget, shared)
    depth = critical_path_depth(info.fn, block_latencies, info.loop_nest)
    depth = max(depth, 1.0)

    if pipelined:
        mii = compute_mii(info.function_dfg, budget, info.traces,
                          info.dsp_cost_per_wi,
                          rec_mii=_rec_mii(info, shared))
        sms = _modulo_schedule(info.function_dfg, budget, mii.mii, shared)
        ii = sms.ii
        rec_mii, res_mii = mii.rec_mii, mii.res_mii
        # Work-item pipelining cannot initiate through a barrier: every
        # work-item must arrive before any proceeds, which serialises
        # the stage; the II grows by the barrier's drain effect only in
        # so far as SMS already orders memory ops around it, so no extra
        # term is added here (the simulator models the actual drain).
    else:
        ii = depth                       # serial: next WI starts after D
        rec_mii = res_mii = depth

    n_wg = wg_size if wg_size is not None else info.work_group_size
    latency_wg = ii * max(n_wg - 1, 0) + depth      # Eq. 1
    return PEModelResult(ii=ii, depth=depth, latency_wg=latency_wg,
                         block_latencies=block_latencies,
                         rec_mii=rec_mii, res_mii=res_mii)
