"""Swing Modulo Scheduling (Llosa et al., PACT'96), adapted to
work-item pipelines.

The paper's second step (§3.3.1): starting from MII, try to find a
modulo schedule of the work-item body; if placement fails under the
modulo reservation table, increase the II and retry.  The swing ordering
walks nodes by criticality, alternating direction so each node is placed
close to its already-placed neighbours (minimising lifetimes).

The scheduler operates on the whole-work-item data-flow graph with one
node per *static* operation.  Aggregate throughput constraints from
loop-repeated operations are already folded into MII (ResMII weights
operation counts by trip counts); the modulo reservation table here
resolves slot-level conflicts between distinct static operations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.dfg import DataFlowGraph
from repro.scheduling.resources import ResourceBudget

#: Give up raising the II beyond this multiple of the critical path.
_MAX_II_FACTOR = 4.0


@dataclass(frozen=True)
class SMSResult:
    """The modulo schedule found for a work-item pipeline (read-only:
    the PE model shares one result between every design whose graph,
    port limits and MII match; see :func:`sms_signature`)."""

    ii: float                      # achieved initiation interval, cycles
    depth: float                   # pipeline depth D_comp^PE, cycles
    start_times: Dict[int, float] = field(default_factory=dict)
    feasible: bool = True


def _asap_alap(graph: DataFlowGraph, ii: float):
    n = len(graph.nodes)
    asap = [0.0] * n
    for node in graph.nodes:
        best = 0.0
        for pred_idx, dist in node.preds:
            if pred_idx < node.index or dist > 0:
                best = max(best,
                           asap[pred_idx] + graph.nodes[pred_idx].latency
                           - dist * ii)
        asap[node.index] = max(best, 0.0)
    makespan = max((asap[i] + graph.nodes[i].latency for i in range(n)),
                   default=0.0)
    alap = [makespan] * n
    for node in reversed(graph.nodes):
        best = makespan
        for succ_idx, dist in node.succs:
            if succ_idx > node.index or dist > 0:
                best = min(best, alap[succ_idx] - node.latency + dist * ii)
        alap[node.index] = max(best - 0.0, asap[node.index])
    return asap, alap


def _swing_order(graph: DataFlowGraph, asap, alap) -> List[int]:
    """Order nodes by increasing mobility (alap - asap), tie-broken by
    criticality (earlier ALAP first), the essence of the swing ordering."""
    indices = list(range(len(graph.nodes)))
    indices.sort(key=lambda i: (alap[i] - asap[i], alap[i], i))
    return indices


def sms_signature(graph: DataFlowGraph) -> tuple:
    """Everything :func:`swing_modulo_schedule` reads of *graph*: each
    node's op class, latency and edges, in node order.  Graphs with
    equal signatures schedule alike under equal port limits and MII."""
    return tuple((node.op_class, node.latency, tuple(node.preds),
                  tuple(node.succs)) for node in graph.nodes)


def issue_slot_bound(graph: DataFlowGraph, budget: ResourceBudget) -> int:
    """The least II whose modulo reservation table has room for every
    port-limited op: ``int(II)`` slots hold ``issue_limit(c)`` ops of
    class c each, so any II below ``ceil(n_c / issue_limit(c))`` fails
    placement for certain."""
    bound = 1
    for cls, count in Counter(node.op_class for node in graph.nodes).items():
        limit = budget.issue_limit(cls)
        if limit > 0:
            bound = max(bound, math.ceil(count / limit))
    return bound


def swing_modulo_schedule(graph: DataFlowGraph, budget: ResourceBudget,
                          mii: float,
                          max_ii: Optional[float] = None) -> SMSResult:
    """Find (II, depth) for the work-item pipeline.

    Tries II = MII, MII+1, ... until a placement satisfying the modulo
    reservation table and all dependence constraints exists, skipping
    the IIs below :func:`issue_slot_bound`, which cannot place every op.
    """
    nodes = graph.nodes
    if not nodes:
        return SMSResult(ii=max(mii, 1.0), depth=1.0)
    critical = graph.critical_path()
    if max_ii is None:
        max_ii = max(mii, critical) * _MAX_II_FACTOR + 8
    ii = float(max(math.ceil(mii), issue_slot_bound(graph, budget), 1))
    while ii <= max_ii:
        placed = _try_schedule(graph, budget, ii)
        if placed is not None:
            depth = max(placed[i] + nodes[i].latency
                        for i in range(len(nodes)))
            return SMSResult(ii=ii, depth=max(depth, 1.0),
                             start_times=dict(enumerate(placed)))
        ii += 1.0
    # Fall back to fully serial initiation.
    return SMSResult(ii=max(critical, mii, 1.0),
                     depth=max(critical, 1.0), feasible=False)


def _try_schedule(graph: DataFlowGraph, budget: ResourceBudget,
                  ii: float) -> Optional[List[float]]:
    nodes = graph.nodes
    asap, alap = _asap_alap(graph, ii)
    order = _swing_order(graph, asap, alap)
    start: List[Optional[float]] = [None] * len(nodes)
    # Modulo reservation table: (slot, op_class) -> used count.
    mrt: Dict[tuple, int] = {}
    slots = int(ii)

    for idx in order:
        node = nodes[idx]
        earliest = asap[idx]
        for pred_idx, dist in node.preds:
            if start[pred_idx] is not None:
                earliest = max(earliest,
                               start[pred_idx] + nodes[pred_idx].latency
                               - dist * ii)
        latest_bound = earliest + ii - 1
        # Respect already-placed successors (swing places neighbours of
        # scheduled nodes near them).
        for succ_idx, dist in node.succs:
            if start[succ_idx] is not None:
                latest_bound = min(
                    latest_bound,
                    start[succ_idx] - node.latency + dist * ii)
        if latest_bound < earliest:
            return None
        limit = budget.issue_limit(node.op_class)
        t = earliest
        placed_ok = False
        while t <= latest_bound:
            if limit <= 0:
                placed_ok = True
                break
            slot = int(t) % max(slots, 1)
            if mrt.get((slot, node.op_class), 0) < limit:
                placed_ok = True
                break
            t += 1
        if not placed_ok:
            return None
        start[idx] = t
        if limit > 0:
            slot = int(t) % max(slots, 1)
            mrt[(slot, node.op_class)] = mrt.get((slot, node.op_class),
                                                 0) + 1
    # Final dependence check (distance edges may wrap).
    for node in nodes:
        for succ_idx, dist in node.succs:
            if start[node.index] + node.latency - dist * ii \
                    > start[succ_idx] + 1e-9:
                return None
    return [s if s is not None else 0.0 for s in start]
