"""Minimum initiation interval: MII = max(RecMII, ResMII) (Eqs. 2-4).

RecMII comes from inter-work-item dependence cycles: a work-item loads
what an earlier work-item stored; the pipeline cannot initiate new
work-items faster than the dependence path completes per unit distance.

ResMII comes from throughput limits: every work-item performs N_read
local reads and N_write local writes and occupies DSP-mapped cores; with
Port_read / Port_write ports and a finite DSP pool the steady-state
initiation interval is bounded below by Eq. 4 (and its DSP analogue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.dfg import DataFlowGraph
from repro.analysis.memtrace import Recurrence, TraceAnalysis
from repro.scheduling.resources import ResourceBudget


@dataclass
class MIIBreakdown:
    """MII and its components, kept for diagnostics and ablations."""

    rec_mii: float
    res_mii_mem: float
    res_mii_dsp: float

    @property
    def res_mii(self) -> float:
        return max(self.res_mii_mem, self.res_mii_dsp)

    @property
    def mii(self) -> float:
        return max(self.rec_mii, self.res_mii, 1.0)


def res_mii_dsp(dsp_cost_per_wi: float, dsp_budget: int) -> float:
    """ResMII's DSP term: in-flight DSP cost per work-item over the
    budget, at least 1."""
    return float(max(math.ceil(dsp_cost_per_wi / max(dsp_budget, 1)), 1))


def compute_res_mii(budget: ResourceBudget,
                    local_reads_per_wi: float,
                    local_writes_per_wi: float,
                    dsp_cost_per_wi: float) -> MIIBreakdown:
    """ResMII from per-work-item resource usage (Eqs. 3-4)."""
    res_mem = max(
        math.ceil(local_reads_per_wi / max(budget.local_read_ports, 1)),
        math.ceil(local_writes_per_wi / max(budget.local_write_ports, 1)),
    )
    return MIIBreakdown(rec_mii=1.0, res_mii_mem=float(max(res_mem, 1)),
                        res_mii_dsp=res_mii_dsp(dsp_cost_per_wi,
                                                budget.dsp_budget))


def compute_rec_mii(graph: DataFlowGraph,
                    recurrences: Sequence[Recurrence],
                    site_to_node: dict) -> float:
    """RecMII = max over dependence cycles of ceil(latency / distance).

    Each profiled recurrence (store by work-item *i-d*, load by
    work-item *i*) closes a cycle: the forward path runs from the load
    through the data-flow graph to the store; the back edge carries
    distance *d*.
    """
    rec_mii = 1.0
    for rec in recurrences:
        load_node = site_to_node.get(rec.load_site)
        store_node = site_to_node.get(rec.store_site)
        if load_node is None or store_node is None:
            continue
        if load_node.index <= store_node.index:
            path = graph.longest_path_between(load_node, store_node)
        else:
            # The load appears after the store in program order: the
            # dependence wraps around the whole work-item body; use the
            # store->load path plus both op latencies as the cycle length.
            path = graph.longest_path_between(store_node, load_node)
        if path is None:
            path = load_node.latency + store_node.latency
        rec_mii = max(rec_mii, math.ceil(path / max(rec.distance, 1)))
    return float(rec_mii)


def graph_rec_mii(graph: DataFlowGraph,
                  recurrences: Sequence[Recurrence]) -> float:
    """RecMII of *graph*'s profiled *recurrences*: it reads neither the
    budget nor the design."""
    return compute_rec_mii(graph, recurrences, _site_index(graph))


def compute_mii(graph: DataFlowGraph, budget: ResourceBudget,
                traces: TraceAnalysis,
                dsp_cost_per_wi: float,
                rec_mii: Optional[float] = None) -> MIIBreakdown:
    """MII = max(RecMII, ResMII) (Eq. 2).  A *rec_mii* already computed
    for this graph and these recurrences (:func:`graph_rec_mii`) is
    used as is."""
    breakdown = compute_res_mii(
        budget,
        local_reads_per_wi=traces.local_reads_per_wi,
        local_writes_per_wi=traces.local_writes_per_wi,
        dsp_cost_per_wi=dsp_cost_per_wi)
    breakdown.rec_mii = (graph_rec_mii(graph, traces.recurrences)
                         if rec_mii is None else rec_mii)
    return breakdown


def _site_index(graph: DataFlowGraph) -> dict:
    """Site ids in trace order match the function's instruction order,
    which is how the executor numbered them; map them to DFG nodes."""
    mapping = {}
    for node in graph.nodes:
        site = getattr(node.inst, "site_id", None)
        if site is not None:
            mapping[site] = node
    return mapping
