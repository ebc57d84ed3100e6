"""The synthesis half of System Run.

A real OpenCL-to-FPGA flow schedules the RTL: the hardware's II and
pipeline depth are decided at synthesis time from the *concrete* IP
cores instantiated.  We reproduce that by re-running the same scheduling
theory FlexCL uses — but with the implementation variants the toolchain
actually picked for this (kernel, design) pair instead of FlexCL's
averaged micro-benchmark latencies, plus the structural details the
analytical model simplifies away (barrier stage splits, arbitration
registers on shared ports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.dfg import build_block_dfg, build_function_dfg
from repro.analysis.kernel_info import KernelInfo
from repro.dse.space import Design
from repro.latency.microbench import ImplementationChoice
from repro.scheduling import (
    ResourceBudget,
    compute_mii,
    critical_path_depth,
    list_schedule,
    swing_modulo_schedule,
)


@dataclass
class SynthesizedDesign:
    """The fixed hardware produced by 'synthesis'."""

    ii: float                 # hardware initiation interval
    depth: float              # hardware pipeline depth
    n_pe_eff: int             # PEs the arbitration actually keeps busy
    phases: int               # pipeline stages split by barriers
    block_latencies: Dict[str, float] = None


def synthesize(info: KernelInfo, design: Design, device) -> SynthesizedDesign:
    """Schedule the kernel with concrete implementation latencies."""
    choice = ImplementationChoice(info.name, design.signature())
    concrete_table = choice.table(base_scale=device.op_latency_scale)

    budget = ResourceBudget.for_pe(
        device, design.effective_pe_slots, design.num_cu)

    # Rebuild DFGs with the concrete latencies (same structure as the
    # analysis DFGs, different node latencies).
    block_dfgs = {
        block.name: build_block_dfg(block, concrete_table)
        for block in info.fn.reachable_blocks()
    }
    block_latencies = {name: list_schedule(dfg, budget).latency
                       for name, dfg in block_dfgs.items()}
    function_dfg = build_function_dfg(info.fn, concrete_table)
    _copy_recurrence_edges(info.function_dfg, function_dfg)

    depth = max(critical_path_depth(info.fn, block_latencies,
                                    info.loop_nest), 1.0)
    if design.work_item_pipeline:
        mii = compute_mii(function_dfg, budget, info.traces,
                          info.dsp_cost_per_wi)
        sms = swing_modulo_schedule(function_dfg, budget, mii.mii)
        ii = sms.ii
    else:
        ii = depth

    n_pe = _effective_parallelism(info, design, device, ii)
    phases = max(info.barriers_per_wi + 1, 1)
    return SynthesizedDesign(ii=ii, depth=depth, n_pe_eff=n_pe,
                             phases=phases,
                             block_latencies=block_latencies)


def _effective_parallelism(info: KernelInfo, design: Design, device,
                           ii: float) -> int:
    """How many of the replicated PEs the shared ports keep busy."""
    p = design.effective_pe_slots
    ii = max(ii, 1.0)
    n_read = info.traces.local_reads_per_wi
    n_write = info.traces.local_writes_per_wi
    bounds = [p]
    if n_read > 0:
        bounds.append(int(device.local_read_ports * ii / n_read))
    if n_write > 0:
        bounds.append(int(device.local_write_ports * ii / n_write))
    if info.dsp_static_cost > 0:
        bounds.append(int(device.dsp_total / max(design.num_cu, 1)
                          / info.dsp_static_cost))
    return max(1, min(bounds))


def _copy_recurrence_edges(src_graph, dst_graph) -> None:
    """Recurrence (distance > 0) edges were attached to the analysis DFG
    from profiled traces; mirror them onto the synthesis DFG."""
    by_site_dst = {}
    for node in dst_graph.nodes:
        site = getattr(node.inst, "site_id", None)
        if site is not None:
            by_site_dst[site] = node
    for node in src_graph.nodes:
        for succ_idx, dist in node.succs:
            if dist > 0:
                src_site = getattr(node.inst, "site_id", None)
                dst_site = getattr(
                    src_graph.nodes[succ_idx].inst, "site_id", None)
                a = by_site_dst.get(src_site)
                b = by_site_dst.get(dst_site)
                if a is not None and b is not None:
                    dst_graph.add_edge(a, b, distance=dist)
