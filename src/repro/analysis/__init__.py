"""Kernel analysis (paper §3.2).

Turns a lowered kernel plus a launch configuration into the single frozen
:class:`KernelInfo` product that both the analytical model and the
baselines consume: the simplified CDFG, per-loop trip counts (static when
derivable, profiled otherwise), the per-work-item global memory trace,
local/global access counts, detected inter-work-item recurrences, and
resource usage.
"""

from repro.analysis.loops import LoopInfo, LoopNest, find_loops
from repro.analysis.dfg import (
    DataFlowGraph,
    DFGNode,
    build_block_dfg,
    build_function_dfg,
    pointer_root,
)
from repro.analysis.memtrace import (
    AccessSiteStats,
    Recurrence,
    TraceAnalysis,
    analyze_traces,
)
from repro.analysis.kernel_info import KernelInfo, analyze_kernel
from repro.analysis.streams import GroupStreamExtrapolator

__all__ = [
    "AccessSiteStats",
    "GroupStreamExtrapolator",
    "DFGNode",
    "DataFlowGraph",
    "KernelInfo",
    "LoopInfo",
    "LoopNest",
    "Recurrence",
    "TraceAnalysis",
    "analyze_kernel",
    "analyze_traces",
    "build_block_dfg",
    "build_function_dfg",
    "find_loops",
    "pointer_root",
]
