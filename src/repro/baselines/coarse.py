"""Coarse-grained performance model in the style of Wang et al.
(HPCA'16), the paper's DSE comparator.

The paper criticises it for "ignor[ing] important OpenCL-to-FPGA
optimizations such as global memory access patterns, pipeline,
parallelism, etc.", which fundamentally limits the optimisation quality
(§2.2, §4.3).  Accordingly this model:

- prices computation as (weighted op count) x (average latency) / ILP,
  with a fixed instruction-level-parallelism factor instead of a real
  schedule;
- prices memory as bytes / fixed-bandwidth with no pattern, coalescing,
  or interleaving awareness;
- assumes every parallelism knob scales ideally and independently.
"""

from __future__ import annotations


from repro.analysis.kernel_info import KernelInfo
from repro.dse.space import Design

#: assumed ILP extracted by the tool inside one work-item
FIXED_ILP = 4.0
#: assumed flat global-memory bandwidth, bytes per cycle
FIXED_BANDWIDTH = 8.0
#: average operation latency assumed for every op class
AVERAGE_OP_LATENCY = 2.0


class CoarseModel:
    """Coarse estimator: evaluate(info, design) -> cycles."""

    def __init__(self, device) -> None:
        self.device = device

    def estimate(self, info: KernelInfo, design: Design) -> float:
        ops_per_wi = sum(info.block_weights.get(node.block, 1.0)
                         for node in info.function_dfg.nodes)
        compute_wi = ops_per_wi * AVERAGE_OP_LATENCY / FIXED_ILP
        if design.work_item_pipeline:
            # Pipelining is modelled as a flat 4x improvement, blind to
            # recurrences and resource pressure.
            compute_wi /= 4.0

        bytes_per_wi = 4.0 * (info.traces.global_reads_per_wi
                              + info.traces.global_writes_per_wi)
        mem_wi = bytes_per_wi / FIXED_BANDWIDTH
        if design.comm_mode == "pipeline":
            per_wi = max(compute_wi, mem_wi)
        else:
            per_wi = compute_wi + mem_wi

        parallelism = (design.effective_pe_slots * design.num_cu)
        return per_wi * info.total_work_items / max(parallelism, 1)
