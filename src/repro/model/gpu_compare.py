"""GPU-vs-FPGA comparison (paper §1: FlexCL can "make performance
comparison across heterogeneous architecture (GPUs v.s. FGPAs)").

A deliberately coarse throughput model of a contemporary (2016-era)
discrete GPU, driven by the same :class:`~repro.analysis.KernelInfo`
the FPGA model consumes.  It is a roofline-style estimate: the kernel
is bound by instruction throughput, by global-memory bandwidth (with
the same coalescing analysis used for the FPGA), or by the exposed
dependency latency of recurrence-bound kernels — whichever dominates.

This is a triage tool, not a GPU simulator: it answers "is this kernel
even a sensible FPGA target?" at the same level of fidelity the paper
implies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.kernel_info import KernelInfo
from repro.latency.optable import OpClass

#: GPU cycles per operation class per lane (throughput reciprocals)
_GPU_OP_CPI = {
    OpClass.INT_ALU: 1.0,
    OpClass.INT_MUL: 1.0,
    OpClass.INT_DIV: 8.0,
    OpClass.FADD: 1.0,
    OpClass.FMUL: 1.0,
    OpClass.FDIV: 4.0,
    OpClass.FEXPENSIVE: 4.0,      # SFU-issued
    OpClass.CAST: 1.0,
    OpClass.LOCAL_READ: 1.0,      # shared memory
    OpClass.LOCAL_WRITE: 1.0,
    OpClass.GLOBAL_ISSUE: 1.0,    # issue slot; data cost via bandwidth
    OpClass.ADDR: 1.0,
    OpClass.CONTROL: 1.0,
    OpClass.FREE: 0.0,
    OpClass.ATOMIC: 8.0,
}


@dataclass(frozen=True)
class GPUDevice:
    """A simple throughput description of a discrete GPU."""

    name: str = "mid-2016 discrete GPU"
    sm_count: int = 13
    lanes_per_sm: int = 192          # CUDA cores per SM
    clock_mhz: float = 875.0
    dram_bandwidth_gbs: float = 208.0
    #: average dependent-op latency exposed when occupancy cannot hide it
    dependency_latency_cycles: float = 11.0


DEFAULT_GPU = GPUDevice()


@dataclass
class GPUEstimate:
    """The roofline estimate plus its components."""

    seconds: float
    compute_seconds: float
    memory_seconds: float
    latency_seconds: float

    @property
    def bound(self) -> str:
        best = max(self.compute_seconds, self.memory_seconds,
                   self.latency_seconds)
        if best == self.memory_seconds:
            return "memory bandwidth"
        if best == self.latency_seconds:
            return "dependency latency"
        return "instruction throughput"


def estimate_gpu_time(info: KernelInfo,
                      gpu: GPUDevice = DEFAULT_GPU) -> GPUEstimate:
    """Roofline estimate of the analysed kernel on *gpu*."""
    n = info.total_work_items
    clock = gpu.clock_mhz * 1e6

    # Instruction throughput bound.
    weights = info.block_weights
    ops_per_wi = sum(_GPU_OP_CPI[node.op_class]
                     * weights.get(node.block, 1.0)
                     for node in info.function_dfg.nodes)
    total_lane_cycles = ops_per_wi * n
    lanes = gpu.sm_count * gpu.lanes_per_sm
    compute_s = total_lane_cycles / lanes / clock

    # Memory bandwidth bound: coalesced bytes per work-item.
    bytes_per_wi = 4.0 * (info.traces.global_reads_per_wi
                          + info.traces.global_writes_per_wi)
    memory_s = bytes_per_wi * n / (gpu.dram_bandwidth_gbs * 1e9)

    # Latency bound: inter-work-item recurrences serialise progress the
    # same way they bound the FPGA pipeline's RecMII.
    latency_s = 0.0
    if info.traces.recurrences:
        min_distance = min(r.distance for r in info.traces.recurrences)
        chain_length = n / max(min_distance, 1)
        latency_s = (chain_length * gpu.dependency_latency_cycles
                     / clock)

    return GPUEstimate(
        seconds=max(compute_s, memory_s, latency_s),
        compute_seconds=compute_s,
        memory_seconds=memory_s,
        latency_seconds=latency_s)


def compare(info: KernelInfo, fpga_prediction,
            gpu: GPUDevice = DEFAULT_GPU) -> dict:
    """FPGA (a FlexCL :class:`~repro.model.Prediction`) vs GPU summary."""
    gpu_est = estimate_gpu_time(info, gpu)
    fpga_s = fpga_prediction.seconds
    return {
        "fpga_seconds": fpga_s,
        "gpu_seconds": gpu_est.seconds,
        "gpu_bound": gpu_est.bound,
        "fpga_bottleneck": fpga_prediction.bottleneck,
        "fpga_speedup_over_gpu": gpu_est.seconds / max(fpga_s, 1e-12),
    }
