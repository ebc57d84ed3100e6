"""GPU-vs-FPGA triage (paper §1: FlexCL can "make performance
comparison across heterogenous architecture (GPUs v.s. FGPAs)").

Compares the best FPGA design found by FlexCL against a roofline GPU
estimate for three kernels with very different characters.

Run:  python examples/gpu_vs_fpga.py
"""

import numpy as np

from repro.devices import VIRTEX7
from repro.dse import DesignSpace, explore
from repro.evaluation import kernel_analyzer
from repro.frontend import compile_opencl
from repro.interp import Buffer
from repro.model import FlexCL
from repro.model.gpu_compare import compare

N = 4096

KERNELS = {
    "streaming multiply": r"""
    __kernel void k(__global const float* a, __global float* b, int n) {
        int i = get_global_id(0);
        if (i < n) b[i] = a[i] * 2.0f;
    }
    """,
    "sequential scan": r"""
    __kernel void k(__global const float* a, __global float* b, int n) {
        int i = get_global_id(0);
        if (i > 0 && i < n) b[i] = b[i - 1] + a[i];
    }
    """,
    "compute-heavy transcendental": r"""
    __kernel void k(__global const float* a, __global float* b, int n) {
        int i = get_global_id(0);
        if (i < n) {
            float x = a[i];
            for (int d = 0; d < 8; d++) {
                x = exp(x * 0.1f) + log(x + 2.0f);
            }
            b[i] = x;
        }
    }
    """,
}


def inputs():
    """Fresh buffers and scalars for one analysis (profiling mutates
    buffers)."""
    return ({"a": Buffer("a", np.ones(N, np.float32) + 0.5),
             "b": Buffer("b", np.zeros(N, np.float32))}, {"n": N})


def main() -> None:
    model = FlexCL(VIRTEX7)
    for name, src in KERNELS.items():
        fn = compile_opencl(src).get("k")
        space = DesignSpace.default_for(N)
        analyzer = kernel_analyzer(fn, inputs, N, space.work_group_sizes,
                                   VIRTEX7)
        result = explore(space, analyzer,
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7)
        best = result.best
        info = analyzer(best.design.work_group_size)
        prediction = model.predict(info, best.design)
        summary = compare(info, prediction)

        print(f"== {name}")
        print(f"   best FPGA design: {best.design}")
        print(f"   FPGA: {summary['fpga_seconds']*1e6:9.1f} us "
              f"({summary['fpga_bottleneck']})")
        print(f"   GPU : {summary['gpu_seconds']*1e6:9.1f} us "
              f"({summary['gpu_bound']}-bound)")
        ratio = summary["fpga_speedup_over_gpu"]
        verdict = ("FPGA favourable" if ratio > 1.0
                   else "GPU favourable")
        print(f"   FPGA/GPU speedup: {ratio:.2f}x -> {verdict}\n")


if __name__ == "__main__":
    main()
