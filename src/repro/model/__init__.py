"""The FlexCL analytical performance model (paper §3).

The model composes bottom-up (Figure 2):

- :mod:`repro.model.pe` — processing-element model: list-scheduled block
  latencies, MII, Swing Modulo Scheduling → (II_comp^wi, D_comp^PE) and
  Eq. 1;
- :mod:`repro.model.cu` — compute-unit model, Eqs. 5–6;
- :mod:`repro.model.kernel` — multi-CU kernel model, Eqs. 7–8;
- :mod:`repro.model.memory` — global-memory model, Table 1 patterns and
  Eq. 9;
- :mod:`repro.model.integrate` — barrier / pipeline communication modes,
  Eqs. 10–12;
- :class:`repro.model.FlexCL` — the public entry point, memoizing the
  expensive sub-models for fast sweeps.

Above the single-kernel model sit the multi-kernel layers:

- :mod:`repro.model.channel` — FIFO channel model (depth, stall on
  full/empty, II inflation on producer/consumer rate mismatch);
- :mod:`repro.model.graph` — graph-level integrator composing per-stage
  predictions into end-to-end program latency under the
  buffer-through-DRAM and pipe realizations.
"""

from repro.model.pe import PEModelResult, pe_model
from repro.model.cu import CUModelResult, cu_model, effective_pe_parallelism
from repro.model.kernel import KernelModelResult, kernel_computation_model
from repro.model.memory import MemoryModelResult, memory_model
from repro.model.integrate import integrate
from repro.model.flexcl import FlexCL, Prediction
from repro.model.channel import (
    ChannelModelResult,
    channel_model,
    coexec_stalls,
)
from repro.model.graph import (
    GraphEdge,
    GraphPrediction,
    ProgramGraph,
    dram_transfer_cycles,
    predict_graph,
)

__all__ = [
    "CUModelResult",
    "ChannelModelResult",
    "FlexCL",
    "GraphEdge",
    "GraphPrediction",
    "KernelModelResult",
    "MemoryModelResult",
    "PEModelResult",
    "Prediction",
    "ProgramGraph",
    "channel_model",
    "coexec_stalls",
    "cu_model",
    "dram_transfer_cycles",
    "effective_pe_parallelism",
    "integrate",
    "kernel_computation_model",
    "memory_model",
    "pe_model",
    "predict_graph",
]
