"""Graph-level latency integration for multi-kernel programs.

A program is a DAG of kernel stages connected by intermediate data.
Two hardware realizations of each edge are modelled:

- **buffer-through-DRAM** (``'dram'``): the producer kernel finishes,
  its output buffer lands in global memory, the consumer launches and
  reads it back.  Stages serialize:

      T_program = Σ_stages T_stage + Σ_edges T_transfer(edge)

  where each edge's transfer is priced as a streaming write plus a
  streaming read of the intermediate buffer through the profiled
  Table-1 pattern latencies (sequential traffic: row-hit bursts with
  one row miss per DRAM row).

- **pipe** (``'pipe'``): edges become on-chip FIFOs and all stages run
  concurrently.  Steady-state throughput is set by the slowest stage;
  the others block on full/empty (:mod:`repro.model.channel`).  The
  end-to-end latency is the bottleneck stage's streaming time, plus
  the pipeline fill of the other stages, plus the FIFO handshake tax:

      T_program = max_i T_i + Σ_{i != bottleneck} D_i
                  + Σ_edges stall_cycles(edge)

Per-stage times come from the single-kernel FlexCL model unchanged —
the graph layer composes predictions, it never re-derives them — so a
one-stage program in DRAM realization reproduces ``FlexCL.predict``
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.kernel_info import KernelInfo
from repro.dse.space import Design
from repro.model.channel import ChannelModelResult, channel_model
from repro.model.flexcl import FlexCL, Prediction

REALIZATIONS = ("dram", "pipe")


@dataclass(frozen=True)
class GraphEdge:
    """One producer → consumer dependency through an intermediate
    buffer (DRAM realization) or a FIFO channel (pipe realization)."""

    src: str
    dst: str
    buffer: str
    nbytes: int
    elem_bytes: int = 4

    @property
    def tokens(self) -> int:
        return max(1, self.nbytes // max(self.elem_bytes, 1))


@dataclass(frozen=True)
class ProgramGraph:
    """Stage order plus the data edges between stages."""

    name: str
    stages: Tuple[str, ...]
    edges: Tuple[GraphEdge, ...] = ()

    def __post_init__(self) -> None:
        known = set(self.stages)
        order = {s: i for i, s in enumerate(self.stages)}
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(
                    f"edge {e.src}->{e.dst} references unknown stage")
            if order[e.src] >= order[e.dst]:
                raise ValueError(
                    f"edge {e.src}->{e.dst} goes against stage order")


@dataclass(frozen=True)
class TransferResult:
    """Priced DRAM round trip of one edge's intermediate buffer."""

    edge: GraphEdge
    cycles: float


@dataclass
class GraphPrediction:
    """End-to-end program estimate with its per-stage breakdown."""

    realization: str
    cycles: float
    graph: ProgramGraph
    stages: Dict[str, Prediction] = field(default_factory=dict)
    #: DRAM realization: per-edge buffer round trips
    transfers: List[TransferResult] = field(default_factory=list)
    #: pipe realization: per-edge channel judgements
    channels: Dict[str, ChannelModelResult] = field(default_factory=dict)
    #: pipe realization: the stage that limits steady-state throughput
    bottleneck_stage: str = ""
    clock_mhz: float = 0.0

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    @property
    def transfer_cycles(self) -> float:
        return sum(t.cycles for t in self.transfers)


def dram_transfer_cycles(nbytes: int, device, table=None) -> float:
    """Cycles to stream one intermediate buffer out to DRAM and back.

    Sequential traffic coalesces into ``mem_access_unit``-sized
    requests; consecutive requests hit the open row, with one row miss
    each time the stream crosses a DRAM row boundary.  Both directions
    are priced with the same profiled Table-1 latencies the
    single-kernel memory model uses (Eq. 9 applied to the transfer's
    pattern counts).
    """
    if nbytes <= 0:
        return 0.0
    from repro.dram.patterns import AccessPattern
    from repro.model.memory import pattern_table_for
    if table is None:
        table = pattern_table_for(device)
    unit = max(device.mem_access_unit_bits // 8, 1)
    requests = math.ceil(nbytes / unit)
    rows = max(1, math.ceil(nbytes / max(device.dram_row_bytes, 1)))
    misses = min(rows, requests)
    hits = requests - misses
    write = (hits * table.of(AccessPattern.WAW_HIT)
             + misses * table.of(AccessPattern.WAW_MISS))
    read = (hits * table.of(AccessPattern.RAR_HIT)
            + misses * table.of(AccessPattern.RAR_MISS))
    return write + read


def predict_graph(graph: ProgramGraph, model: FlexCL,
                  infos: Dict[str, KernelInfo],
                  designs: Dict[str, Design],
                  realization: str = "dram",
                  depths: Optional[Dict[str, int]] = None,
                  default_depth: int = 16) -> GraphPrediction:
    """Predict the end-to-end cycles of *graph* under one realization.

    *infos* / *designs* map stage names to their analysed kernels and
    chosen design points (every stage must be present).  *depths* maps
    edge buffer names to FIFO depths for the pipe realization
    (*default_depth* elsewhere).
    """
    if realization not in REALIZATIONS:
        raise ValueError(f"unknown realization {realization!r}; "
                         f"expected one of {REALIZATIONS}")
    missing = [s for s in graph.stages
               if s not in infos or s not in designs]
    if missing:
        raise ValueError(f"no analysis/design for stage(s): "
                         f"{', '.join(missing)}")
    stages = {name: model.predict(infos[name], designs[name])
              for name in graph.stages}
    clock = model.device.clock_mhz
    if realization == "dram":
        transfers = [
            TransferResult(edge=e, cycles=dram_transfer_cycles(
                e.nbytes, model.device,
                table=getattr(model, "_pattern_table", None)))
            for e in graph.edges
        ]
        cycles = (sum(p.cycles for p in stages.values())
                  + sum(t.cycles for t in transfers))
        return GraphPrediction(realization="dram", cycles=cycles,
                               graph=graph, stages=stages,
                               transfers=transfers, clock_mhz=clock)

    depths = depths or {}
    channels: Dict[str, ChannelModelResult] = {}
    stall_cycles = 0.0
    for e in graph.edges:
        ch = channel_model(
            name=e.buffer,
            depth=depths.get(e.buffer, default_depth),
            tokens=e.tokens, elem_bytes=e.elem_bytes,
            producer_cycles=stages[e.src].cycles,
            consumer_cycles=stages[e.dst].cycles)
        channels[e.buffer] = ch
        stall_cycles += ch.stall_cycles
    bottleneck = max(graph.stages, key=lambda s: stages[s].cycles)
    stream = stages[bottleneck].cycles
    fill = sum(stages[s].pe.depth for s in graph.stages
               if s != bottleneck)
    cycles = stream + fill + stall_cycles
    return GraphPrediction(realization="pipe", cycles=cycles,
                           graph=graph, stages=stages,
                           channels=channels,
                           bottleneck_stage=bottleneck,
                           clock_mhz=clock)
