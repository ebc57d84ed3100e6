"""The execution half of System Run: event-driven simulation.

Work-groups are dispatched round-robin to compute units with jittered
scheduling overhead; each work-group's work-items stream through the
synthesised pipeline (with barrier drains between pipeline phases); and
every global access of every work-group is serviced by one shared
banked-DRAM controller.  Each group's requests are columns built once
from its coalesced stream, and a heap merges the request chains of all
concurrently-active compute units in global time order, so bank
conflicts, row-buffer locality, bus turnarounds, and multi-CU contention
all emerge dynamically.

Per-work-group addresses beyond the profiled groups are extrapolated
period-aware from inter-group address deltas observed among the
profiled groups (:class:`repro.analysis.GroupStreamExtrapolator`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.analysis.kernel_info import KernelInfo
from repro.devices.device import Device
from repro.dram.coalesce import coalesce_packed
from repro.dram.controller import DRAMController
from repro.dram.mapping import BankMapping
from repro.dse.space import Design
from repro.latency.microbench import _stable_hash
from repro.simulator.synthesis import SynthesizedDesign, synthesize


#: one work-group's requests as lists: kind per request, each request's
#: first block (request i covers blocks first[i]:first[i + 1]), and the
#: bank and row of each block
_Requests = Tuple[List[int], List[int], List[int], List[int]]


@dataclass
class SimulationReport:
    """The measured execution of one design."""

    cycles: float
    design: Design
    hardware: SynthesizedDesign
    compute_cycles_per_group: float = 0.0
    memory_requests: int = 0
    groups: int = 0


class SystemRun:
    """Simulates the synthesised design executing the full NDRange."""

    #: cap on individually simulated work-groups; beyond it the
    #: simulation continues with the measured steady-state group time
    MAX_SIMULATED_GROUPS = 96

    def __init__(self, device: Device) -> None:
        self.device = device

    # -- public -------------------------------------------------------------

    def run(self, info: KernelInfo, design: Design) -> SimulationReport:
        """Synthesize and execute; returns measured cycles."""
        hw = synthesize(info, design, self.device)
        if design.work_group_size != info.work_group_size:
            raise ValueError("design/work-group mismatch: re-analyse the "
                             "kernel for this work-group size")

        num_groups = info.num_work_groups
        num_cu = design.num_cu
        jitter = _Jitter(info.name, design.signature())
        compute = self._group_compute_cycles(hw, design)
        streams = self._group_streams(info, design)
        mapping = BankMapping.for_device(self.device)
        controller = DRAMController(mapping, self.device.dram)
        overhead = self.device.schedule_overhead_cycles

        def requests(group: int) -> _Requests:
            kind, addr, nbytes = streams(group)
            first, bank, row = mapping.locate_blocks(addr, nbytes)
            return (kind.tolist(), first.tolist(), bank.tolist(),
                    row.tolist())

        if design.comm_mode == "barrier":
            return self._run_barrier_mode(
                info, design, hw, compute, requests, controller,
                jitter, overhead)

        access = controller.access
        n_chains = max(hw.n_pe_eff, 1)
        initiations = math.ceil(
            max(design.work_group_size - hw.n_pe_eff, 0)
            / max(hw.n_pe_eff, 1))
        issue_span = hw.ii * max(initiations, 1)
        tail = hw.depth * 0.5
        # Per CU: the work-group in flight (its request columns, start,
        # latest response and requests still pending).
        columns: List[_Requests] = [None] * num_cu
        start = [0.0] * num_cu
        last_finish = [0.0] * num_cu
        pending = [-1] * num_cu         # -1: the CU is idle
        # One entry per request chain with requests left, keyed on its
        # head request's arrival; ties pop in (CU, chain) order.
        heap: List[Tuple[float, int, int, int]] = []
        cu_free = [0.0] * num_cu
        next_group = 0
        finished_groups = 0
        total_requests = 0
        group_times: List[float] = []
        finish = 0.0

        simulated_groups = min(num_groups, self.MAX_SIMULATED_GROUPS)
        dispatcher_free = 0.0   # the round-robin dispatcher is serial
        freed = True            # a CU went idle: dispatch onto it
        while finished_groups < simulated_groups:
            # Dispatch onto idle CUs, one work-group at a time; the
            # request chains of a group are closed loops, request i on
            # chain i mod n_chains.
            if freed:
                for cu in range(num_cu):
                    if pending[cu] < 0 and next_group < simulated_groups:
                        dispatch = overhead * jitter.factor(
                            f"disp{next_group}", 0.25)
                        t0 = max(cu_free[cu], dispatcher_free) + dispatch
                        dispatcher_free = t0
                        columns[cu] = cols = requests(next_group)
                        n = len(cols[0])
                        total_requests += n
                        start[cu] = last_finish[cu] = t0
                        pending[cu] = n
                        for chain in range(min(n_chains, n)):
                            heapq.heappush(heap, (t0, cu, chain, chain))
                        next_group += 1

            # Service the globally earliest pending request.
            retire = freed     # a group with no requests retires at once
            if heap:
                arrival, cu, chain, i = heapq.heappop(heap)
                kind, first, bank, row = columns[cu]
                for j in range(first[i], first[i + 1]):
                    # the request completes with its last block
                    done = access(kind[i], bank[j], row[j], arrival)
                if i + n_chains < len(kind):
                    heapq.heappush(heap, (done, cu, chain, i + n_chains))
                if done > last_finish[cu]:
                    last_finish[cu] = done
                pending[cu] -= 1
                retire = retire or pending[cu] == 0

            # Retire groups whose requests (and compute) are done.
            freed = False
            if retire:
                for cu in range(num_cu):
                    if pending[cu] != 0:
                        continue
                    # The last response still traverses the downstream
                    # half of the pipeline before the work-group retires.
                    end = max(start[cu] + compute, last_finish[cu] + tail)
                    if design.work_group_pipeline:
                        # Successive groups stream into the pipeline as
                        # soon as initiation capacity frees; only the
                        # memory drain still gates the CU.
                        cu_free[cu] = max(start[cu] + issue_span,
                                          last_finish[cu])
                    else:
                        cu_free[cu] = end
                    finish = max(finish, end)
                    group_times.append(max(cu_free[cu], start[cu])
                                       - start[cu])
                    pending[cu] = -1
                    freed = True
                    finished_groups += 1

        # Steady-state extrapolation for the remaining groups: the
        # completion rate is bound by CU occupancy or by the serial
        # dispatcher, whichever is slower.
        remaining = num_groups - simulated_groups
        if remaining > 0 and group_times:
            window = group_times[-min(len(group_times), 4 * num_cu):]
            steady = sum(window) / len(window)
            per_group = max((steady + overhead) / num_cu, overhead)
            finish += remaining * per_group
        return SimulationReport(
            cycles=finish, design=design, hardware=hw,
            compute_cycles_per_group=compute,
            memory_requests=total_requests, groups=num_groups)

    # -- barrier communication mode ------------------------------------

    def _run_barrier_mode(self, info: KernelInfo, design: Design,
                          hw: SynthesizedDesign, compute: float,
                          requests: Callable[[int], _Requests],
                          controller: DRAMController,
                          jitter: "_Jitter",
                          overhead: float) -> SimulationReport:
        """Strict phase alternation (paper §3.5: "no overlap between
        the computation and the global memory access").

        Each round dispatches one work-group per CU, streams every
        group's transfers through the memory channel back to back
        (dependency-chained — this is what Eq. 10's serial
        ``L_mem^wi x N_wi`` prices), then lets the round's groups
        compute concurrently before the next transfer phase opens.
        """
        num_groups = info.num_work_groups
        num_cu = design.num_cu
        rounds = math.ceil(num_groups / num_cu)
        simulated_rounds = min(
            rounds, max(self.MAX_SIMULATED_GROUPS // max(num_cu, 1), 1))

        access = controller.access
        clock = 0.0
        total_requests = 0
        round_times: List[float] = []
        group_index = 0
        for r in range(simulated_rounds):
            round_start = clock
            groups = list(range(group_index,
                                min(group_index + num_cu, num_groups)))
            group_index += len(groups)
            # dispatch + transfer phase (serial on the channel)
            for g in groups:
                clock += overhead * jitter.factor(f"disp{g}", 0.25)
                kind, first, bank, row = requests(g)
                total_requests += len(kind)
                for i, k in enumerate(kind):
                    arrival = clock
                    for j in range(first[i], first[i + 1]):
                        clock = access(k, bank[j], row[j], arrival)
            # compute phase: the round's groups run concurrently
            clock += compute
            round_times.append(clock - round_start)

        remaining = rounds - simulated_rounds
        if remaining > 0 and round_times:
            window = round_times[-min(len(round_times), 8):]
            clock += remaining * (sum(window) / len(window))
        return SimulationReport(
            cycles=clock, design=design, hardware=hw,
            compute_cycles_per_group=compute,
            memory_requests=total_requests, groups=num_groups)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _group_compute_cycles(hw: SynthesizedDesign,
                              design: Design) -> float:
        initiations = math.ceil(
            max(design.work_group_size - hw.n_pe_eff, 0)
            / max(hw.n_pe_eff, 1))
        # Work-items stay registered in the pipeline across a barrier;
        # each barrier costs one phase-depth drain + refill.
        phase_depth = hw.depth / max(hw.phases, 1)
        return (hw.ii * initiations + hw.depth
                + (hw.phases - 1) * phase_depth)

    def _group_streams(self, info: KernelInfo, design: Design
                       ) -> Callable[[int], Tuple[np.ndarray, ...]]:
        """group index -> its coalesced requests as ``(kind, addr,
        nbytes)`` columns, via the shared
        :class:`repro.analysis.GroupStreamExtrapolator` (the model
        prices the SAME streams; only timing differs)."""
        from repro.analysis.streams import GroupStreamExtrapolator
        extrapolator = GroupStreamExtrapolator(
            info.traces.global_traces,
            pipelined=design.work_item_pipeline)
        unit = self.device.mem_access_unit_bits

        def streams(group: int):
            stream = extrapolator.stream(group)
            return coalesce_packed(stream.kind, stream.addr, stream.nbytes,
                                   unit)

        return streams


class _Jitter:
    """Deterministic noise source keyed on (kernel, design)."""

    def __init__(self, kernel: str, signature: str) -> None:
        self._kernel = kernel
        self._signature = signature

    def factor(self, tag: str, amplitude: float) -> float:
        """A multiplier in [1 - amplitude, 1 + amplitude]."""
        h = _stable_hash("jitter", self._kernel, self._signature, tag)
        u = (h % 10_000) / 10_000
        return 1.0 + amplitude * (2.0 * u - 1.0)
