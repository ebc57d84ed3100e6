"""The execution half of System Run: event-driven simulation.

Work-groups are dispatched round-robin to compute units with jittered
scheduling overhead; each work-group's work-items stream through the
synthesised pipeline (with barrier drains between pipeline phases); and
every global access of every work-group is serviced by one shared
banked-DRAM controller.  Requests from all concurrently-active compute
units are merged in global time order, so bank conflicts, row-buffer
locality, bus turnarounds, and multi-CU contention all emerge
dynamically.

Per-work-group addresses beyond the profiled groups are extrapolated
period-aware from inter-group address deltas observed among the
profiled groups (exact for the affine access functions OpenCL kernels
overwhelmingly use, including guarded stencils whose active work-item
shape varies with a short row period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.analysis.kernel_info import KernelInfo
from repro.devices.device import Device
from repro.dram.coalesce import (
    CoalescedRequest,
    coalesce_stream,
)
from repro.dram.controller import DRAMController
from repro.dram.mapping import BankMapping
from repro.dse.space import Design
from repro.latency.microbench import _stable_hash
from repro.simulator.synthesis import SynthesizedDesign, synthesize


@dataclass
class SimulationReport:
    """The measured execution of one design."""

    cycles: float
    design: Design
    hardware: SynthesizedDesign
    compute_cycles_per_group: float = 0.0
    memory_requests: int = 0
    groups: int = 0


class _GroupExec:
    """One work-group in flight on a CU: closed-loop request chains."""

    __slots__ = ("cu", "start", "compute_end", "chains", "chain_clock",
                 "chain_pos", "last_finish", "serial", "tail",
                 "issue_done")

    def __init__(self, cu: int, start: float, compute: float,
                 requests: Sequence[CoalescedRequest], n_chains: int,
                 serial: bool, tail: float = 0.0,
                 issue_done: float = 0.0) -> None:
        self.tail = tail
        self.issue_done = issue_done or (start + compute)
        self.cu = cu
        self.start = start
        self.compute_end = start + compute
        self.serial = serial
        if serial:
            n_chains = 1
        n_chains = max(n_chains, 1)
        self.chains: List[List[CoalescedRequest]] = [
            [] for _ in range(n_chains)]
        for i, req in enumerate(requests):
            self.chains[i % n_chains].append(req)
        self.chain_clock = [start] * n_chains
        self.chain_pos = [0] * n_chains
        self.last_finish = start

    def next_chain(self) -> Optional[int]:
        """The chain with the earliest pending arrival, or None."""
        best = None
        best_t = math.inf
        for c, queue in enumerate(self.chains):
            if self.chain_pos[c] < len(queue) \
                    and self.chain_clock[c] < best_t:
                best = c
                best_t = self.chain_clock[c]
        return best

    @property
    def requests_done(self) -> bool:
        return all(self.chain_pos[c] >= len(q)
                   for c, q in enumerate(self.chains))

    def end_time(self, compute: float) -> float:
        if self.serial:
            # Barrier communication: transfers then compute.
            return self.last_finish + compute
        # The last response still traverses the downstream half of the
        # pipeline before the work-group retires.
        return max(self.compute_end, self.last_finish + self.tail)


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
        controller = DRAMController(BankMapping.for_device(self.device),
                                    self.device.dram)
        overhead = self.device.schedule_overhead_cycles

        if design.comm_mode == "barrier":
            return self._run_barrier_mode(
                info, design, hw, compute, streams, controller,
                jitter, overhead)

        cu_free = [0.0] * num_cu
        active: List[Optional[_GroupExec]] = [None] * num_cu
        next_group = 0
        finished_groups = 0
        total_requests = 0
        group_times: List[float] = []
        finish = 0.0

        simulated_groups = min(num_groups, self.MAX_SIMULATED_GROUPS)
        dispatcher_free = 0.0   # the round-robin dispatcher is serial
        while finished_groups < simulated_groups:
            # Dispatch onto idle CUs, one work-group at a time.
            for cu in range(num_cu):
                if active[cu] is None and next_group < simulated_groups:
                    dispatch = overhead * jitter.factor(
                        f"disp{next_group}", 0.25)
                    start = max(cu_free[cu], dispatcher_free) + dispatch
                    dispatcher_free = start
                    requests = streams(next_group)
                    total_requests += len(requests)
                    initiations = math.ceil(
                        max(design.work_group_size - hw.n_pe_eff, 0)
                        / max(hw.n_pe_eff, 1))
                    active[cu] = _GroupExec(
                        cu, start, compute, requests, hw.n_pe_eff,
                        False, tail=hw.depth * 0.5,
                        issue_done=start + hw.ii * max(initiations, 1))
                    next_group += 1

            # Service the globally earliest pending request.
            best_cu, best_chain, best_t = None, None, math.inf
            for cu in range(num_cu):
                exec_ = active[cu]
                if exec_ is None:
                    continue
                chain = exec_.next_chain()
                if chain is not None \
                        and exec_.chain_clock[chain] < best_t:
                    best_cu, best_chain = cu, chain
                    best_t = exec_.chain_clock[chain]

            if best_cu is not None:
                exec_ = active[best_cu]
                pos = exec_.chain_pos[best_chain]
                req = exec_.chains[best_chain][pos]
                record = controller.access(
                    req, arrival=exec_.chain_clock[best_chain])
                exec_.chain_clock[best_chain] = record.finish_time
                exec_.chain_pos[best_chain] = pos + 1
                exec_.last_finish = max(exec_.last_finish,
                                        record.finish_time)

            # Retire groups whose requests (and compute) are done.
            for cu in range(num_cu):
                exec_ = active[cu]
                if exec_ is not None and exec_.requests_done:
                    end = exec_.end_time(compute)
                    if design.work_group_pipeline:
                        # Successive groups stream into the pipeline as
                        # soon as initiation capacity frees; only the
                        # memory drain still gates the CU.
                        cu_free[cu] = max(exec_.issue_done,
                                          exec_.last_finish)
                    else:
                        cu_free[cu] = end
                    finish = max(finish, end)
                    group_times.append(max(cu_free[cu], exec_.start)
                                       - exec_.start)
                    active[cu] = None
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
                          streams, controller: DRAMController,
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
                for req in streams(g):
                    total_requests += 1
                    record = controller.access(req, arrival=clock)
                    clock = record.finish_time
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
                       ) -> Callable[[int], List[CoalescedRequest]]:
        """group index -> coalesced request list, via the shared
        :class:`repro.analysis.GroupStreamExtrapolator` (the model
        prices the SAME streams; only timing differs)."""
        from repro.analysis.streams import GroupStreamExtrapolator
        extrapolator = GroupStreamExtrapolator(
            info.traces.global_traces,
            pipelined=design.work_item_pipeline)
        unit = self.device.mem_access_unit_bits

        def streams(group: int) -> List[CoalescedRequest]:
            return coalesce_stream(extrapolator.stream(group), unit)

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
