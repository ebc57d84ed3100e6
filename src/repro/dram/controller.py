"""DRAM timing controller.

Services bank-level accesses against the banked DRAM and reports when
each one's data is delivered.  Row-buffer hits issue a single column
command; misses issue precharge + activate + column (the "three DRAM
commands" of §3.4).  Kind transitions add the bus turnaround penalties
(write→read needs tWTR, read→write tRTW, write→precharge tWR).

This is the substrate both halves of the reproduction share *as a
specification*: the micro-benchmarks profile the average pattern
latencies FlexCL uses, and the cycle-level simulator embeds the same
controller with live bank state and bus contention.  A request that
covers several interleave blocks is one access per block
(:meth:`repro.dram.mapping.BankMapping.locate_blocks`).
"""

from __future__ import annotations

from repro.devices.device import DRAMTiming
from repro.dram.mapping import BankMapping


class DRAMController:
    """A banked DRAM with per-bank row-buffer state and a shared bus.

    Bank state is held in flat per-bank lists; kinds are 0 (read) and
    1 (write), and each bank keeps the FR-FCFS row window of the pattern
    classifier (two rows, least recently used first out), so the
    analytical side and the simulator agree on hit semantics."""

    def __init__(self, mapping: BankMapping, timing: DRAMTiming) -> None:
        self.mapping = mapping
        self.timing = timing
        self.reset()

    def reset(self) -> None:
        n = self.mapping.num_banks
        self._ready = [0.0] * n         # when the bank accepts a command
        self._recovery = [0.0] * n      # write recovery before precharge
        self._kind = [0] * n            # cold banks behave like idle-read
        self._row = [None] * n          # most recently used open row
        self._row_before = [None] * n   # the other open row
        self._bus_free_at = 0.0

    def pattern(self, kind: int, bank: int, row: int) -> int:
        """The Table 1 code an access would see now:
        ``miss * 4 + 2 * kind + previous kind``, indexing
        :data:`repro.dram.patterns.PATTERNS`."""
        hit = row == self._row[bank] or row == self._row_before[bank]
        return (not hit) * 4 + 2 * kind + self._kind[bank]

    def access(self, kind: int, bank: int, row: int,
               arrival: float) -> float:
        """Service one interleave-block access arriving at *arrival*;
        returns when its data is delivered.  (The simulator's innermost
        call: ``b if b > a else a`` is ``max(a, b)`` without the call.)"""
        t = self.timing
        ready = self._ready[bank]
        issue = ready if ready > arrival else arrival
        last = self._kind[bank]
        latency = float(t.t_overhead)
        occupancy = float(t.t_burst)    # command/bank occupancy
        if row != self._row[bank]:
            if row != self._row_before[bank]:   # a row-buffer miss
                recovery = self._recovery[bank]
                precharge_ready = recovery if recovery > issue else issue
                latency += (precharge_ready - issue)
                latency += t.t_rp + t.t_rcd
                occupancy += t.t_rp + t.t_rcd
            self._row_before[bank] = self._row[bank]
            self._row[bank] = row
        if kind == 0:
            latency += t.t_cl           # CAS is pipelined: latency only
            if last == 1:
                latency += t.t_wtr
                occupancy += t.t_wtr
        else:
            latency += t.t_cwl
            if last == 0:
                latency += t.t_rtw
                occupancy += t.t_rtw

        # The data burst occupies the shared bus.
        data_start = issue + latency
        bus_free = self._bus_free_at
        if bus_free > data_start:
            data_start = bus_free
        finish = data_start + t.t_burst
        self._bus_free_at = finish
        self._kind[bank] = kind
        # The bank accepts its next command once the current command
        # sequence retires, not when the data lands (CAS pipelining).
        self._ready[bank] = issue + occupancy
        if kind == 1:
            self._recovery[bank] = finish + t.t_wr
        return finish
