"""Pattern-latency micro-benchmarks (Table 1's ΔT column).

"The access latency of each global memory access pattern is profiled
using micro-benchmarks" (§3.4).  Each micro-benchmark crafts a request
sequence that repeatedly provokes one pattern on one bank, runs it
through the DRAM controller, and averages the observed latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dram.controller import DRAMController
from repro.dram.mapping import BankMapping
from repro.dram.patterns import PATTERNS, AccessPattern, PatternCounts


@dataclass
class PatternLatencyTable:
    """ΔT for each of the eight patterns, in cycles."""

    latencies: Dict[AccessPattern, float] = field(default_factory=dict)

    def of(self, pattern: AccessPattern) -> float:
        return self.latencies[pattern]

    def weighted_latency(self, counts: PatternCounts) -> float:
        """Σ ΔT_p · N_p — the inner sum of Eq. 9."""
        return sum(self.latencies[p] * n
                   for p, n in counts.counts.items())

    def __str__(self) -> str:
        lines = ["pattern                     ΔT (cycles)"]
        for p in PATTERNS:
            lines.append(f"{p.value:<28}{self.latencies[p]:8.1f}")
        return "\n".join(lines)


def _same_bank_rows(mapping: BankMapping, bank: int,
                    count: int) -> List[int]:
    """Addresses on *bank* with pairwise-distinct rows (the swizzled
    mapping means same-bank rows are found by search, exactly as a real
    micro-benchmark calibrates its address strides)."""
    addrs: List[int] = []
    rows = set()
    addr = 0
    while len(addrs) < count:
        if mapping.bank_of(addr) == bank:
            row = mapping.row_of(addr)
            if row not in rows:
                rows.add(row)
                addrs.append(addr)
        addr += mapping.interleave_bytes
        if addr > 1 << 30:
            raise RuntimeError("could not find same-bank rows")
    return addrs


def _sequence_for(pattern: AccessPattern, mapping: BankMapping,
                  repeats: int) -> List[Tuple[int, int, int]]:
    """A ``(kind, bank, row)`` access sequence whose steady state
    exercises *pattern* on one bank (kind 0 = read, 1 = write).

    Hit benchmarks re-touch an open row; miss benchmarks walk enough
    distinct same-bank rows to defeat the controller's FR-FCFS row
    window.  The *previous kind* is controlled by a priming access of
    the required kind immediately before each measured access.
    """
    measured_kind = int(pattern.kind == "write")
    prev_kind = int(pattern.previous_kind == "write")
    if pattern.is_hit:
        rows = _same_bank_rows(mapping, 0, 1)
    else:
        # Misses: rotate through more rows than the row window can
        # hold, so every access opens a closed row.
        rows = _same_bank_rows(mapping, 0, 6)
    return [(measured_kind if i % 2 else prev_kind,)
            + mapping.locate(rows[i % len(rows)])
            for i in range(2 * repeats)]


def profile_pattern_latencies(device, repeats: int = 64
                              ) -> PatternLatencyTable:
    """Run the eight micro-benchmarks against *device*'s DRAM and return
    the averaged ΔT table."""
    mapping = BankMapping.for_device(device)
    table = PatternLatencyTable()
    for code, pattern in enumerate(PATTERNS):
        controller = DRAMController(mapping, device.dram)
        # Closed loop: each access arrives when the previous one
        # finishes (unloaded latency), priced by the pattern it sees.
        records = []
        clock = 0.0
        for kind, bank, row in _sequence_for(pattern, mapping, repeats):
            seen = controller.pattern(kind, bank, row)
            finish = controller.access(kind, bank, row, clock)
            records.append((seen, finish - clock))
            clock = finish
        # Measure only the even-positioned (second-of-pair) accesses and
        # skip the cold-start pair.
        measured = [latency for i, (seen, latency) in enumerate(records)
                    if i % 2 == 1 and i > 1 and seen == code]
        if not measured:
            # Fall back to every matching record (cold-start only hits
            # patterns that are unreachable in steady state otherwise).
            measured = [latency for seen, latency in records
                        if seen == code]
        table.latencies[pattern] = (
            sum(measured) / max(len(measured), 1))
    return table
