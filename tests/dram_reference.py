"""Request-object reference forms of the DRAM coalescer and the Table 1
classifier.

The package works on request columns (:func:`repro.dram.coalesce_packed`,
:func:`repro.dram.classify_packed`).  The forms here handle one
:class:`CoalescedRequest` and one bank at a time in plain Python, so the
tests and ``tests/data/make_packed_reference.py`` hold the columnar
results to an independent computation rather than to themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.dram.coalesce import coalesce_packed
from repro.dram.mapping import BankMapping
from repro.dram.patterns import ROW_WINDOW, AccessPattern, PatternCounts


@dataclass(frozen=True)
class CoalescedRequest:
    """One post-coalescing DRAM request."""

    kind: str      # 'read' | 'write'
    addr: int      # first byte address
    nbytes: int    # total bytes covered (<= access unit)


def coalescing_factor(unit_bits: int, data_bits: int) -> int:
    """f = MemoryAccessUnitSize / DataTypeBitWidth (at least 1)."""
    if data_bits <= 0:
        return 1
    return max(unit_bits // data_bits, 1)


def coalesce_stream(stream, unit_bits: int = 512) -> List[CoalescedRequest]:
    """Merge consecutive same-kind contiguous accesses of a
    :class:`~repro.analysis.packed.PackedStream` into bursts.

    A run of contiguous accesses is split into access-unit-sized
    requests: 1024 consecutive 32-bit reads with a 512-bit unit become
    1024 / (512/32) = 64 requests, matching the paper's example.
    """
    kind, addr, nbytes = coalesce_packed(
        stream.kind, stream.addr, stream.nbytes, unit_bits)
    return [CoalescedRequest("read" if k == 0 else "write", a, n)
            for k, a, n in zip(kind.tolist(), addr.tolist(),
                               nbytes.tolist())]


def pattern_for(kind: str, previous_kind: str, hit: bool) -> AccessPattern:
    """Look up the pattern for one request."""
    first = "R" if kind == "read" else "W"
    second = "R" if previous_kind == "read" else "W"
    suffix = "HIT" if hit else "MISS"
    return AccessPattern[f"{first}A{second}_{suffix}"]


class _BankState:
    """One bank's open-row window (the last ``ROW_WINDOW`` rows touched,
    most recent last) and the kind of its last access."""

    __slots__ = ("open_rows", "last_kind")

    def __init__(self) -> None:
        self.open_rows: List[int] = []
        self.last_kind: str = "read"       # cold banks behave like idle-read

    def is_hit(self, row: int) -> bool:
        return row in self.open_rows

    def touch(self, row: int) -> None:
        if row in self.open_rows:
            self.open_rows.remove(row)
        self.open_rows.append(row)
        if len(self.open_rows) > ROW_WINDOW:
            self.open_rows.pop(0)


def classify_bank_stream(requests: Sequence[CoalescedRequest],
                         mapping: BankMapping) -> PatternCounts:
    """Classify a coalesced request stream into Table 1 patterns.

    Requests are routed to banks by the byte-interleaved mapping; each
    bank keeps its open rows and last access kind.  A request spanning
    several interleave blocks touches each covered bank once.
    """
    counts = PatternCounts()
    banks: Dict[int, _BankState] = {}
    for req in requests:
        for i, addr in enumerate(_covered_blocks(req, mapping)):
            bank_id, row = mapping.locate(addr)
            state = banks.setdefault(bank_id, _BankState())
            hit = state.is_hit(row)
            if i == 0:
                # Table 1's N counts accesses *after coalescing*: one
                # per request.  Sub-accesses of a boundary-crossing
                # burst proceed on their banks in parallel, so only the
                # leading one prices the request...
                counts.add(pattern_for(req.kind, state.last_kind, hit))
            # ...but every touched bank's row state still evolves.
            state.touch(row)
            state.last_kind = req.kind
    return counts


def _covered_blocks(req: CoalescedRequest,
                    mapping: BankMapping) -> Iterable[int]:
    """First byte address of each interleave block the request covers."""
    start = (req.addr // mapping.interleave_bytes) * mapping.interleave_bytes
    end = req.addr + max(req.nbytes, 1)
    addr = start
    while addr < end:
        yield addr
        addr += mapping.interleave_bytes
