"""The eight global-memory access patterns of Table 1.

Each DRAM request is classified by (a) its kind and the kind of the
previous request to the same bank — read-after-read, read-after-write,
write-after-read, write-after-write — and (b) whether it hits the
bank's open row buffer.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.coalesce import CoalescedRequest
from repro.dram.mapping import BankMapping, _swizzle


class AccessPattern(enum.Enum):
    """Table 1's eight patterns."""

    RAR_HIT = "read(hit) after read"
    RAW_HIT = "read(hit) after write"
    WAR_HIT = "write(hit) after read"
    WAW_HIT = "write(hit) after write"
    RAR_MISS = "read(miss) after read"
    RAW_MISS = "read(miss) after write"
    WAR_MISS = "write(miss) after read"
    WAW_MISS = "write(miss) after write"

    @property
    def is_hit(self) -> bool:
        return self.name.endswith("HIT")

    @property
    def kind(self) -> str:
        return "read" if self.name.startswith("R") else "write"

    @property
    def previous_kind(self) -> str:
        return "read" if self.name.split("_")[0].endswith("AR") else "write"


PATTERNS: Tuple[AccessPattern, ...] = tuple(AccessPattern)


def pattern_for(kind: str, previous_kind: str, hit: bool) -> AccessPattern:
    """Look up the pattern for one request."""
    first = "R" if kind == "read" else "W"
    second = "R" if previous_kind == "read" else "W"
    suffix = "HIT" if hit else "MISS"
    return AccessPattern[f"{first}A{second}_{suffix}"]


@dataclass
class PatternCounts:
    """N_pattern of Table 1: how many requests fell into each pattern."""

    counts: Dict[AccessPattern, int] = field(
        default_factory=lambda: {p: 0 for p in PATTERNS})

    def add(self, pattern: AccessPattern, n: int = 1) -> None:
        self.counts[pattern] += n

    def total(self) -> int:
        return sum(self.counts.values())

    def hits(self) -> int:
        return sum(n for p, n in self.counts.items() if p.is_hit)

    def scaled(self, factor: float) -> "PatternCounts":
        out = PatternCounts()
        for p, n in self.counts.items():
            out.counts[p] = n * factor  # type: ignore[assignment]
        return out

    def __getitem__(self, pattern: AccessPattern) -> int:
        return self.counts[pattern]


#: rows a bank's controller keeps "warm" — models FR-FCFS row-locality
#: extraction (the scheduler steers requests to recently-open rows),
#: which is what keeps two interleaved array streams from ping-ponging
#: a bank between their rows on every access.
ROW_WINDOW = 2


class _BankState:
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
    bank keeps its open row and last access kind.  A request spanning
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


def classify_packed(kind: np.ndarray, addr: np.ndarray,
                    nbytes: np.ndarray,
                    mapping: BankMapping,
                    group: Optional[np.ndarray] = None,
                    weight: Optional[np.ndarray] = None) -> PatternCounts:
    """Columnar Table 1 classification: identical counts to
    :func:`classify_bank_stream` fed the same request sequence.

    The replicated bank state is the LRU-2 open-row window with
    touch-to-front (:class:`_BankState` with ``ROW_WINDOW == 2``): at
    any point a bank's two open rows are the value of the current
    equal-row run and the value of the run before it, which turns the
    per-request hit test into pure run bookkeeping on the sorted-by-bank
    block sequence.

    With *group* (one non-decreasing label per request, so each
    stream's requests are contiguous) many independent streams are
    classified in one batch: bank state is per (group, bank), so the
    result equals summing per-group classifications — each group sees
    cold banks, exactly as if classified alone.  *weight* (indexed by
    group label) multiplies each group's counts, so a stream that
    several work-groups replay is classified once."""
    assert ROW_WINDOW == 2, "packed classifier models the LRU-2 window"
    counts = PatternCounts()
    n_req = int(kind.shape[0])
    if n_req == 0:
        return counts
    ib = mapping.interleave_bytes
    start_blk = _floordiv(addr, ib)
    # A request reaches past its first block when its offset in that
    # block plus its size exceeds the block (a zero-byte request covers
    # its first block only, like a one-byte one).
    reach = addr & (ib - 1) if ib & (ib - 1) == 0 else addr % ib
    reach += nbytes
    if int(reach.max()) <= ib:
        # Every request fits in one interleave block (the common case):
        # the block sequence is the request sequence.
        blocks, kinds, lead = start_blk, kind, None
    else:
        per_req = _floordiv(addr + np.maximum(nbytes, 1) + ib - 1,
                            ib) - start_blk
        first_of = np.cumsum(per_req) - per_req
        offs = np.arange(int(per_req.sum())) \
            - np.repeat(first_of, per_req)
        blocks = np.repeat(start_blk, per_req) + offs
        lead = offs == 0
        kinds = np.repeat(kind, per_req)
        if group is not None:
            group = np.repeat(group, per_req)
    total = int(blocks.shape[0])

    nb = mapping.num_banks
    if nb & (nb - 1) == 0:
        # The low log2(nb) bits of the swizzle read the low
        # log2(nb) + 6 block bits: look the bank up.
        bank = _bank_table(nb)[blocks & (64 * nb - 1)]
    else:
        bank = (_swizzle(blocks) % nb).astype(np.min_scalar_type(nb - 1))

    # Bank state is per (group, bank).  Requests arrive group-major, so
    # a stable sort on the bank alone (a one-byte radix sort) orders
    # them by (bank, group, position), and each bank segment keeps its
    # requests in stream order, which the bank state machine consumes.
    order = np.argsort(bank, kind="stable")
    b_s = bank[order]
    seg_new = np.empty(total, bool)
    seg_new[0] = True
    np.not_equal(b_s[1:], b_s[:-1], out=seg_new[1:])
    if group is not None:
        g_s = group[order]
        seg_new[1:] |= g_s[1:] != g_s[:-1]
    r_s = blocks[order]
    r_s = _floordiv(r_s, nb * (mapping.row_bytes // ib), out=r_s)
    k_s = kinds[order].astype(np.uint8, copy=False)
    # previous request kind seen by this bank (cold banks read)
    prev_k = np.empty(total, np.uint8)
    prev_k[0] = 0
    prev_k[1:] = k_s[:-1]
    prev_k[seg_new] = 0
    # equal-row runs within each bank segment: a block continuing its
    # bank's run hits the open row
    run_new = np.empty(total, bool)
    run_new[0] = True
    np.not_equal(r_s[1:], r_s[:-1], out=run_new[1:])
    run_new |= seg_new
    # a block opening a new run hits only the second open row: the row
    # of the run before the previous one, in the same bank segment
    run_row = r_s[run_new]
    run_seg = seg_new[run_new]
    hit = ~run_new
    hit[run_new] = np.concatenate((
        np.zeros(min(run_row.shape[0], 2), bool),
        ~run_seg[2:] & ~run_seg[1:-1] & (run_row[2:] == run_row[:-2])))

    # pattern code: miss * 4 + 2 * kind + previous kind
    codes = k_s * 2
    codes += prev_k
    codes += (~hit).view(np.uint8) * 4
    if lead is not None:
        keep = lead[order]
        codes = codes[keep]
        if weight is not None:
            g_s = g_s[keep]
    if weight is None:
        binc = np.bincount(codes, minlength=8)
    else:
        # per-group counts, then their weighted sum (exact integers)
        key = g_s.astype(np.intp)
        key <<= 3
        key += codes
        binc = weight @ np.bincount(
            key, minlength=8 * weight.shape[0]).reshape(-1, 8)
    for j, p in enumerate(PATTERNS):
        counts.counts[p] = int(binc[j])
    return counts


@functools.lru_cache(maxsize=None)
def _bank_table(num_banks: int) -> np.ndarray:
    """Bank of every ``log2(num_banks) + 6``-bit block index under the
    XOR swizzle of :meth:`BankMapping.bank_of` (*num_banks* a power of
    two)."""
    swiz = _swizzle(np.arange(64 * num_banks))
    return (swiz & (num_banks - 1)).astype(
        np.min_scalar_type(num_banks - 1))


def _floordiv(x: np.ndarray, d: int,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x // d``; a shift when *d* is a power of two (exact for every
    integer, negative ones included)."""
    if d & (d - 1) == 0:
        return np.right_shift(x, d.bit_length() - 1, out=out)
    return np.floor_divide(x, d, out=out)


def _covered_blocks(req: CoalescedRequest,
                    mapping: BankMapping) -> Iterable[int]:
    """First byte address of each interleave block the request covers."""
    start = (req.addr // mapping.interleave_bytes) * mapping.interleave_bytes
    end = req.addr + max(req.nbytes, 1)
    addr = start
    while addr < end:
        yield addr
        addr += mapping.interleave_bytes
