"""Automatic global-memory coalescing (paper §3.4).

"To fully utilize the global memory bandwidth, SDAccel will
automatically coalesce the global memory accesses which are consecutive
reads or writes.  In this manner, the number of memory accesses is
divided by a factor of coalescing degree
f = MemoryAccessUnitSize / DataTypeBitWidth."

The coalescer consumes the interleaved access stream the hardware sees
(work-items issue in pipeline order) and merges runs of same-kind,
address-contiguous accesses into requests of at most the AXI memory
access unit (512 bits on the paper's platform).  Streams arrive as
columns (:class:`~repro.analysis.packed.PackedStream`):
:func:`coalesce_packed_groups` batches a whole window of groups for the
memory model, and :func:`coalesce_stream` hands one group's requests to
the simulator's DRAM controller as :class:`CoalescedRequest` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.analysis.packed import PackedStream


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


def coalesce_stream(stream: "PackedStream",
                    unit_bits: int = 512) -> List[CoalescedRequest]:
    """Merge consecutive same-kind contiguous accesses into bursts.

    A run of contiguous accesses is split into access-unit-sized
    requests: 1024 consecutive 32-bit reads with a 512-bit unit become
    1024 / (512/32) = 64 requests, matching the paper's example.
    """
    kind, addr, nbytes = coalesce_packed(
        stream.kind, stream.addr, stream.nbytes, unit_bits)
    return [CoalescedRequest("read" if k == 0 else "write", a, n)
            for k, a, n in zip(kind.tolist(), addr.tolist(),
                               nbytes.tolist())]


def _breaks(kind: np.ndarray, addr: np.ndarray,
            nbytes: np.ndarray) -> np.ndarray:
    """Where a contiguous same-kind run starts (index 0 always does)."""
    brk = np.empty(kind.shape[0], bool)
    brk[0] = True
    brk[1:] = (kind[1:] != kind[:-1]) | (addr[1:] != (addr + nbytes)[:-1])
    return brk


def _uniform_requests(brk: np.ndarray, nbytes: np.ndarray,
                      unit_bytes: int
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(request starts, request bytes)`` when every access has one
    size, else None.  Within a contiguous run the greedy capacity check
    then breaks a new request every k = unit/nb accesses, so request
    starts fall out of run positions."""
    nb = int(nbytes[0])
    if int(nbytes.min()) != nb or int(nbytes.max()) != nb:
        return None
    k = max(unit_bytes // nb, 1)
    run_starts = np.flatnonzero(brk)
    run_len = np.diff(run_starts, append=brk.shape[0])
    per_run = (run_len + k - 1) // k
    if int(per_run.max()) == 1:
        return run_starts, run_len * nb
    # Split runs longer than one unit into k-access requests.
    run_ix = np.repeat(np.arange(run_starts.shape[0]), per_run)
    first_of = np.cumsum(per_run) - per_run
    req_starts = (run_starts[run_ix]
                  + k * (np.arange(run_ix.shape[0]) - first_of[run_ix]))
    return req_starts, np.diff(req_starts, append=brk.shape[0]) * nb


def coalesce_packed(kind: np.ndarray, addr: np.ndarray,
                    nbytes: np.ndarray, unit_bits: int = 512
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar coalescer: greedy left-to-right merging, returned as
    ``(kind, addr, nbytes)`` request arrays (kind 0 = read, 1 = write).

    A request grows while the next access has the same kind, starts
    where the request ends and still fits in one access unit."""
    unit_bytes = max(unit_bits // 8, 1)
    n = int(kind.shape[0])
    if n == 0:
        return (np.empty(0, np.uint8), np.empty(0, np.int64),
                np.empty(0, np.int64))
    brk = _breaks(kind, addr, nbytes)
    uniform = _uniform_requests(brk, nbytes, unit_bytes)
    if uniform is not None:
        req_starts, req_nbytes = uniform
        return (kind[req_starts].astype(np.uint8),
                addr[req_starts].astype(np.int64), req_nbytes)
    # Mixed sizes (rare): greedy scalar pass over the columns.
    kind_l = kind.tolist()
    addr_l = addr.tolist()
    nb_l = nbytes.tolist()
    brk_l = brk.tolist()
    out_k: List[int] = []
    out_a: List[int] = []
    out_n: List[int] = []
    cur_a = cur_b = 0
    for i in range(n):
        b = nb_l[i]
        if brk_l[i] or cur_b + b > unit_bytes:
            if cur_b:
                out_k.append(kind_l[i - 1])
                out_a.append(cur_a)
                out_n.append(cur_b)
            cur_a = addr_l[i]
            cur_b = 0
        cur_b += b
    if cur_b:
        out_k.append(kind_l[n - 1])
        out_a.append(cur_a)
        out_n.append(cur_b)
    return (np.array(out_k, np.uint8), np.array(out_a, np.int64),
            np.array(out_n, np.int64))


def coalesce_packed_groups(kind: np.ndarray, addr: np.ndarray,
                           nbytes: np.ndarray, group: np.ndarray,
                           unit_bits: int = 512
                           ) -> Tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
    """Batched coalescer over many independent streams at once.

    *group* labels each access with its stream; runs never merge across
    a group boundary.  Returns ``(kind, addr, nbytes, group)`` request
    arrays — exactly the concatenation of :func:`coalesce_packed` run
    per group, with each request labelled by its source group.
    """
    unit_bytes = max(unit_bits // 8, 1)
    n = int(kind.shape[0])
    if n == 0:
        return (np.empty(0, np.uint8), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty(0, np.int64))
    new_group = np.empty(n, bool)
    new_group[0] = True
    new_group[1:] = group[1:] != group[:-1]
    # Uniform access size across the whole batch is the common case:
    # every group replays the same sites, and a group change is one
    # more run break.
    uniform = _uniform_requests(_breaks(kind, addr, nbytes) | new_group,
                                nbytes, unit_bytes)
    if uniform is not None:
        req_starts, req_nbytes = uniform
        return (kind[req_starts].astype(np.uint8),
                addr[req_starts].astype(np.int64), req_nbytes,
                group[req_starts].astype(np.int64))
    # Mixed sizes (rare): delegate to the per-group scalar coalescer.
    bounds = np.append(np.flatnonzero(new_group), n)
    out = [[], [], [], []]
    for i in range(bounds.shape[0] - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        rk, ra, rn = coalesce_packed(kind[lo:hi], addr[lo:hi],
                                     nbytes[lo:hi], unit_bits)
        out[0].append(rk)
        out[1].append(ra)
        out[2].append(rn)
        out[3].append(np.full(rk.shape[0], group[lo], np.int64))
    return (np.concatenate(out[0]), np.concatenate(out[1]),
            np.concatenate(out[2]), np.concatenate(out[3]))
