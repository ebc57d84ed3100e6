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
:func:`request_starts` finds where each request begins, which the
memory model reuses for shifted copies of a stream, and
:func:`coalesce_packed` returns one group's requests as the columns the
simulator's DRAM controller services.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


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
    run_len = _lengths(run_starts, brk.shape[0])
    if int(run_len.max()) <= k:
        return run_starts, run_len * nb
    # Split runs longer than one unit into k-access requests: request j
    # of the stream, the i-th of run r, starts at run_starts[r] + k * i,
    # which is (run_starts[r] - k * first_of[r]) + k * j.
    per_run = (run_len + k - 1) // k
    first_of = np.cumsum(per_run) - per_run
    req_starts = np.repeat(run_starts - k * first_of, per_run) \
        + k * np.arange(int(per_run.sum()))
    return req_starts, _lengths(req_starts, brk.shape[0]) * nb


def _lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Length of each of the consecutive slices *starts* begins, the
    last ending at *n*."""
    out = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=out[:-1])
    out[-1] = n - starts[-1]
    return out


def request_starts(kind: np.ndarray, addr: np.ndarray,
                   nbytes: np.ndarray, unit_bits: int = 512
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy left-to-right merging as ``(starts, sizes)``: the index of
    each request's first access and the bytes it covers.

    A request grows while the next access has the same kind, starts
    where the request ends and still fits in one access unit.  Where
    requests start depends only on where contiguous same-kind runs break
    and on the access sizes, never on the addresses themselves, so a
    shifted copy of a stream that breaks its runs at the same places has
    the same request starts."""
    unit_bytes = max(unit_bits // 8, 1)
    n = int(kind.shape[0])
    if n == 0:
        return np.empty(0, np.intp), np.empty(0, np.int64)
    brk = _breaks(kind, addr, nbytes)
    uniform = _uniform_requests(brk, nbytes, unit_bytes)
    if uniform is not None:
        return uniform
    # Mixed sizes (rare): greedy scalar pass over the columns.
    nb_l = nbytes.tolist()
    brk_l = brk.tolist()
    starts: List[int] = []
    sizes: List[int] = []
    cur_s = cur_b = 0
    for i in range(n):
        b = nb_l[i]
        if brk_l[i] or cur_b + b > unit_bytes:
            if cur_b:
                starts.append(cur_s)
                sizes.append(cur_b)
            cur_s = i
            cur_b = 0
        cur_b += b
    if cur_b:
        starts.append(cur_s)
        sizes.append(cur_b)
    return np.array(starts, np.intp), np.array(sizes, np.int64)


def coalesce_packed(kind: np.ndarray, addr: np.ndarray,
                    nbytes: np.ndarray, unit_bits: int = 512
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar coalescer (:func:`request_starts`), returned as
    ``(kind, addr, nbytes)`` request arrays (kind 0 = read, 1 = write)."""
    starts, sizes = request_starts(kind, addr, nbytes, unit_bits)
    return (kind[starts].astype(np.uint8, copy=False),
            addr[starts].astype(np.int64, copy=False), sizes)
