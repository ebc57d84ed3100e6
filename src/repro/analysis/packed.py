"""Columnar (structure-of-arrays) memory traces: the one trace format
every stage after profiling consumes.

The scalar interpreter records one ``List[MemAccess]`` per work-item —
the semantics reference, but far too slow to analyse, extrapolate and
pickle: a heavy kernel records hundreds of thousands of accesses.

:class:`PackedGroup` stores one work-group's trace as seven flat numpy
columns in **lane-major canonical order**: rows sorted by lane, each
lane's rows in its program order.  The trace synthesizer and the
vectorized interpreter build it directly; :func:`pack_traces`, called
once in :mod:`repro.analysis.kernel_info`, converts scalar interpreter
traces.  Site statistics, stream extrapolation, coalescing, bank
classification and cache serialisation all read the columns.

:class:`PackedTraces` also reads as a ``Sequence`` of per-item
``List[MemAccess]`` (lazy materialisation) so engine traces can be
compared access by access against the interpreter's.
:class:`PackedStream` is one group's interleaved stream, columns only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.interp.executor import MemAccess

KIND_READ, KIND_WRITE = 0, 1
SPACE_GLOBAL, SPACE_LOCAL = 0, 1

KIND_NAMES = ("read", "write")
SPACE_NAMES = ("global", "local")


class PackedGroup:
    """One work-group's trace as flat columns in canonical order.

    Canonical order: rows sorted by ``lane`` (stable), each lane's rows
    in that lane's execution order.  All columns share the row axis:

    - ``site``  int32 — static instruction site id
    - ``kind``  uint8 — 0 read, 1 write
    - ``nbytes`` int32
    - ``space`` uint8 — 0 global, 1 local
    - ``buf``   int16 — index into ``names`` ("__local" for local rows)
    - ``lane``  int32 — work-item index within the group
    - ``addr``  int64 — byte address
    """

    __slots__ = ("site", "kind", "nbytes", "space", "buf", "lane",
                 "addr", "names", "wg_size", "_lane_starts", "_occ")

    def __init__(self, site, kind, nbytes, space, buf, lane, addr,
                 names: Tuple[str, ...], wg_size: int) -> None:
        self.site = site
        self.kind = kind
        self.nbytes = nbytes
        self.space = space
        self.buf = buf
        self.lane = lane
        self.addr = addr
        self.names = names
        self.wg_size = int(wg_size)
        self._lane_starts: Optional[np.ndarray] = None
        self._occ: Optional[np.ndarray] = None

    # -- derived ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self.site.shape[0])

    @property
    def lane_starts(self) -> np.ndarray:
        """``lane_starts[l]:lane_starts[l+1]`` slices lane *l*'s rows."""
        if self._lane_starts is None:
            self._lane_starts = np.searchsorted(
                self.lane, np.arange(self.wg_size + 1))
        return self._lane_starts

    @property
    def occ(self) -> np.ndarray:
        """Occurrence index: position of each row within its lane."""
        if self._occ is None:
            starts = self.lane_starts
            n = len(self)
            self._occ = np.arange(n, dtype=np.int64) \
                - starts[self.lane.astype(np.int64)]
        return self._occ

    # -- materialisation -------------------------------------------------

    def lane_trace(self, lane: int) -> List[MemAccess]:
        starts = self.lane_starts
        lo, hi = int(starts[lane]), int(starts[lane + 1])
        names = self.names
        return [
            MemAccess(KIND_NAMES[k], a, nb, names[b],
                      space=SPACE_NAMES[sp], site=s)
            for s, k, nb, sp, b, a in zip(
                self.site[lo:hi].tolist(), self.kind[lo:hi].tolist(),
                self.nbytes[lo:hi].tolist(), self.space[lo:hi].tolist(),
                self.buf[lo:hi].tolist(), self.addr[lo:hi].tolist())
        ]

    def global_only(self) -> "PackedGroup":
        """This group with local-space rows dropped (order preserved)."""
        if not len(self) or bool((self.space == SPACE_GLOBAL).all()):
            return self
        m = self.space == SPACE_GLOBAL
        return PackedGroup(self.site[m], self.kind[m], self.nbytes[m],
                           self.space[m], self.buf[m], self.lane[m],
                           self.addr[m], self.names, self.wg_size)

    # -- pickling (drop lazily derived caches) ---------------------------

    def __getstate__(self):
        return (self.site, self.kind, self.nbytes, self.space, self.buf,
                self.lane, self.addr, self.names, self.wg_size)

    def __setstate__(self, state) -> None:
        (self.site, self.kind, self.nbytes, self.space, self.buf,
         self.lane, self.addr, self.names, self.wg_size) = state
        self._lane_starts = None
        self._occ = None

    def __repr__(self) -> str:
        return (f"<PackedGroup {len(self)} rows, "
                f"{self.wg_size} lanes>")


class PackedTraces(Sequence):
    """Packed groups, readable as a ``Sequence[List[MemAccess]]``.

    Index *i* materialises work-item *i*'s trace (group ``i // wg``,
    lane ``i % wg``) and slices materialise lists, for access-by-access
    comparison against the interpreter; the pipeline uses ``.groups``.
    """

    __slots__ = ("groups", "wg_size")

    def __init__(self, groups: List[PackedGroup], wg_size: int) -> None:
        self.groups = groups
        self.wg_size = int(wg_size)

    def __len__(self) -> int:
        return len(self.groups) * self.wg_size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self.groups[index // self.wg_size].lane_trace(
            index % self.wg_size)

    def global_view(self) -> "PackedTraces":
        return PackedTraces([g.global_only() for g in self.groups],
                            self.wg_size)

    @property
    def n_rows(self) -> int:
        return sum(len(g) for g in self.groups)

    def __repr__(self) -> str:
        return (f"<PackedTraces {len(self.groups)} groups x "
                f"{self.wg_size} items, {self.n_rows} rows>")


class PackedStream:
    """One work-group's interleaved access stream as flat columns — the
    three the coalescer and the DRAM pattern classifier read."""

    __slots__ = ("kind", "addr", "nbytes")

    def __init__(self, kind, addr, nbytes) -> None:
        self.kind = kind
        self.addr = addr
        self.nbytes = nbytes

    @classmethod
    def from_group(cls, group: PackedGroup, order=None) -> "PackedStream":
        if order is None:
            return cls(group.kind, group.addr, group.nbytes)
        return cls(group.kind[order], group.addr[order],
                   group.nbytes[order])

    @classmethod
    def empty(cls) -> "PackedStream":
        return cls(np.empty(0, np.uint8), np.empty(0, np.int64),
                   np.empty(0, np.int32))

    def with_addr(self, addr) -> "PackedStream":
        return PackedStream(self.kind, addr, self.nbytes)

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def __repr__(self) -> str:
        return f"<PackedStream {len(self)} accesses>"


def pack_group(traces: Sequence[List[MemAccess]],
               names: Optional[Tuple[str, ...]] = None) -> PackedGroup:
    """Pack one work-group's per-lane object traces (lane order given
    by the sequence order) into canonical columns."""
    wg = len(traces)
    total = sum(len(t) for t in traces)
    site = np.empty(total, np.int32)
    kind = np.empty(total, np.uint8)
    nbytes = np.empty(total, np.int32)
    space = np.empty(total, np.uint8)
    buf = np.empty(total, np.int16)
    lane = np.empty(total, np.int32)
    addr = np.empty(total, np.int64)
    name_ix = {n: i for i, n in enumerate(names or ())}
    pos = 0
    for l, trace in enumerate(traces):
        for acc in trace:
            b = name_ix.get(acc.buffer)
            if b is None:
                b = len(name_ix)
                name_ix[acc.buffer] = b
            site[pos] = acc.site
            kind[pos] = KIND_READ if acc.kind == "read" else KIND_WRITE
            nbytes[pos] = acc.nbytes
            space[pos] = SPACE_GLOBAL if acc.space == "global" \
                else SPACE_LOCAL
            buf[pos] = b
            lane[pos] = l
            addr[pos] = acc.addr
            pos += 1
    ordered = tuple(sorted(name_ix, key=name_ix.get))
    return PackedGroup(site, kind, nbytes, space, buf, lane, addr,
                       ordered, wg)


def pack_traces(traces: Sequence[List[MemAccess]],
                wg_size: Optional[int] = None) -> PackedTraces:
    """Pack per-work-item object traces into :class:`PackedTraces`.

    *wg_size* gives the work-group-linear grouping; when omitted (or
    when it does not divide the item count) the whole sequence is
    treated as a single group, which preserves all per-item semantics.
    """
    if isinstance(traces, PackedTraces):
        return traces
    n = len(traces)
    if not wg_size or wg_size <= 0 or (n and n % wg_size != 0):
        wg_size = max(n, 1)
    groups: List[PackedGroup] = []
    names: Tuple[str, ...] = ()
    for g in range(n // wg_size):
        grp = pack_group(traces[g * wg_size:(g + 1) * wg_size], names)
        names = grp.names
        groups.append(grp)
    return PackedTraces(groups, wg_size)
