"""Memory-trace analysis.

Post-processes the profiled per-work-item traces, packed into columns
(:class:`~repro.analysis.packed.PackedTraces`), into what the
performance models consume:

- per-site statistics (stride across work-items, coalescibility, counts);
- inter-work-item recurrences: a load whose address was written by an
  earlier work-item (paper §3.3.1, the RecMII source — Figure 3's example
  is exactly such a dependence with distance 1);
- aggregate per-work-item access counts for local and global memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.packed import KIND_NAMES, SPACE_NAMES, PackedTraces

#: maximum inter-work-item dependence distance we search for
MAX_RECURRENCE_DISTANCE = 8

_EMPTY_SET: frozenset = frozenset()


@dataclass
class AccessSiteStats:
    """Aggregate behaviour of one static load/store site."""

    site: int
    kind: str                     # 'read' | 'write'
    space: str                    # 'global' | 'local'
    buffer: str
    nbytes: int
    #: average dynamic executions of this site per work-item
    per_wi_count: float = 0.0
    #: byte stride between consecutive work-items (None = irregular)
    wi_stride: Optional[int] = None
    #: stride between consecutive dynamic accesses within one work-item
    inner_stride: Optional[int] = None

    @property
    def coalescible(self) -> bool:
        """Unit-stride across work-items (or within the work-item):
        SDAccel merges such consecutive accesses into wide bursts."""
        return (self.wi_stride == self.nbytes
                or self.inner_stride == self.nbytes)


@dataclass
class Recurrence:
    """An inter-work-item dependence through memory."""

    load_site: int
    store_site: int
    space: str
    buffer: str
    distance: int      # in work-items


@dataclass
class TraceAnalysis:
    """Everything derived from the profiled traces."""

    sites: Dict[int, AccessSiteStats] = field(default_factory=dict)
    recurrences: List[Recurrence] = field(default_factory=list)
    global_reads_per_wi: float = 0.0
    global_writes_per_wi: float = 0.0
    local_reads_per_wi: float = 0.0
    local_writes_per_wi: float = 0.0
    #: per-work-item global traces (kept for the DRAM pattern model)
    global_traces: PackedTraces = field(
        default_factory=lambda: PackedTraces([], 1))

    def site_stats(self, site: int) -> Optional[AccessSiteStats]:
        return self.sites.get(site)


def analyze_traces(packed: PackedTraces) -> TraceAnalysis:
    """Analyse packed per-work-item traces (work-items in
    work-group-linear order), column-wise on the flat arrays."""
    result = TraceAnalysis(global_traces=packed.global_view())
    n_wi = len(packed)
    if n_wi == 0:
        return result
    wg = packed.wg_size

    # ---- concatenate groups (remapping per-group buffer indices onto a
    # shared name table) into global row order: work-item-major, each
    # work-item's rows in program order.
    names: List[str] = []
    name_ix: Dict[str, int] = {}
    sites, kinds, spaces, bufs, nbytes_c, addrs, wis = \
        [], [], [], [], [], [], []
    for g, grp in enumerate(packed.groups):
        remap = np.empty(max(len(grp.names), 1), np.int16)
        for i, nm in enumerate(grp.names):
            j = name_ix.get(nm)
            if j is None:
                j = name_ix[nm] = len(names)
                names.append(nm)
            remap[i] = j
        sites.append(grp.site)
        kinds.append(grp.kind)
        spaces.append(grp.space)
        bufs.append(remap[grp.buf] if len(grp) else grp.buf)
        nbytes_c.append(grp.nbytes)
        addrs.append(grp.addr)
        wis.append(grp.lane.astype(np.int64) + g * wg)
    site = np.concatenate(sites)
    kind = np.concatenate(kinds)
    space = np.concatenate(spaces)
    buf = np.concatenate(bufs)
    nbytes = np.concatenate(nbytes_c)
    addr = np.concatenate(addrs)
    wi = np.concatenate(wis)
    n_rows = site.shape[0]

    # ---- aggregate counts ----------------------------------------------
    code = space.astype(np.intp) * 2 + kind
    totals = np.bincount(code, minlength=4)
    result.global_reads_per_wi = int(totals[0]) / n_wi
    result.global_writes_per_wi = int(totals[1]) / n_wi
    result.local_reads_per_wi = int(totals[2]) / n_wi
    result.local_writes_per_wi = int(totals[3]) / n_wi
    if n_rows == 0:
        return result

    # ---- per-site row segments (site order = first appearance) ---------
    usites, first = np.unique(site, return_index=True)
    ordered = usites[np.argsort(first, kind="stable")]
    order = np.argsort(site, kind="stable")
    s_sorted = site[order]
    wi_s = wi[order]
    addr_s = addr[order]
    lo_of = {int(s): int(np.searchsorted(s_sorted, s, "left"))
             for s in usites}
    hi_of = {int(s): int(np.searchsorted(s_sorted, s, "right"))
             for s in usites}

    site_runs: Dict[int, tuple] = {}
    for s in ordered.tolist():
        lo, hi = lo_of[s], hi_of[s]
        seg_wi = wi_s[lo:hi]
        seg_addr = addr_s[lo:hi]
        m = hi - lo
        # Rows are already work-item-major within the segment (the
        # stable sort preserves the global row order), so every
        # work-item's accesses form one contiguous run.
        run_starts = np.flatnonzero(
            np.concatenate(([True], seg_wi[1:] != seg_wi[:-1])))
        run_ends = np.concatenate((run_starts[1:], [m]))
        run_len = run_ends - run_starts
        occ = np.arange(m) - np.repeat(run_starts, run_len)
        # Dense (present-work-item x occurrence) matrices: rows are the
        # distinct work-items in ascending order, so numerically
        # adjacent work-items sit in adjacent rows exactly when their
        # ids differ by one.
        uw = seg_wi[run_starts]
        nr = run_starts.shape[0]
        max_occ = int(run_len.max())
        rix = np.repeat(np.arange(nr), run_len)
        M = np.zeros((nr, max_occ), np.int64)
        V = np.zeros((nr, max_occ), bool)
        M[rix, occ] = seg_addr
        V[rix, occ] = True

        both = V[1:] & V[:-1] & ((uw[1:] - uw[:-1]) == 1)[:, None]
        d = (M[1:] - M[:-1])[both]
        wi_stride = int(d[0]) if d.size and (d == d[0]).all() else None
        inner = V[:, 1:] & V[:, :-1]
        d = (M[:, 1:] - M[:, :-1])[inner]
        inner_stride = int(d[0]) if d.size and (d == d[0]).all() \
            else None

        # Prototype row = the site's first appearance in global row
        # order (the stable sort keeps it first in the segment).
        i0 = int(order[lo])
        result.sites[s] = AccessSiteStats(
            site=s,
            kind=KIND_NAMES[int(kind[i0])],
            space=SPACE_NAMES[int(space[i0])],
            buffer=names[int(buf[i0])],
            nbytes=int(nbytes[i0]),
            per_wi_count=m / n_wi,
            wi_stride=wi_stride,
            inner_stride=inner_stride,
        )
        site_runs[s] = (seg_wi, seg_addr, run_starts, run_ends)

    # ---- recurrences ----------------------------------------------------
    # Per-work-item address sets are only needed for (load, store) pairs
    # on the same buffer+space; build them lazily so kernels without
    # such pairs skip the frozenset construction entirely.
    stats = result.sites
    site_sets: Dict[int, List[frozenset]] = {}

    def sets_of(s: int) -> List[frozenset]:
        sets = site_sets.get(s)
        if sets is None:
            seg_wi, seg_addr, run_starts, run_ends = site_runs[s]
            sets = [_EMPTY_SET] * n_wi
            for a, b in zip(run_starts.tolist(), run_ends.tolist()):
                sets[int(seg_wi[a])] = frozenset(seg_addr[a:b].tolist())
            site_sets[s] = sets
        return sets

    loads = [s for s in ordered.tolist() if stats[s].kind == "read"]
    stores = [s for s in ordered.tolist() if stats[s].kind == "write"]
    for ls in loads:
        lp = stats[ls]
        for ss in stores:
            sp = stats[ss]
            if sp.buffer != lp.buffer or sp.space != lp.space:
                continue
            dist = _recurrence_distance(sets_of(ls), sets_of(ss), n_wi)
            if dist is not None:
                result.recurrences.append(Recurrence(
                    load_site=ls, store_site=ss, space=lp.space,
                    buffer=lp.buffer, distance=dist))
    return result


def _recurrence_distance(l_sets: List[frozenset],
                         s_sets: List[frozenset],
                         n_wi: int) -> Optional[int]:
    """Smallest consistent read-after-write distance between two sites'
    per-work-item address sets (pre-hoisted by the caller — the sets are
    shared across every candidate distance rather than rebuilt per
    (distance, work-item) step)."""
    for d in range(1, min(MAX_RECURRENCE_DISTANCE, n_wi - 1) + 1):
        matched = 0
        failed = False
        for i in range(d, n_wi):
            reads = l_sets[i]
            writes = s_sets[i - d]
            if not reads or not writes:
                continue
            if not reads.isdisjoint(writes):
                matched += 1
            else:
                failed = True
                break
        if not failed and matched >= max(2, (n_wi - d) // 2):
            return d
    return None
