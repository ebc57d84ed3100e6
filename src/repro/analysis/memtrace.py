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
    work-group-linear order), column-wise on the flat arrays.

    Memory stays linear in the rows: only the site and address columns
    and an int32 work-item id are concatenated, one stable sort by site
    lays each site's rows out as one segment, and each statistic reads
    its segment in place."""
    result = TraceAnalysis(global_traces=packed.global_view())
    n_wi = len(packed)
    if n_wi == 0:
        return result
    groups = packed.groups
    wg = packed.wg_size

    # ---- aggregate counts ----------------------------------------------
    totals = np.zeros(4, np.int64)
    for grp in groups:
        totals += np.bincount(grp.space * 2 + grp.kind, minlength=4)
    result.global_reads_per_wi = int(totals[0]) / n_wi
    result.global_writes_per_wi = int(totals[1]) / n_wi
    result.local_reads_per_wi = int(totals[2]) / n_wi
    result.local_writes_per_wi = int(totals[3]) / n_wi
    if not int(totals.sum()):
        return result

    # ---- global row order: work-item-major, each work-item's rows in
    # program order.  A stable sort by site keeps that order within each
    # site's segment, so every work-item's accesses to a site form one
    # contiguous run of it.
    group_ends = np.cumsum([len(grp) for grp in groups])
    addr = np.concatenate([grp.addr for grp in groups])
    wi = np.concatenate([
        np.repeat(np.arange(g * wg, (g + 1) * wg, dtype=np.int32),
                  np.diff(grp.lane_starts))
        for g, grp in enumerate(groups)])
    site = np.concatenate([grp.site for grp in groups])
    order = np.argsort(site, kind="stable")
    site = site[order]
    heads = np.flatnonzero(np.concatenate(([True], site[1:] != site[:-1])))
    usites = site[heads].tolist()
    del site
    bounds = np.append(heads, order.shape[0]).tolist()
    # Site order = first appearance in global row order.
    firsts = order[heads]
    segment = {s: (bounds[i], bounds[i + 1])
               for i, s in enumerate(usites)}

    def runs(s: int):
        """Site *s*'s work-item ids and addresses, and where each
        work-item's run of them starts."""
        lo, hi = segment[s]
        rows = order[lo:hi]
        seg_wi, seg_addr = wi[rows], addr[rows]
        run_starts = np.flatnonzero(np.concatenate(
            ([True], seg_wi[1:] != seg_wi[:-1])))
        return seg_wi, seg_addr, run_starts

    for i in np.argsort(firsts, kind="stable").tolist():
        s = usites[i]
        seg_wi, seg_addr, run_starts = runs(s)
        m = seg_addr.shape[0]
        run_len = np.diff(np.append(run_starts, m))
        # The same occurrence of two work-items whose ids differ by one:
        # for each occurrence k below both runs' lengths, row
        # run_starts[r] + k of run r against the row run_len[r] further
        # on, occurrence k of run r + 1.
        adjacent = (seg_wi[run_starts[1:]] - seg_wi[run_starts[:-1]]) == 1
        n_pairs = np.where(adjacent,
                           np.minimum(run_len[:-1], run_len[1:]), 0)
        total = int(n_pairs.sum())
        wi_stride = None
        if total:
            pair_starts = np.cumsum(n_pairs) - n_pairs
            a = np.arange(total, dtype=np.intp)
            a -= np.repeat(pair_starts - run_starts[:-1], n_pairs)
            d = seg_addr[a + np.repeat(run_len[:-1], n_pairs)]
            d -= seg_addr[a]
            del a
            wi_stride = _common(d)
            del d
        # Consecutive occurrences within one work-item's run.
        inner_stride = None
        if m > 1:
            keep = np.ones(m - 1, bool)
            keep[run_starts[1:] - 1] = False
            inner_stride = _common(np.diff(seg_addr)[keep])
        del seg_wi, seg_addr

        # Prototype row = the site's first appearance in global row
        # order, read from its group.
        i0 = int(firsts[i])
        g = int(np.searchsorted(group_ends, i0, "right"))
        grp = groups[g]
        r = i0 - (int(group_ends[g - 1]) if g else 0)
        result.sites[s] = AccessSiteStats(
            site=s,
            kind=KIND_NAMES[int(grp.kind[r])],
            space=SPACE_NAMES[int(grp.space[r])],
            buffer=grp.names[int(grp.buf[r])],
            nbytes=int(grp.nbytes[r]),
            per_wi_count=m / n_wi,
            wi_stride=wi_stride,
            inner_stride=inner_stride,
        )

    # ---- recurrences ----------------------------------------------------
    # Per-work-item address sets are only needed for (load, store) pairs
    # on the same buffer+space; build them lazily so kernels without
    # such pairs skip the frozenset construction entirely.
    stats = result.sites
    site_sets: Dict[int, List[frozenset]] = {}

    def sets_of(s: int) -> List[frozenset]:
        sets = site_sets.get(s)
        if sets is None:
            seg_wi, seg_addr, run_starts = runs(s)
            run_ends = np.append(run_starts[1:], seg_addr.shape[0])
            sets = [_EMPTY_SET] * n_wi
            for a, b in zip(run_starts.tolist(), run_ends.tolist()):
                sets[int(seg_wi[a])] = frozenset(seg_addr[a:b].tolist())
            site_sets[s] = sets
        return sets

    loads = [s for s in stats if stats[s].kind == "read"]
    stores = [s for s in stats if stats[s].kind == "write"]
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


def _common(d: np.ndarray) -> Optional[int]:
    """The one value every element of *d* holds (None when *d* is
    empty or holds several)."""
    if d.size and bool((d == d[0]).all()):
        return int(d[0])
    return None


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
