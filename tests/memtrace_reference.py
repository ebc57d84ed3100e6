"""Dense reference form of the trace statistics.

:func:`repro.analysis.memtrace.analyze_traces` works in memory linear
in the trace rows.  The form here lays each site's accesses out as a
dense (work-item x occurrence) address matrix and reads both strides
off its rows and columns, so the tests hold the lean statistics to an
independent computation rather than to themselves.  Recurrences share
the package's distance search, which both forms call.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.memtrace import (
    AccessSiteStats,
    Recurrence,
    TraceAnalysis,
)
from repro.analysis.memtrace import \
    _recurrence_distance as recurrence_distance
from repro.analysis.packed import KIND_NAMES, SPACE_NAMES, PackedTraces

_EMPTY_SET: frozenset = frozenset()


def analyze_traces(packed: PackedTraces) -> TraceAnalysis:
    """:func:`repro.analysis.memtrace.analyze_traces` on dense
    (work-item x occurrence) matrices per site."""
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
            dist = recurrence_distance(sets_of(ls), sets_of(ss), n_wi)
            if dist is not None:
                result.recurrences.append(Recurrence(
                    load_site=ls, store_site=ss, space=lp.space,
                    buffer=lp.buffer, distance=dist))
    return result
