"""Per-work-group access-stream reconstruction (paper §3.2: the
profiled trace "is then transformed into realistic global memory
accesses").

Only a few work-groups are profiled; the rest of the NDRange's streams
are extrapolated period-aware: the profiled groups are scanned for a
pair (i, i+d) with identical access shapes; group g then reuses the
profiled group congruent to it (mod d), shifted by the pair's
per-period address delta.  Kernels whose active work-items vary with
the row (guarded stencils) get d > 1; kernels with data-dependent
sparsity (frontier algorithms) fall back to replaying the
median-length profiled group.

Both the analytical memory model and the System Run simulator consume
this SAME reconstruction, so their only disagreement is *timing* —
averaged Table 1 prices versus live DRAM state — which is exactly the
error source the paper names.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.analysis.packed import PackedStream, PackedTraces


class GroupStreamExtrapolator:
    """Reconstructs the global-access stream of any work-group."""

    def __init__(self, global_traces: PackedTraces,
                 pipelined: bool) -> None:
        self.pipelined = pipelined
        # Pipelined order is occurrence-major (sort by (occ, lane));
        # non-pipelined is the canonical lane-major row order itself.
        self._groups: List[PackedStream] = [
            PackedStream.from_group(
                grp, np.lexsort((grp.lane, grp.occ)) if pipelined
                else None)
            for grp in global_traces.groups]

        n = len(self._groups)
        self.period: Optional[int] = None
        self.base_index = 0
        self._scalar_delta: Optional[int] = None
        self._elem_deltas = None
        for d in range(1, max(n, 1)):
            for i in range(n - d - 1, -1, -1):
                a, b = self._groups[i], self._groups[i + d]
                if len(a) and len(a) == len(b):
                    self.period, self.base_index = d, i
                    diffs = b.addr - a.addr
                    u = np.unique(diffs)
                    if u.shape[0] == 1:
                        self._scalar_delta = int(u[0])
                    else:
                        self._elem_deltas = diffs
                    break
            if self.period is not None:
                break

        # Median-length stand-in: robust both to empty boundary groups
        # (guarded stencils) and to data-dependent sparsity where only
        # a few groups are active (bfs-style frontiers).
        by_len = sorted(range(n), key=lambda k: len(self._groups[k]))
        self.fallback = by_len[n // 2] if n else 0

    @property
    def profiled_groups(self) -> int:
        return len(self._groups)

    def stream(self, group: int) -> PackedStream:
        """The (uncoalesced) access stream of *group*."""
        groups = self._groups
        n = len(groups)
        if group < n:
            return groups[group]             # profiled exactly
        if not groups:
            return PackedStream.empty()
        if self.period is None:
            return groups[self.fallback]     # replay the stand-in
        p_idx = self.base_index + ((group - self.base_index)
                                   % self.period)
        if p_idx >= n:
            p_idx = self.fallback
        steps = (group - p_idx) // self.period
        stand_in = groups[p_idx]
        if self._scalar_delta is not None:
            return stand_in.with_addr(
                stand_in.addr + self._scalar_delta * steps)
        if self._elem_deltas is not None \
                and len(stand_in) == len(self._elem_deltas):
            return stand_in.with_addr(
                stand_in.addr + self._elem_deltas * steps)
        return stand_in                      # periodic replay
