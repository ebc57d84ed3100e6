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

The reconstruction is a *plan*: each group is a profiled stand-in plus
a shift (:meth:`GroupStreamExtrapolator.placement`).  The System Run
simulator materialises the plan one group at a time
(:meth:`GroupStreamExtrapolator.stream`); the analytical memory model
(:mod:`repro.model.memory`) reads the plan itself and does its work once
per distinct stream.  Both consume this ONE reconstruction, so their
only disagreement is *timing* — averaged Table 1 prices versus live
DRAM state — which is exactly the error source the paper names.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.analysis.packed import PackedStream, PackedTraces

#: How a group's stream derives from its stand-in: None replays the
#: stand-in unchanged; ``(delta, steps)`` adds ``delta * steps`` to its
#: addresses, where *delta* is one int or one int per access.
Shift = Optional[Tuple[Union[int, np.ndarray], int]]


class GroupStreamExtrapolator:
    """Reconstructs the global-access stream of any work-group."""

    def __init__(self, global_traces: PackedTraces,
                 pipelined: bool) -> None:
        self.pipelined = pipelined
        # Pipelined order is occurrence-major (by (occ, lane)): canonical
        # rows are lane-major, so a stable sort on occ alone keeps lanes
        # in order within each occurrence.  Non-pipelined is the
        # canonical order itself.
        self._groups: List[PackedStream] = [
            PackedStream.from_group(
                grp, np.argsort(grp.occ, kind="stable") if pipelined
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
                    if (diffs == diffs[0]).all():
                        self._scalar_delta = int(diffs[0])
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

    def stand_in(self, index: int) -> PackedStream:
        """Profiled group *index*'s stream, in this mode's order."""
        return self._groups[index]

    def placement(self, group: int) -> Optional[Tuple[int, Shift]]:
        """``(stand-in index, shift)`` reconstructing *group* (None when
        nothing was profiled)."""
        groups = self._groups
        n = len(groups)
        if group < n:
            return group, None               # profiled exactly
        if not groups:
            return None
        if self.period is None:
            return self.fallback, None       # replay the stand-in
        p_idx = self.base_index + ((group - self.base_index)
                                   % self.period)
        if p_idx >= n:
            p_idx = self.fallback
        steps = (group - p_idx) // self.period
        # a zero shift (no steps, or a zero scalar delta) is a replay
        if steps and self._scalar_delta:
            return p_idx, (self._scalar_delta, steps)
        if steps and self._elem_deltas is not None \
                and len(groups[p_idx]) == len(self._elem_deltas):
            return p_idx, (self._elem_deltas, steps)
        return p_idx, None                   # periodic replay

    def plan(self, window: int) -> List[Tuple[int, Shift]]:
        """The placements of the non-empty groups among the first
        *window*, in group order."""
        groups = self._groups
        return [place for place in map(self.placement, range(window))
                if place is not None and len(groups[place[0]])]

    def stream(self, group: int) -> PackedStream:
        """The (uncoalesced) access stream of *group*: its placement,
        applied."""
        place = self.placement(group)
        if place is None:
            return PackedStream.empty()
        index, shift = place
        stand_in = self._groups[index]
        if shift is None:
            return stand_in
        delta, steps = shift
        return stand_in.with_addr(stand_in.addr + delta * steps)
