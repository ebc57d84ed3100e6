"""Design-space exploration drivers.

An *evaluator* is any callable ``(info, design) -> cycles`` — the FlexCL
model, a baseline estimator, or the ground-truth simulator.  Because the
work-group size changes the kernel's analysed behaviour, the explorer
takes an ``analyze`` callable that produces a
:class:`~repro.analysis.KernelInfo` per work-group size, or None when
that size does not build.  The explorers call it once per design, so it
should memoize: :func:`repro.evaluation.kernel_analyzer` does.

The sweep is serial: every design in enumeration order.  Fanning a
sweep out over processes is the job of :mod:`repro.serve.pool`, which
runs one ``explore-shard`` task per work-group size for the serve
daemon and for ``explore --jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.dse.space import Design, DesignSpace, check_feasibility


@dataclass
class EvaluatedDesign:
    """One explored design point."""

    design: Design
    cycles: float
    feasible: bool = True
    reject_reason: Optional[str] = None


@dataclass
class ExplorationResult:
    """The outcome of sweeping a design space.

    The feasible subset and its cycle-sorted order are computed once and
    cached; :meth:`append` invalidates the cache.  Mutate ``evaluated``
    through :meth:`append` (or call :meth:`invalidate` after touching the
    list directly).
    """

    evaluated: List[EvaluatedDesign] = field(default_factory=list)
    _feasible: Optional[List[EvaluatedDesign]] = field(
        default=None, init=False, repr=False, compare=False)
    _ordered: Optional[List[EvaluatedDesign]] = field(
        default=None, init=False, repr=False, compare=False)

    def append(self, entry: EvaluatedDesign) -> None:
        """Add one evaluated point, invalidating cached orderings."""
        self.evaluated.append(entry)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached feasible list / sort order (call after
        mutating ``evaluated`` directly)."""
        self._feasible = None
        self._ordered = None

    @property
    def feasible(self) -> List[EvaluatedDesign]:
        if self._feasible is None:
            self._feasible = [e for e in self.evaluated if e.feasible]
        return self._feasible

    def ranked(self) -> List[EvaluatedDesign]:
        """Feasible points sorted by cycles (cached; stable order)."""
        if self._ordered is None:
            self._ordered = sorted(self.feasible, key=lambda e: e.cycles)
        return self._ordered

    @property
    def best(self) -> Optional[EvaluatedDesign]:
        ordered = self.ranked()
        return ordered[0] if ordered else None

    def rank(self, design: Design) -> Optional[int]:
        """1-based rank of *design* among feasible points by cycles."""
        for i, e in enumerate(self.ranked()):
            if e.design == design:
                return i + 1
        return None


def _evaluate_design(info, design: Design, evaluator, device
                     ) -> EvaluatedDesign:
    """Evaluate one point."""
    if info is None:
        return EvaluatedDesign(
            design, float("inf"), feasible=False,
            reject_reason="analysis failed for this work-group size")
    reason = check_feasibility(info, design, device)
    if reason is not None:
        return EvaluatedDesign(design, float("inf"), feasible=False,
                               reject_reason=reason)
    return EvaluatedDesign(design, evaluator(info, design))


def explore(space: DesignSpace, analyze: Callable[[int], object],
            evaluator: Callable[[object, Design], float],
            device) -> ExplorationResult:
    """Exhaustively evaluate every feasible design in *space*."""
    result = ExplorationResult()
    for design in space:
        result.append(_evaluate_design(analyze(design.work_group_size),
                                       design, evaluator, device))
    return result
