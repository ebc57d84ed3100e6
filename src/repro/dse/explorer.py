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
    """The outcome of sweeping a design space: every point in
    enumeration order.  The feasible subset and its ranking are
    computed on each read."""

    evaluated: List[EvaluatedDesign] = field(default_factory=list)

    @property
    def feasible(self) -> List[EvaluatedDesign]:
        return [e for e in self.evaluated if e.feasible]

    def ranked(self) -> List[EvaluatedDesign]:
        """Feasible points sorted by cycles (stable order)."""
        return sorted(self.feasible, key=lambda e: e.cycles)

    @property
    def best(self) -> Optional[EvaluatedDesign]:
        return min(self.feasible, key=lambda e: e.cycles, default=None)


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
    return ExplorationResult([
        _evaluate_design(analyze(design.work_group_size), design,
                         evaluator, device)
        for design in space])
