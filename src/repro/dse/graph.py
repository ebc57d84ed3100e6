"""Joint design-space exploration for multi-kernel programs.

The joint space is the product of the per-stage single-kernel knobs
(work-group size, pipelining, PE/CU replication, ...), the edge
realization (buffer-through-DRAM vs on-chip pipe), and — for the pipe
realization — the FIFO depths.  Exhausting that product is hopeless
(it is exponential in the stage count), so the explorer works in two
phases:

1. **per-stage sweep** — each stage's design space is swept with the
   ordinary single-kernel explorer (sharing the same persistent cache,
   so repeated program explorations warm-start), keeping the top-K
   feasible designs per stage;
2. **joint refinement** — for every (realization, depth) combination, a
   deterministic coordinate pass over the per-stage short-lists: start
   from every stage's best design, then improve one stage at a time
   against the end-to-end graph prediction.  Stages only interact
   through the graph integrator's max/sum composition, so a single
   pass settles it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.dse.explorer import ExplorationResult, explore
from repro.dse.space import Design, DesignSpace

# repro.model imports repro.dse.space, so pulling the model in at module
# scope would be circular; it is imported lazily at call time instead.
if TYPE_CHECKING:                                    # pragma: no cover
    from repro.model.flexcl import FlexCL
    from repro.model.graph import GraphPrediction

#: FIFO depths the pipe realization sweeps by default
DEFAULT_DEPTHS = (4, 16, 64)


@dataclass(frozen=True)
class GraphDesign:
    """One joint design point of a program."""

    realization: str                       # 'dram' | 'pipe'
    stage_designs: Tuple[Tuple[str, Design], ...]
    depth: int = 16                        # FIFO depth (pipe only)

    def designs(self) -> Dict[str, Design]:
        return dict(self.stage_designs)

    def signature(self) -> str:
        inner = ", ".join(f"{s}={d.signature()}"
                          for s, d in self.stage_designs)
        tail = f" depth={self.depth}" if self.realization == "pipe" else ""
        return f"{self.realization}{tail} [{inner}]"


@dataclass
class EvaluatedGraphDesign:
    """One explored joint point with its end-to-end prediction."""

    design: GraphDesign
    prediction: "GraphPrediction"

    @property
    def cycles(self) -> float:
        return self.prediction.cycles


@dataclass
class GraphExplorationResult:
    """Outcome of a joint program exploration."""

    evaluated: List[EvaluatedGraphDesign] = field(default_factory=list)
    #: per-stage single-kernel sweeps, for diagnostics
    stage_sweeps: Dict[str, ExplorationResult] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def ranked(self) -> List[EvaluatedGraphDesign]:
        return sorted(self.evaluated, key=lambda e: e.cycles)

    @property
    def best(self) -> Optional[EvaluatedGraphDesign]:
        ranked = self.ranked()
        return ranked[0] if ranked else None


def explore_program(program, device,
                    depths: Tuple[int, ...] = DEFAULT_DEPTHS,
                    top_k: int = 3,
                    space: Optional[Callable[[object], DesignSpace]] = None,
                    cache=None,
                    model: "Optional[FlexCL]" = None
                    ) -> GraphExplorationResult:
    """Jointly explore *program*'s stages, realizations, and depths.

    *space* maps a stage workload to its single-kernel
    :class:`DesignSpace` (default: ``DesignSpace.default_for`` of the
    stage's global size).  All per-stage analyses and sub-model rows go
    through *cache* when given, so the sweep shares the persistent
    store with ordinary single-kernel runs.
    """
    from repro.evaluation.harness import make_analyzer
    from repro.model.flexcl import FlexCL
    from repro.model.graph import predict_graph

    start = time.perf_counter()
    if model is None:
        model = FlexCL(device, cache=cache)
    graph = program.graph()
    result = GraphExplorationResult()

    # Phase 1: per-stage short-lists.
    shortlists: Dict[str, List[Design]] = {}
    #: each stage's analyzer: one profile, one analysis per size
    infos: Dict[str, Callable[[int], object]] = {}
    for workload in program.stages:
        stage = workload.kernel
        stage_space = (space(workload) if space is not None
                       else DesignSpace.default_for(workload.global_size))
        analyze = make_analyzer(workload, device, cache=cache)
        sweep = explore(stage_space, analyze,
                        lambda info, d: model.predict(info, d).cycles,
                        device)
        result.stage_sweeps[stage] = sweep
        top = [e.design for e in sweep.ranked()[:max(top_k, 1)]]
        if not top:
            raise ValueError(f"no feasible design for stage {stage}")
        shortlists[stage] = top
        infos[stage] = analyze

    def info_for(stage: str, design: Design):
        return infos[stage](design.work_group_size)

    def evaluate(realization: str, choice: Dict[str, Design],
                 depth: int) -> EvaluatedGraphDesign:
        stage_infos = {s: info_for(s, d) for s, d in choice.items()}
        prediction = predict_graph(
            graph, model, stage_infos, choice, realization,
            default_depth=depth)
        design = GraphDesign(
            realization=realization,
            stage_designs=tuple((s, choice[s]) for s in graph.stages),
            depth=depth)
        return EvaluatedGraphDesign(design=design, prediction=prediction)

    # Phase 2: joint coordinate pass per (realization, depth).
    seen = set()
    combos = [("dram", 0)] + [("pipe", d) for d in depths]
    for realization, depth in combos:
        choice = {s: shortlists[s][0] for s in graph.stages}
        best = evaluate(realization, choice, depth)
        for stage in graph.stages:
            for candidate in shortlists[stage][1:]:
                trial_choice = dict(choice)
                trial_choice[stage] = candidate
                trial = evaluate(realization, trial_choice, depth)
                if trial.cycles < best.cycles:
                    best, choice = trial, trial_choice
        key = (realization, depth, best.design.stage_designs)
        if key not in seen:
            seen.add(key)
            result.evaluated.append(best)

    result.elapsed_seconds = time.perf_counter() - start
    return result
