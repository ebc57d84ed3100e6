"""Design-space definition and exploration (paper §4.3).

A :class:`Design` captures one point of the OpenCL-to-FPGA optimisation
space: work-group size, work-item pipelining, PE parallelism (loop
unrolling / kernel vectorisation), CU replication, and the
computation/memory communication mode.  :class:`DesignSpace` enumerates
the points the paper sweeps ("hundreds of design solutions" per kernel);
the explorers search it exhaustively (FlexCL) or step-by-step
(the HPCA'16-style heuristic baseline).
"""

from repro.dse.space import Design, DesignSpace, check_feasibility
from repro.dse.explorer import (
    EvaluatedDesign,
    ExplorationResult,
    explore,
)
from repro.dse.heuristic import step_by_step_search
from repro.dse.graph import (
    EvaluatedGraphDesign,
    GraphDesign,
    GraphExplorationResult,
    explore_program,
)

__all__ = [
    "Design",
    "DesignSpace",
    "EvaluatedDesign",
    "EvaluatedGraphDesign",
    "ExplorationResult",
    "GraphDesign",
    "GraphExplorationResult",
    "check_feasibility",
    "explore",
    "explore_program",
    "step_by_step_search",
]
