"""Step-by-step heuristic search (the HPCA'16-style comparator).

Wang et al. [16] optimise OpenCL designs "step by step", tuning one
parameter at a time while assuming the optimisations are independent.
The paper argues this "can easily lead to a solution stuck at local
optima" — only 12% of its picks were optimal on PolyBench vs 96% for
FlexCL's exhaustive sweep.  This module reproduces that comparator: a
coordinate-descent walk through the parameter dimensions in a fixed
order, keeping the best value of each dimension before moving on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from repro.dse.space import Design, DesignSpace, check_feasibility

#: The fixed optimisation order of the step-by-step approach.
_DIMENSIONS: Tuple[str, ...] = (
    "work_group_size", "comm_mode", "work_item_pipeline",
    "work_group_pipeline", "num_pe", "vector_width", "num_cu",
)


def _options(space: DesignSpace, dim: str) -> List:
    return {
        "work_group_size": list(space.work_group_sizes),
        "work_item_pipeline": list(space.pipeline_options),
        "work_group_pipeline": list(space.wg_pipeline_options),
        "num_pe": list(space.pe_counts),
        "num_cu": list(space.cu_counts),
        "vector_width": list(space.vector_widths),
        "comm_mode": list(space.comm_modes),
    }[dim]


def step_by_step_search(space: DesignSpace,
                        analyze: Callable[[int], object],
                        evaluator: Callable[[object, Design], float],
                        device) -> Optional[Design]:
    """Coordinate descent over the design dimensions.

    Starts from the baseline (first option of every dimension), then for
    each dimension in a fixed order evaluates all its options with every
    *other* dimension held at its current value, and commits the best.
    Interactions between dimensions are never revisited — the defining
    weakness of the approach.
    """
    current = Design(
        work_group_size=space.work_group_sizes[0],
        work_item_pipeline=space.pipeline_options[0],
        work_group_pipeline=space.wg_pipeline_options[0],
        num_pe=space.pe_counts[0],
        num_cu=space.cu_counts[0],
        vector_width=space.vector_widths[0],
        comm_mode=space.comm_modes[0],
    )

    def evaluate(design: Design) -> float:
        info = analyze(design.work_group_size)
        if info is None:
            return float("inf")
        if check_feasibility(info, design, device) is not None:
            return float("inf")
        return evaluator(info, design)

    best_cycles = evaluate(current)
    for dim in _DIMENSIONS:
        best_option_cycles = best_cycles
        best_option = getattr(current, dim)
        for option in _options(space, dim):
            candidate = replace(current, **{dim: option})
            cycles = evaluate(candidate)
            if cycles < best_option_cycles:
                best_option_cycles = cycles
                best_option = option
        current = replace(current, **{dim: best_option})
        best_cycles = best_option_cycles
    if best_cycles == float("inf"):
        return None
    return current
