"""PE pipeline depth (paper §3.3.1).

D_comp^PE is the summed block latency along the critical path of the
simplified CDFG: loop regions contribute trip count × per-iteration
latency, and if/else arms contribute the longer arm.  Both FlexCL's PE
model and System Run's synthesis derive the depth this way, from their
own block latencies.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.loops import LoopInfo, LoopNest
from repro.ir.function import BasicBlock, Function


def critical_path_depth(fn: Function, block_latencies: Dict[str, float],
                        loop_nest: LoopNest) -> float:
    """D_comp^PE: summed block latencies along the CDFG critical path.

    Loops are collapsed into region nodes whose latency is
    trip_count × per-iteration critical path (computed recursively for
    nested loops); if/else arms contribute the longer arm.
    """
    memo: Dict[str, float] = {}
    blocks = {b.name: b for b in fn.blocks}

    def loop_latency(loop: LoopInfo) -> float:
        key = f"loop:{loop.header}"
        if key in memo:
            return memo[key]
        per_iter = _longest_path(
            blocks, block_latencies, loop_nest,
            entry=loop.header, within=loop.blocks, current_loop=loop,
            loop_latency_fn=loop_latency)
        total = loop.trip_count * per_iter \
            + block_latencies.get(loop.header, 0.0)  # final cond check
        memo[key] = total
        return total

    return _longest_path(blocks, block_latencies, loop_nest,
                         entry=fn.entry.name, within=None,
                         current_loop=None, loop_latency_fn=loop_latency)


def _longest_path(blocks: Dict[str, BasicBlock],
                  block_latencies: Dict[str, float],
                  loop_nest: LoopNest, entry: str,
                  within: Optional[set], current_loop: Optional[LoopInfo],
                  loop_latency_fn) -> float:
    """Longest latency path from *entry* over *blocks* (by name),
    collapsing loops nested below *current_loop* and never leaving
    *within* (when given)."""
    best: Dict[str, float] = {}

    def visit(name: str, on_stack: set) -> float:
        if name in best:
            return best[name]
        if name in on_stack:      # irreducible/cycle guard
            return 0.0
        block = blocks.get(name)
        if block is None:
            return 0.0
        on_stack = on_stack | {name}

        # Collapse a loop when we stand at its header from outside it.
        header_loop = loop_nest.by_header(name)
        if header_loop is not None and header_loop is not current_loop \
                and (current_loop is None
                     or header_loop.header != current_loop.header):
            node_latency = loop_latency_fn(header_loop)
            successors = _loop_exits(blocks, header_loop)
        else:
            node_latency = block_latencies.get(name, 0.0)
            successors = [s.name for s in block.successors()]

        follow = 0.0
        for succ in successors:
            if within is not None and succ not in within:
                continue
            if current_loop is not None and succ == current_loop.header:
                continue   # back edge: one iteration only
            follow = max(follow, visit(succ, on_stack))
        result = node_latency + follow
        best[name] = result
        return result

    return visit(entry, frozenset())


def _loop_exits(blocks: Dict[str, BasicBlock], loop: LoopInfo) -> list:
    exits = []
    for name in loop.blocks:
        block = blocks.get(name)
        if block is None:
            continue
        for succ in block.successors():
            if succ.name not in loop.blocks:
                exits.append(succ.name)
    return exits
