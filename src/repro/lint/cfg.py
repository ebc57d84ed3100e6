"""CFG queries shared by the lint checks.

Small, self-contained graph analyses over :class:`repro.ir.Function`:
dominators and post-dominators (iterative set intersection — functions
here are a few dozen blocks at most), natural-loop membership keyed on
the loop headers recorded by the frontend (``fn.loop_meta``), and
barrier-aware path queries used by the local-memory race check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Barrier, Instruction
from repro.ir.visitor import flood, meet_over_edges


def reachable_from(block: BasicBlock) -> Set[int]:
    """Ids of blocks reachable from *block* (excluding it unless cyclic)."""
    return set(flood([block], lambda b: b.successors()))


def dominators(fn: Function) -> Dict[int, Set[int]]:
    """``dom[id(b)]`` = ids of blocks dominating *b* (including itself)."""
    preds = fn.predecessors()
    return meet_over_edges(fn.reachable_blocks(), [fn.entry],
                           lambda b: preds[b])


def postdominators(fn: Function) -> Dict[int, Set[int]]:
    """``pdom[id(b)]`` = ids of blocks post-dominating *b*.

    Blocks with no successors (returns) post-dominate only themselves;
    a virtual exit joins them.
    """
    blocks = fn.reachable_blocks()
    exits = [b for b in blocks if not b.successors()]
    return meet_over_edges(blocks, exits, lambda b: b.successors())


def block_by_name(fn: Function, name: str) -> Optional[BasicBlock]:
    """Find a block by name, or ``None``."""
    for b in fn.blocks:
        if b.name == name:
            return b
    return None


def natural_loop(fn: Function, header: BasicBlock,
                 dom: Optional[Dict[int, Set[int]]] = None) -> Set[int]:
    """Ids of the blocks in the natural loop with *header*.

    The loop body is every block that can reach a back edge's source
    (a latch the header dominates) without passing through the header.
    """
    dom = dom if dom is not None else dominators(fn)
    preds = fn.predecessors()
    latches = [p for p in preds.get(header, [])
               if id(header) in dom.get(id(p), set())]
    # Flood backwards from the latches, damming at the header.
    body = flood(latches,
                 lambda b: (preds.get(b, []) if b is not header else []),
                 include_seeds=True)
    return {id(header)} | set(body)


def _position(inst: Instruction) -> int:
    return inst.parent.instructions.index(inst)


def _has_barrier(insts) -> bool:
    return any(isinstance(i, Barrier) for i in insts)


def barrier_free_path(fn: Function, src: Instruction,
                      dst: Instruction) -> bool:
    """Is there a CFG path from *src* to *dst* crossing no barrier?

    Used by the race check: two conflicting local accesses are safe
    only when every path between them synchronises.  Intra-block
    ordering is respected; a path may wrap around a loop back edge.
    """
    sblock, dblock = src.parent, dst.parent
    si, di = _position(src), _position(dst)
    if sblock is dblock and si < di:
        if not _has_barrier(sblock.instructions[si + 1:di]):
            return True
    # Leave src's block: no barrier may sit between src and the exit.
    if _has_barrier(sblock.instructions[si + 1:]):
        return False
    seen: Set[int] = set()
    stack: List[BasicBlock] = list(sblock.successors())
    while stack:
        b = stack.pop()
        if id(b) in seen:
            continue
        seen.add(id(b))
        if b is dblock:
            if not _has_barrier(b.instructions[:di]):
                return True
            continue  # entering past dst is useless: prefix is fixed
        if _has_barrier(b.instructions):
            continue  # cannot pass through
        stack.extend(b.successors())
    return False
