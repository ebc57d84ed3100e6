"""Data-flow graph construction.

Two granularities:

- :func:`build_block_dfg` — the DFG of one basic block, consumed by the
  resource-aware list scheduler (paper §3.3.1) to estimate that block's
  execution latency.
- :func:`build_function_dfg` — the whole-work-item DFG (blocks linearised
  in reverse post-order, cross-block value and memory dependencies, and
  control edges from branch conditions into the blocks they guard).  The
  modulo scheduler and the recurrence analysis run on this graph.

Because the lowering is alloca-based, value flow passes through private
stack slots; dependencies through memory are therefore tracked per
*pointer root* (the alloca / argument a pointer was derived from).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    Barrier,
    Call,
    Cast,
    CondBranch,
    GetElementPtr,
    Instruction,
    Load,
    Store,
    )
from repro.ir.types import AddressSpace
from repro.ir.values import Argument, Register, Value
from repro.latency.optable import OpClass, OpLatencyTable, classify_instruction


def pointer_root(value: Value) -> object:
    """Trace a pointer value back to its origin.

    Returns the defining :class:`Alloca`, the :class:`Argument`, or the
    string ``"?"`` when the origin cannot be determined (forcing
    conservative dependence edges).
    """
    seen = 0
    current = value
    while seen < 64:
        seen += 1
        if isinstance(current, Argument):
            return current
        if not isinstance(current, Register):
            return "?"
        # Find the defining instruction via the result backlink pattern:
        # registers are only produced by instructions, which we reach
        # through the value's definer attribute set at graph build time.
        definer = getattr(current, "definer", None)
        if definer is None:
            return "?"
        if isinstance(definer, Alloca):
            return definer
        if isinstance(definer, (GetElementPtr,)):
            current = definer.base
            continue
        if isinstance(definer, Cast) and definer.kind in ("ptrcast",
                                                          "bitcast"):
            current = definer.value
            continue
        if isinstance(definer, Load):
            # Pointer loaded from a private slot (e.g. a pointer
            # argument's stack slot): follow to the slot, then to what
            # was stored there if it is unique.
            stored = getattr(definer, "unique_stored_value", None)
            if stored is not None:
                current = stored
                continue
            return "?"
        return "?"
    return "?"


def _annotate_definers(fn: Function) -> None:
    """Attach .definer to every register and resolve unique stores into
    private slots (so pointer roots can be traced through them)."""
    for inst in fn.instructions():
        if inst.result is not None:
            inst.result.definer = inst  # type: ignore[attr-defined]
    # slot alloca -> set of values stored into it
    stores: Dict[int, List[Value]] = {}
    slot_of: Dict[int, Alloca] = {}
    for inst in fn.instructions():
        if isinstance(inst, Store):
            root = _direct_alloca(inst.pointer)
            if root is not None:
                stores.setdefault(id(root), []).append(inst.value)
                slot_of[id(root)] = root
    unique: Dict[int, Value] = {}
    for key, values in stores.items():
        if len(values) == 1:
            unique[key] = values[0]
    for inst in fn.instructions():
        if isinstance(inst, Load):
            root = _direct_alloca(inst.pointer)
            if root is not None and id(root) in unique:
                inst.unique_stored_value = unique[id(root)]  # type: ignore


def _direct_alloca(pointer: Value) -> Optional[Alloca]:
    definer = getattr(pointer, "definer", None)
    if isinstance(definer, Alloca):
        return definer
    return None


@dataclass
class DFGNode:
    """One instruction in a data-flow graph."""

    inst: Instruction
    index: int                    # program order
    latency: float = 1.0
    op_class: OpClass = OpClass.INT_ALU
    block: str = ""
    preds: List[Tuple[int, int]] = field(default_factory=list)  # (node, dist)
    succs: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class DataFlowGraph:
    """A dependence graph over instructions.

    Edges carry an iteration *distance* (0 for intra-work-item
    dependencies; recurrence edges added later carry the inter-work-item
    distance).
    """

    nodes: List[DFGNode] = field(default_factory=list)
    _index_of: Dict[int, int] = field(default_factory=dict)

    def add_node(self, inst: Instruction, latency: float, op_class: OpClass,
                 block: str = "") -> DFGNode:
        node = DFGNode(inst=inst, index=len(self.nodes), latency=latency,
                       op_class=op_class, block=block)
        self.nodes.append(node)
        self._index_of[id(inst)] = node.index
        return node

    def node_for(self, inst: Instruction) -> Optional[DFGNode]:
        idx = self._index_of.get(id(inst))
        return self.nodes[idx] if idx is not None else None

    def add_edge(self, src: DFGNode, dst: DFGNode, distance: int = 0) -> None:
        if src.index == dst.index:
            return
        if (dst.index, distance) in src.succs:
            return
        src.succs.append((dst.index, distance))
        dst.preds.append((src.index, distance))

    def critical_path(self) -> float:
        """Longest latency path over distance-0 edges."""
        finish = [0.0] * len(self.nodes)
        for node in self.nodes:   # nodes are in topological (program) order
            start = 0.0
            for pred_idx, dist in node.preds:
                if dist == 0 and pred_idx < node.index:
                    start = max(start, finish[pred_idx])
            finish[node.index] = start + node.latency
        return max(finish, default=0.0)

    def longest_path_between(self, src: DFGNode, dst: DFGNode) -> Optional[float]:
        """Longest distance-0 path latency from *src* to *dst* (inclusive
        of both node latencies); None if unreachable."""
        best: Dict[int, float] = {src.index: src.latency}
        for node in self.nodes:
            if node.index <= src.index:
                continue
            incoming = [best[p] for p, d in node.preds
                        if d == 0 and p in best]
            if incoming:
                best[node.index] = max(incoming) + node.latency
        return best.get(dst.index)


def build_block_dfg(block: BasicBlock, table: OpLatencyTable) -> DataFlowGraph:
    """The dependence graph of one basic block's instructions."""
    fn = block.parent
    if fn is not None:
        _annotate_definers(fn)
    graph = DataFlowGraph()
    for inst in block.instructions:
        graph.add_node(inst, table.latency(inst),
                       classify_instruction(inst), block=block.name)
    _add_dependence_edges(graph, graph.nodes)
    return graph


def build_function_dfg(fn: Function, table: OpLatencyTable
                       ) -> DataFlowGraph:
    """The whole-work-item dependence graph.

    It depends only on the IR and *table*.  How often each node runs
    per work-item is profile data: weight a node by its block's entry
    in :attr:`~repro.analysis.kernel_info.KernelInfo.block_weights`
    (1.0 for a block the profile never counted).
    """
    _annotate_definers(fn)
    graph = DataFlowGraph()
    order = _reverse_post_order(fn)
    for block in order:
        for inst in block.instructions:
            graph.add_node(inst, table.latency(inst),
                           classify_instruction(inst), block=block.name)
    _add_dependence_edges(graph, graph.nodes)
    _add_control_edges(graph, fn)
    return graph


def _reverse_post_order(fn: Function) -> List[BasicBlock]:
    seen = set()
    post: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        seen.add(id(block))
        while stack:
            current, it = stack[-1]
            advanced = False
            for succ in it:
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                post.append(current)
                stack.pop()

    visit(fn.entry)
    return list(reversed(post))


def _add_dependence_edges(graph: DataFlowGraph,
                          nodes: Sequence[DFGNode]) -> None:
    # Register def-use edges.
    producer: Dict[int, DFGNode] = {}
    for node in nodes:
        if node.inst.result is not None:
            producer[id(node.inst.result)] = node
    for node in nodes:
        for op in node.inst.operands:
            src = producer.get(id(op))
            if src is not None and src.index < node.index:
                graph.add_edge(src, node)

    # Memory ordering per pointer root (RAW / WAR / WAW) and barriers.
    last_store: Dict[object, DFGNode] = {}
    loads_since_store: Dict[object, List[DFGNode]] = {}
    last_barrier: Optional[DFGNode] = None

    def root_key(pointer: Value, space: AddressSpace) -> object:
        root = pointer_root(pointer)
        if root == "?":
            return ("?", space)
        return id(root)

    for node in nodes:
        inst = node.inst
        if isinstance(inst, Barrier):
            # Barrier orders every preceding memory op before every
            # following one.
            for store_node in last_store.values():
                graph.add_edge(store_node, node)
            for load_list in loads_since_store.values():
                for load_node in load_list:
                    graph.add_edge(load_node, node)
            last_store.clear()
            loads_since_store.clear()
            last_barrier = node
            continue
        if isinstance(inst, Load):
            key = root_key(inst.pointer, inst.space)
            for k in (key, ("?", inst.space)):
                if k in last_store:
                    graph.add_edge(last_store[k], node)
            if isinstance(key, tuple):
                # Unknown root: depends on every outstanding store.
                for store_node in last_store.values():
                    graph.add_edge(store_node, node)
            loads_since_store.setdefault(key, []).append(node)
            if last_barrier is not None:
                graph.add_edge(last_barrier, node)
        elif isinstance(inst, Store) or (
                isinstance(inst, Call)
                and inst.callee.startswith("atomic_")):
            pointer = (inst.pointer if isinstance(inst, Store)
                       else inst.operands[0])
            space = (pointer.type.space
                     if hasattr(pointer.type, "space")
                     else AddressSpace.GLOBAL)
            key = root_key(pointer, space)
            if key in last_store:
                graph.add_edge(last_store[key], node)  # WAW
            for load_node in loads_since_store.pop(key, []):
                graph.add_edge(load_node, node)        # WAR
            last_store[key] = node
            if last_barrier is not None:
                graph.add_edge(last_barrier, node)


def _add_control_edges(graph: DataFlowGraph, fn: Function) -> None:
    """Edge from each branch condition to the ops of the blocks it
    guards (one level; transitivity follows from nested branches)."""
    for block in fn.blocks:
        term = block.terminator
        if not isinstance(term, CondBranch):
            continue
        term_node = graph.node_for(term)
        if term_node is None:
            continue
        for target in (term.then_block, term.else_block):
            for inst in target.instructions:
                dst = graph.node_for(inst)
                if dst is not None and dst.index > term_node.index:
                    graph.add_edge(term_node, dst)
