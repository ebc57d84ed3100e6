"""Basic blocks and functions."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, TypeVar

from repro.ir.instructions import (
    Branch,
    CondBranch,
    Instruction,
    Terminator,
)
from repro.ir.types import Type
from repro.ir.values import Argument

T = TypeVar("T")


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None) -> None:
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block {self.name} already terminated")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, Branch):
            return [term.target]
        if isinstance(term, CondBranch):
            return [term.then_block, term.else_block]
        return []

    def body(self) -> List[Instruction]:
        """Instructions excluding the terminator."""
        if self.is_terminated:
            return self.instructions[:-1]
        return list(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name}: {len(self.instructions)} insts>"


class Function:
    """A kernel function: arguments plus a CFG of basic blocks."""

    def __init__(self, name: str, arg_types: List[Type],
                 arg_names: List[str], is_kernel: bool = True) -> None:
        self.name = name
        self.is_kernel = is_kernel
        self.args: List[Argument] = [
            Argument(t, n, i) for i, (t, n) in enumerate(zip(arg_types, arg_names))
        ]
        self.blocks: List[BasicBlock] = []
        #: required work-group size from reqd_work_group_size, if any
        self.reqd_work_group_size: Optional[tuple] = None
        #: data derived from the IR, built once (:func:`function_memo`)
        self._derived: Dict[object, object] = {}

    def __getstate__(self) -> dict:
        # Derived data is rebuilt on demand, so a pickled function (the
        # ``fn`` of every stored analysis) carries its IR only.
        state = dict(self.__dict__)
        del state["_derived"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived = {}

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def new_block(self, name: str) -> BasicBlock:
        # Uniquify the name so diagnostics stay unambiguous.
        existing = {b.name for b in self.blocks}
        candidate, i = name, 1
        while candidate in existing:
            candidate = f"{name}.{i}"
            i += 1
        block = BasicBlock(candidate, self)
        self.blocks.append(block)
        return block

    def arg(self, name: str) -> Argument:
        for a in self.args:
            if a.name == name:
                return a
        raise KeyError(f"no argument named {name!r} in {self.name}")

    def predecessors(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Map each block to its CFG predecessors."""
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def reachable_blocks(self) -> List[BasicBlock]:
        """Blocks reachable from entry, in DFS preorder."""
        seen = set()
        order: List[BasicBlock] = []
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
            order.append(block)
            stack.extend(reversed(block.successors()))
        return order

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        return f"<Function {self.name}: {len(self.blocks)} blocks>"


_MISSING = object()


def function_memo(fn: Function, key, build: Callable[[], T]) -> T:
    """``build()``, computed once per *fn* and *key*.

    The IR is immutable after lowering, so anything that depends only
    on it (and on *key*) is built once and shared by every analysis of
    that function object: its fingerprint, access summary, determinism
    classifier, per-block DFGs and function DFG.  Nothing a request supplies (buffers,
    scalars, the NDRange) belongs here: a shared function would keep it
    alive.  The values live on the function and die with it; they are
    never pickled.  A *fn* that is not a :class:`Function` (a test
    double) is built afresh each call."""
    if not isinstance(fn, Function):
        return build()
    value = fn._derived.get(key, _MISSING)
    if value is _MISSING:
        value = fn._derived[key] = build()
    return value
