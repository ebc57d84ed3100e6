"""IR instructions.

The instruction set is deliberately small and close to what Clang emits at
-O0 for OpenCL C: locals are stack slots (:class:`Alloca`) accessed through
loads and stores, so no phi construction is needed during lowering.  Private
(stack) accesses are register traffic on the FPGA and are free for the
memory models; only ``local`` and ``global`` accesses consume ports and
DRAM bandwidth.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ir.types import AddressSpace, PointerType, Type, VOID
from repro.ir.values import Register, Value

#: Integer binary opcodes (signedness comes from the operand type).
INT_BINOPS = ("add", "sub", "mul", "div", "rem",
              "and", "or", "xor", "shl", "shr")
#: Floating-point binary opcodes.
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
BINOPS = INT_BINOPS + FLOAT_BINOPS

#: Comparison predicates (type-directed: the executor and latency tables
#: look at the operand type to pick int vs float compare behaviour).
COMPARE_PREDS = ("eq", "ne", "lt", "le", "gt", "ge")

#: Cast kinds.
CAST_KINDS = ("sitofp", "uitofp", "fptosi", "fptoui", "trunc",
              "zext", "sext", "fpext", "fptrunc", "bitcast", "ptrcast")


class Instruction:
    """Base class: an operation inside a basic block."""

    #: mnemonic, overridden per subclass
    opcode: str = "?"

    def __init__(self, operands: Sequence[Value], result: Optional[Register]) -> None:
        self.operands: List[Value] = list(operands)
        self.result = result
        #: backlink, set when appended to a block
        self.parent = None
        #: ``(line, col)`` in the OpenCL source this instruction was
        #: lowered from; ``None`` for synthesised instructions
        self.span: Optional[Tuple[int, int]] = None

    @property
    def type(self) -> Type:
        return self.result.type if self.result is not None else VOID

    def __repr__(self) -> str:
        res = f"{self.result} = " if self.result is not None else ""
        ops = ", ".join(str(o) for o in self.operands)
        return f"{res}{self.opcode} {ops}"


class BinaryOp(Instruction):
    """``result = op lhs, rhs`` for an opcode in :data:`BINOPS`."""

    def __init__(self, op: str, lhs: Value, rhs: Value, result: Register) -> None:
        if op not in BINOPS:
            raise ValueError(f"unknown binary opcode: {op!r}")
        super().__init__([lhs, rhs], result)
        self.opcode = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class CompareOp(Instruction):
    """``result = cmp.<pred> lhs, rhs`` producing a bool."""

    opcode = "cmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, result: Register) -> None:
        if pred not in COMPARE_PREDS:
            raise ValueError(f"unknown compare predicate: {pred!r}")
        super().__init__([lhs, rhs], result)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return f"{self.result} = cmp.{self.pred} {self.operands[0]}, {self.operands[1]}"


class Cast(Instruction):
    """``result = cast.<kind> value`` to ``result.type``."""

    opcode = "cast"

    def __init__(self, kind: str, value: Value, result: Register) -> None:
        if kind not in CAST_KINDS:
            raise ValueError(f"unknown cast kind: {kind!r}")
        super().__init__([value], result)
        self.kind = kind

    @property
    def value(self) -> Value:
        return self.operands[0]


class Select(Instruction):
    """``result = select cond, a, b`` (ternary operator)."""

    opcode = "select"

    def __init__(self, cond: Value, a: Value, b: Value, result: Register) -> None:
        super().__init__([cond, a, b], result)


class Alloca(Instruction):
    """Reserve private or local storage; yields a pointer to it.

    ``__local`` arrays declared in a kernel become local-space allocas
    hoisted to the entry block and shared by the work-group.
    """

    opcode = "alloca"

    def __init__(self, allocated: Type, space: AddressSpace, result: Register,
                 var_name: str = "") -> None:
        super().__init__([], result)
        self.allocated = allocated
        self.space = space
        self.var_name = var_name or result.name

    def __repr__(self) -> str:
        return f"{self.result} = alloca {self.allocated}, {self.space}"


class Load(Instruction):
    """``result = load ptr``."""

    opcode = "load"

    def __init__(self, pointer: Value, result: Register) -> None:
        super().__init__([pointer], result)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def space(self) -> AddressSpace:
        return self.pointer.type.space  # type: ignore[union-attr]


class Store(Instruction):
    """``store value -> ptr``."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value) -> None:
        super().__init__([value, pointer], None)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    @property
    def space(self) -> AddressSpace:
        return self.pointer.type.space  # type: ignore[union-attr]


class GetElementPtr(Instruction):
    """``result = gep base, index`` — pointer arithmetic on flat arrays."""

    opcode = "gep"

    def __init__(self, base: Value, index: Value, result: Register) -> None:
        if not isinstance(base.type, PointerType):
            raise TypeError(f"gep base must be a pointer, got {base.type}")
        super().__init__([base, index], result)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]


class Call(Instruction):
    """A call to an OpenCL builtin (``get_global_id``, ``sqrt``...)."""

    opcode = "call"

    def __init__(self, callee: str, args: Sequence[Value],
                 result: Optional[Register]) -> None:
        super().__init__(args, result)
        self.callee = callee

    def __repr__(self) -> str:
        res = f"{self.result} = " if self.result is not None else ""
        args = ", ".join(str(a) for a in self.operands)
        return f"{res}call {self.callee}({args})"


class Barrier(Instruction):
    """An OpenCL work-group barrier (``barrier(CLK_*_MEM_FENCE)``)."""

    opcode = "barrier"

    def __init__(self) -> None:
        super().__init__([], None)

    def __repr__(self) -> str:
        return "barrier"


class PipeRead(Instruction):
    """``result = pipe.read @channel`` — pop one element from a FIFO.

    Blocking semantics (Intel ``read_channel_intel`` / a successful
    ``read_pipe``): the reading work-item stalls until an element is
    available.  The channel is an attribute, not an operand — channels
    are module-level objects, not SSA values.
    """

    opcode = "pipe.read"

    def __init__(self, channel, result: Register) -> None:
        super().__init__([], result)
        self.channel = channel

    def __repr__(self) -> str:
        return f"{self.result} = pipe.read @{self.channel.name}"


class PipeWrite(Instruction):
    """``pipe.write value -> @channel`` — push one element into a FIFO.

    Blocking semantics (Intel ``write_channel_intel`` / a successful
    ``write_pipe``): the writing work-item stalls while the FIFO is full.
    """

    opcode = "pipe.write"

    def __init__(self, channel, value: Value) -> None:
        super().__init__([value], None)
        self.channel = channel

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return f"pipe.write {self.operands[0]} -> @{self.channel.name}"


class Phi(Instruction):
    """SSA phi node (kept for completeness; the frontend emits allocas)."""

    opcode = "phi"

    def __init__(self, result: Register) -> None:
        super().__init__([], result)
        self.incoming: List[tuple] = []  # (value, block)


class Terminator(Instruction):
    """Base class for block-ending instructions."""


class Branch(Terminator):
    """Unconditional jump."""

    opcode = "br"

    def __init__(self, target) -> None:
        super().__init__([], None)
        self.target = target

    def __repr__(self) -> str:
        return f"br {self.target.name}"


class CondBranch(Terminator):
    """Two-way conditional jump."""

    opcode = "condbr"

    def __init__(self, cond: Value, then_block, else_block) -> None:
        super().__init__([cond], None)
        self.then_block = then_block
        self.else_block = else_block

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return (f"condbr {self.operands[0]}, "
                f"{self.then_block.name}, {self.else_block.name}")


class Return(Terminator):
    """Return from the kernel."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__([value] if value is not None else [], None)

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None
