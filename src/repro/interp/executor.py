"""NDRange kernel executor.

Executes a lowered kernel over an OpenCL NDRange with work-group and
barrier semantics: within a work-group, every work-item runs until it
hits a barrier (or finishes); the group proceeds to the next phase only
when all items have arrived, matching the OpenCL execution model.

While executing it records the artefacts the FlexCL kernel analysis
needs (paper §3.2): per-loop trip counts and the per-work-item global
memory access trace.

The executor is the profiling hot path, so instruction dispatch is
resolved once at construction: every instruction is compiled into a
closure with its operand lookups, opcode function, type masking, and
trace site id pre-bound, and every basic block becomes a flat op list.
The phase loop then only threads (tag, payload) tuples — no per-step
``isinstance`` chains or dictionary rebuilds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.interp.memory import (
    Buffer,
    FlatSpace,
    GlobalMemory,
    PointerValue,
)
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    Barrier,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CompareOp,
    CondBranch,
    GetElementPtr,
    Load,
    PipeRead,
    PipeWrite,
    Return,
    Select,
    Store,
)
from repro.ir.types import AddressSpace, ArrayType, PointerType
from repro.ir.values import Argument, Constant, Register, Value


class ExecutionError(Exception):
    """Raised when a kernel performs an illegal operation at runtime."""


@dataclass(frozen=True)
class MemAccess:
    """One memory access in a work-item's trace."""

    kind: str          # 'read' | 'write'
    addr: int          # byte address in the flat address space
    nbytes: int
    buffer: str        # buffer (argument) name, or '__local'
    space: str = "global"   # 'global' | 'local'
    site: int = -1     # static instruction site id within the kernel


@dataclass
class NDRange:
    """Launch geometry.  Sizes are per dimension, up to 3 dimensions."""

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.global_size, int):
            self.global_size = (self.global_size,)
        if isinstance(self.local_size, int):
            self.local_size = (self.local_size,)
        self.global_size = tuple(self.global_size)
        self.local_size = tuple(self.local_size)
        if len(self.global_size) != len(self.local_size):
            raise ValueError("global/local dimensionality mismatch")
        for g, l in zip(self.global_size, self.local_size):
            if l <= 0 or g <= 0 or g % l != 0:
                raise ValueError(
                    f"global size {g} not a positive multiple of local {l}")

    @property
    def dims(self) -> int:
        return len(self.global_size)

    @property
    def num_work_items(self) -> int:
        return math.prod(self.global_size)

    @property
    def work_group_size(self) -> int:
        return math.prod(self.local_size)

    @property
    def num_groups(self) -> Tuple[int, ...]:
        return tuple(g // l for g, l in
                     zip(self.global_size, self.local_size))

    @property
    def num_work_groups(self) -> int:
        return int(np.prod(self.num_groups))

    def group_ids(self) -> Iterable[Tuple[int, ...]]:
        return np.ndindex(*reversed(self.num_groups))


@dataclass
class LaunchResult:
    """Everything recorded while executing (a subset of) an NDRange."""

    groups_executed: int = 0
    work_items_executed: int = 0
    #: block-name -> execution count, aggregated over profiled work-items
    block_counts: Dict[str, int] = field(default_factory=dict)
    #: per-work-item global access traces (one list per profiled item)
    traces: List[List[MemAccess]] = field(default_factory=list)
    #: name -> average trip count, derived from block counts
    trip_counts: Dict[str, float] = field(default_factory=dict)
    #: count of barriers executed by the first profiled work-item
    barriers_per_item: int = 0
    #: block name -> per-work-item execution counts (one entry per
    #: profiled item, launch order), filled only when a lane engine's
    #: ``run`` is asked for ``item_counts``: any prefix of the items
    #: then has exact ``block_counts`` of its own
    item_block_counts: Optional[Dict[str, np.ndarray]] = None


class _WorkItemState:
    """Execution state of one work-item (supports barrier suspension).

    Instances are pooled by the executor and reset between work-groups
    instead of reallocated."""

    __slots__ = ("block", "index", "regs", "private", "done",
                 "barrier_hits", "trace", "lid", "gid", "retry")

    def __init__(self, entry: BasicBlock) -> None:
        self.block = entry
        self.index = 0
        self.regs: Dict[int, object] = {}
        self.private = FlatSpace()
        self.done = False
        self.barrier_hits = 0
        self.trace: List[MemAccess] = []
        self.lid: Tuple[int, ...] = (0,)
        self.gid: Tuple[int, ...] = (0,)
        #: resuming a pipe-blocked instruction: suppress the duplicate
        #: block-entry count when the saved index points at offset 0
        self.retry = False

    def reset(self, entry: BasicBlock, lid: Tuple[int, ...],
              gid: Tuple[int, ...]) -> None:
        self.block = entry
        self.index = 0
        self.regs.clear()
        self.private.reset()
        self.done = False
        self.barrier_hits = 0
        self.trace = []
        self.lid = lid
        self.gid = gid
        self.retry = False


def _mask_int(value: int, bits: int, signed: bool) -> int:
    if bits <= 0 or bits >= 64:
        bits = 64
    value &= (1 << bits) - 1
    if signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_rem(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


_MATH_1 = {
    "sqrt": math.sqrt, "native_sqrt": math.sqrt,
    "rsqrt": lambda x: 1.0 / math.sqrt(x),
    "native_rsqrt": lambda x: 1.0 / math.sqrt(x),
    "fabs": abs, "floor": math.floor, "ceil": math.ceil,
    "round": lambda x: float(round(x)), "trunc": math.trunc,
    "exp": math.exp, "native_exp": math.exp, "exp2": lambda x: 2.0 ** x,
    "exp10": lambda x: 10.0 ** x,
    "log": math.log, "native_log": math.log, "log2": math.log2,
    "log10": math.log10,
    "sin": math.sin, "native_sin": math.sin,
    "cos": math.cos, "native_cos": math.cos, "tan": math.tan,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "native_recip": lambda x: 1.0 / x,
    "sign": lambda x: (x > 0) - (x < 0),
}

_MATH_2 = {
    "pow": math.pow, "native_powr": math.pow,
    "fmin": min, "fmax": max, "fmod": math.fmod,
    "atan2": math.atan2, "hypot": math.hypot,
    "native_divide": lambda a, b: a / b,
    "step": lambda edge, x: 0.0 if x < edge else 1.0,
}

_CMP_FNS = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

#: NDRange geometry builtins.
GEOMETRY_BUILTINS = frozenset({
    "get_local_id", "get_global_id", "get_group_id",
    "get_local_size", "get_global_size", "get_num_groups",
    "get_global_offset", "get_work_dim",
})

#: Floating-point builtins (results are float-valued).
FLOAT_BUILTINS = (frozenset(_MATH_1) | frozenset(_MATH_2)
                  | frozenset({"mad", "fma", "mix"}))

#: Integer-capable arithmetic builtins.
INT_CAPABLE_BUILTINS = frozenset(
    {"clamp", "min", "max", "abs", "mul24", "mad24"})

#: Atomics :meth:`KernelExecutor._exec_atomic` implements.
KNOWN_ATOMICS = frozenset({
    "atomic_add", "atomic_sub", "atomic_inc", "atomic_dec",
    "atomic_min", "atomic_max", "atomic_xchg", "atomic_cmpxchg",
})

#: Every builtin the executor can run.  Calls outside this set compile
#: to a runtime error; the static summary engine flags them as
#: ``unsupported-call`` without executing anything.
KNOWN_BUILTINS = (GEOMETRY_BUILTINS | FLOAT_BUILTINS
                  | INT_CAPABLE_BUILTINS | KNOWN_ATOMICS)


def finalize_trip_counts(fn, block_counts: Dict[str, int],
                         work_items: int) -> Dict[str, float]:
    """Derive average trip counts from block execution counts.

    For a loop with header H and body entry B: per loop entry the header
    runs (N+1) times and the body N, so ``N = count(B) / (count(H) -
    count(B))`` averaged over all entries (do-while loops have count(H)
    == count(B): the body and condition run the same number of times;
    then N is not derivable from these two alone, so we fall back to
    ``count(B) / items``, a per-item average).

    Shared by the profiling executor and the static trace synthesizer so
    both report identical trip counts for identical block counts.
    """
    trip_counts: Dict[str, float] = {}
    items = max(work_items, 1)
    for meta in getattr(fn, "loop_meta", []):
        header = block_counts.get(meta.header, 0)
        body = block_counts.get(meta.body_entry, 0)
        entries = header - body
        if entries > 0:
            trip_counts[meta.header] = body / entries
        elif body > 0:
            trip_counts[meta.header] = body / items
        else:
            trip_counts[meta.header] = 0.0
    return trip_counts


def _int_div(a, b):
    if b == 0:
        raise ExecutionError("integer division by zero")
    return _c_div(int(a), int(b))


def _int_rem(a, b):
    if b == 0:
        raise ExecutionError("integer remainder by zero")
    return _c_rem(int(a), int(b))


def _float_div(a, b):
    if b == 0.0:
        return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
    return float(a) / float(b)


def _bin_fn(opcode: str, t) -> Optional[Callable]:
    """Resolve a BinaryOp opcode into an (a, b) -> result callable
    (None when the opcode is unknown)."""
    if opcode == "add":
        return operator.add
    if opcode == "sub":
        return operator.sub
    if opcode == "mul":
        return operator.mul
    if opcode == "div":
        return _int_div
    if opcode == "rem":
        return _int_rem
    if opcode == "and":
        return lambda a, b: int(a) & int(b)
    if opcode == "or":
        return lambda a, b: int(a) | int(b)
    if opcode == "xor":
        return lambda a, b: int(a) ^ int(b)
    if opcode == "shl":
        return lambda a, b: int(a) << (int(b) & 63)
    if opcode == "shr":
        if t.is_signed:
            return lambda a, b: int(a) >> (int(b) & 63)
        bits = t.bits
        return lambda a, b: (int(a) & ((1 << bits) - 1)) >> (int(b) & 63)
    if opcode == "fadd":
        return lambda a, b: float(a) + float(b)
    if opcode == "fsub":
        return lambda a, b: float(a) - float(b)
    if opcode == "fmul":
        return lambda a, b: float(a) * float(b)
    if opcode == "fdiv":
        return _float_div
    if opcode == "frem":
        return lambda a, b: math.fmod(float(a), float(b))
    return None


#: compiled-op tags (first tuple element of each block-code entry)
(_OP_EXEC, _OP_BARRIER, _OP_RETURN, _OP_BR, _OP_CBR,
 _OP_PIPE_READ, _OP_PIPE_WRITE) = range(7)


class KernelExecutor:
    """Executes one kernel function over host buffers.

    Parameters
    ----------
    fn:
        The lowered kernel.
    buffers:
        Maps pointer-argument names to :class:`Buffer` objects.
    scalars:
        Maps value-argument names to Python numbers.
    """

    #: default per-work-item instruction budget (guards runaway loops)
    DEFAULT_MAX_STEPS = 5_000_000

    def __init__(self, fn: Function, buffers: Dict[str, Buffer],
                 scalars: Dict[str, object],
                 max_steps: Optional[int] = None,
                 channels: Optional[Dict[str, object]] = None) -> None:
        self.fn = fn
        self.max_steps = max_steps or self.DEFAULT_MAX_STEPS
        #: channel-name -> ChannelState for program co-execution; when
        #: None (standalone launch) pipe instructions are compile-time
        #: reachable but raise a clear error if actually executed
        self._channels = channels
        self.memory = GlobalMemory()
        self.buffers = buffers
        self.scalars = scalars
        self._block_by_name = {b.name: b for b in fn.blocks}
        for buf in buffers.values():
            self.memory.bind(buf)
        self._arg_values: Dict[int, object] = {}
        for arg in fn.args:
            if isinstance(arg.type, PointerType):
                if arg.name not in buffers:
                    raise ExecutionError(
                        f"no buffer supplied for pointer argument "
                        f"{arg.name!r}")
                self._arg_values[id(arg)] = PointerValue(
                    arg.type.space, buffers[arg.name].base)
            else:
                if arg.name not in scalars:
                    raise ExecutionError(
                        f"no value supplied for scalar argument "
                        f"{arg.name!r}")
                self._arg_values[id(arg)] = scalars[arg.name]
        self._addr_to_buffer: List[Tuple[int, int, str]] = [
            (b.base, b.base + max(b.nbytes, 1), b.name)
            for b in buffers.values()
        ]
        #: stable per-instruction site ids for trace attribution
        self._site_of: Dict[int, int] = {
            id(inst): i for i, inst in enumerate(fn.instructions())
        }
        # Per-group execution environment, rebound by _run_group; the
        # compiled closures read these through self so one compilation
        # serves every group.
        self._ndrange: Optional[NDRange] = None
        self._local_mem = FlatSpace()
        self._local_allocas: Dict[int, int] = {}
        self._state_pool: List[_WorkItemState] = []
        self._lid_cache: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        #: id(block) -> flat list of compiled (tag, ...) ops
        self._code: Dict[int, list] = {
            id(block): self._compile_block(block) for block in fn.blocks
        }

    # -- public API --------------------------------------------------------

    def run(self, ndrange: NDRange, max_groups: Optional[int] = None
            ) -> LaunchResult:
        """Execute the NDRange (optionally only the first *max_groups*
        work-groups, as the paper's profiler does) and collect traces."""
        result = LaunchResult()
        self._ndrange = ndrange
        # The state pool is sized to the largest work-group ever run;
        # trim it so a large launch doesn't pin its states for the
        # lifetime of an executor later driven at smaller sizes.
        del self._state_pool[ndrange.work_group_size:]
        group_list = list(ndrange.group_ids())
        if max_groups is not None:
            group_list = group_list[:max_groups]
        for rev_gid in group_list:
            gid = tuple(reversed(rev_gid))
            self._run_group(gid, ndrange, result)
            result.groups_executed += 1
        self._finalize_trip_counts(result)
        return result

    # -- execution ---------------------------------------------------------

    def _local_ids(self, ndrange: NDRange) -> List[Tuple[int, ...]]:
        lids = self._lid_cache.get(ndrange.local_size)
        if lids is None:
            lids = [tuple(reversed(rev_lid)) for rev_lid in
                    np.ndindex(*reversed(ndrange.local_size))]
            self._lid_cache[ndrange.local_size] = lids
        return lids

    def _run_group(self, group_id: Tuple[int, ...], ndrange: NDRange,
                   result: LaunchResult) -> None:
        self._local_mem = FlatSpace()
        self._local_allocas = {}
        entry = self.fn.entry
        lids = self._local_ids(ndrange)
        pool = self._state_pool
        while len(pool) < len(lids):
            pool.append(_WorkItemState(entry))
        states = pool[:len(lids)]
        for state, lid in zip(states, lids):
            state.reset(entry, lid, group_id)

        block_counts: Dict[str, int] = {}

        # Phase execution: run every item until barrier/finish, repeat.
        live = list(range(len(states)))
        guard = 0
        while live:
            guard += 1
            if guard > 10_000:
                raise ExecutionError("work-group failed to converge "
                                     "(runaway barrier loop?)")
            arrived: List[int] = []
            for i in live:
                reason = self._run_until_barrier(states[i], block_counts)
                if reason == "barrier":
                    arrived.append(i)
                elif reason != "done":
                    raise ExecutionError(
                        f"kernel {self.fn.name!r} blocked on a pipe "
                        f"({reason}) during a standalone launch; pipe "
                        f"kernels need FIFO co-execution — run the whole "
                        f"program through "
                        f"repro.interp.coexec.ProgramExecutor")
            live = arrived

        result.traces.extend(s.trace for s in states)
        for name, count in block_counts.items():
            result.block_counts[name] = (
                result.block_counts.get(name, 0) + count)
        result.barriers_per_item = max(
            result.barriers_per_item, states[0].barrier_hits)
        result.work_items_executed += len(states)

    def _run_until_barrier(self, state: _WorkItemState,
                           block_counts: Dict[str, int]) -> str:
        if state.done:
            return "done"
        code_of = self._code
        block = state.block
        ops = code_of[id(block)]
        index = state.index
        steps = 0
        max_steps = self.max_steps
        get_count = block_counts.get
        skip_count = state.retry
        state.retry = False
        while True:
            steps += 1
            if steps > max_steps:
                raise ExecutionError("work-item exceeded step limit "
                                     "(infinite loop?)")
            if index == 0:
                if skip_count:
                    skip_count = False
                else:
                    name = block.name
                    block_counts[name] = get_count(name, 0) + 1
            if index >= len(ops):
                raise ExecutionError(f"fell off the end of {block.name}")
            op = ops[index]
            index += 1
            tag = op[0]
            if tag == _OP_EXEC:
                op[1](state)
            elif tag == _OP_BR:
                block = op[1]
                ops = code_of[id(block)]
                index = 0
            elif tag == _OP_CBR:
                block = op[2] if op[1](state) else op[3]
                ops = code_of[id(block)]
                index = 0
            elif tag == _OP_BARRIER:
                state.barrier_hits += 1
                state.block = block
                state.index = index
                return "barrier"
            elif tag == _OP_PIPE_READ:
                chan = op[1]
                queue = chan.queue
                if queue:
                    state.regs[op[2]] = queue.popleft()
                    chan.reads += 1
                else:
                    chan.stalls_empty += 1
                    state.block = block
                    state.index = index - 1   # retry this read on resume
                    state.retry = True
                    return "pipe-empty"
            elif tag == _OP_PIPE_WRITE:
                chan = op[1]
                queue = chan.queue
                if len(queue) < chan.depth:
                    queue.append(op[2](state))
                    chan.writes += 1
                    if len(queue) > chan.max_occupancy:
                        chan.max_occupancy = len(queue)
                else:
                    chan.stalls_full += 1
                    state.block = block
                    state.index = index - 1   # retry this write on resume
                    state.retry = True
                    return "pipe-full"
            else:   # _OP_RETURN
                state.done = True
                return "done"

    # -- instruction compilation --------------------------------------------

    def _compile_block(self, block: BasicBlock) -> list:
        ops = []
        for inst in block.instructions:
            if isinstance(inst, Barrier):
                ops.append((_OP_BARRIER,))
            elif isinstance(inst, Return):
                ops.append((_OP_RETURN,))
            elif isinstance(inst, Branch):
                ops.append((_OP_BR, inst.target))
            elif isinstance(inst, CondBranch):
                ops.append((_OP_CBR, self._getter(inst.cond),
                            inst.then_block, inst.else_block))
            elif isinstance(inst, PipeRead):
                ops.append(self._compile_pipe(inst))
            elif isinstance(inst, PipeWrite):
                ops.append(self._compile_pipe(inst))
            else:
                ops.append((_OP_EXEC, self._compile(inst)))
        return ops

    def _compile_pipe(self, inst) -> tuple:
        name = inst.channel.name
        if self._channels is None:
            return (_OP_EXEC, self._raiser(
                f"kernel {self.fn.name!r} uses pipe {name!r}: pipe "
                f"kernels cannot run standalone — co-execute the whole "
                f"program with repro.interp.coexec.ProgramExecutor"))
        chan = self._channels.get(name)
        if chan is None:
            return (_OP_EXEC, self._raiser(
                f"no channel state supplied for pipe {name!r}"))
        if isinstance(inst, PipeRead):
            return (_OP_PIPE_READ, chan, id(inst.result))
        return (_OP_PIPE_WRITE, chan, self._getter(inst.value))

    def _getter(self, v: Value) -> Callable[[_WorkItemState], object]:
        """Pre-resolve one operand into a ``state -> value`` callable."""
        if isinstance(v, Constant):
            value = v.value
            return lambda state: value
        if isinstance(v, Argument):
            value = self._arg_values[id(v)]
            return lambda state: value
        if isinstance(v, Register):
            key = id(v)

            def get_register(state, _key=key, _v=v):
                try:
                    return state.regs[_key]
                except KeyError:
                    raise ExecutionError(
                        f"use of undefined register {_v}") from None
            return get_register
        raise ExecutionError(f"cannot evaluate {v!r}")

    @staticmethod
    def _raiser(message: str) -> Callable[[_WorkItemState], None]:
        """A compiled op that fails at execution time (not at
        compilation), matching the interpreter's old error timing."""
        def step(state):
            raise ExecutionError(message)
        return step

    def _compile(self, inst) -> Callable[[_WorkItemState], None]:
        if isinstance(inst, Alloca):
            return self._compile_alloca(inst)
        if isinstance(inst, BinaryOp):
            return self._compile_binop(inst)
        if isinstance(inst, CompareOp):
            return self._compile_compare(inst)
        if isinstance(inst, Cast):
            return self._compile_cast(inst)
        if isinstance(inst, Select):
            return self._compile_select(inst)
        if isinstance(inst, Load):
            return self._compile_load(inst)
        if isinstance(inst, Store):
            return self._compile_store(inst)
        if isinstance(inst, GetElementPtr):
            return self._compile_gep(inst)
        if isinstance(inst, Call):
            return self._compile_call(inst)
        return self._raiser(f"cannot execute {inst!r}")

    def _compile_alloca(self, inst: Alloca) -> Callable:
        nbytes = max(inst.allocated.bytes, 1)
        rid = id(inst.result)
        space = inst.space
        if space == AddressSpace.LOCAL:
            # Local allocas are shared: allocate once per work-group.
            key = id(inst)

            def step(state):
                allocas = self._local_allocas
                addr = allocas.get(key)
                if addr is None:
                    addr = self._local_mem.allocate(nbytes)
                    allocas[key] = addr
                state.regs[rid] = PointerValue(space, addr)
        else:
            def step(state):
                state.regs[rid] = PointerValue(
                    space, state.private.allocate(nbytes))
        return step

    def _compile_binop(self, inst: BinaryOp) -> Callable:
        get_a = self._getter(inst.lhs)
        get_b = self._getter(inst.rhs)
        fn = _bin_fn(inst.opcode, inst.type)
        if fn is None:
            return self._raiser(f"unknown binop {inst.opcode}")
        t = inst.type
        rid = id(inst.result)
        if t.is_integer:
            bits, signed = t.bits, t.is_signed

            def step(state):
                r = fn(get_a(state), get_b(state))
                if not isinstance(r, float):
                    r = _mask_int(int(r), bits, signed)
                state.regs[rid] = r
        else:
            def step(state):
                state.regs[rid] = fn(get_a(state), get_b(state))
        return step

    def _compile_compare(self, inst: CompareOp) -> Callable:
        fn = _CMP_FNS.get(inst.pred)
        if fn is None:
            return self._raiser(f"unknown compare {inst.pred!r}")
        get_a = self._getter(inst.lhs)
        get_b = self._getter(inst.rhs)
        rid = id(inst.result)

        def step(state):
            state.regs[rid] = 1 if fn(get_a(state), get_b(state)) else 0
        return step

    def _compile_cast(self, inst: Cast) -> Callable:
        get_v = self._getter(inst.value)
        rid = id(inst.result)
        kind = inst.kind
        t = inst.type
        if kind == "ptrcast":
            def step(state):
                state.regs[rid] = get_v(state)
        elif kind == "bitcast":
            # Same-width integer reinterpretation (int <-> uint):
            # re-mask under the target's signedness.  Bit-level float
            # punning is outside the supported subset.
            if t.is_integer:
                bits, signed = t.bits, t.is_signed

                def step(state):
                    v = get_v(state)
                    state.regs[rid] = (v if isinstance(v, float)
                                       else _mask_int(int(v), bits, signed))
            else:
                def step(state):
                    state.regs[rid] = get_v(state)
        elif kind in ("sitofp", "uitofp"):
            def step(state):
                state.regs[rid] = float(get_v(state))
        elif kind in ("fptosi", "fptoui", "trunc", "zext", "sext"):
            bits, signed = t.bits, t.is_signed

            def step(state):
                state.regs[rid] = _mask_int(int(get_v(state)), bits, signed)
        elif kind in ("fpext", "fptrunc"):
            if t.bits == 32:
                def step(state):
                    state.regs[rid] = float(np.float32(get_v(state)))
            else:
                def step(state):
                    state.regs[rid] = float(get_v(state))
        else:
            return self._raiser(f"unknown cast {kind}")
        return step

    def _compile_select(self, inst: Select) -> Callable:
        get_c, get_a, get_b = (self._getter(o) for o in inst.operands)
        rid = id(inst.result)

        def step(state):
            cond, a, b = get_c(state), get_a(state), get_b(state)
            state.regs[rid] = a if cond else b
        return step

    def _compile_gep(self, inst: GetElementPtr) -> Callable:
        get_base = self._getter(inst.base)
        get_index = self._getter(inst.index)
        elem = inst.base.type.pointee  # type: ignore[union-attr]
        if isinstance(elem, ArrayType):
            elem = elem.element
        scale = max(elem.bytes, 1)
        rid = id(inst.result)

        def step(state):
            state.regs[rid] = get_base(state).offset(
                int(get_index(state)) * scale)
        return step

    def _buffer_name(self, addr: int) -> str:
        for lo, hi, name in self._addr_to_buffer:
            if lo <= addr < hi:
                return name
        return "?"

    def _compile_load(self, inst: Load) -> Callable:
        get_ptr = self._getter(inst.pointer)
        nbytes = max(inst.type.bytes, 1)
        site = self._site_of.get(id(inst), -1)
        rid = id(inst.result)
        memory = self.memory

        def step(state):
            ptr = get_ptr(state)
            space = ptr.space
            if space == AddressSpace.PRIVATE:
                state.regs[rid] = state.private.load(ptr.addr)
            elif space == AddressSpace.LOCAL \
                    or space == AddressSpace.CONSTANT:
                state.trace.append(MemAccess(
                    "read", ptr.addr, nbytes, "__local",
                    space="local", site=site))
                state.regs[rid] = self._local_mem.load(ptr.addr, default=0)
            else:
                value = memory.load(ptr.addr, nbytes)
                state.trace.append(MemAccess(
                    "read", ptr.addr, nbytes,
                    self._buffer_name(ptr.addr), site=site))
                state.regs[rid] = value
        return step

    def _compile_store(self, inst: Store) -> Callable:
        get_ptr = self._getter(inst.pointer)
        get_value = self._getter(inst.value)
        nbytes = max(inst.value.type.bytes, 1)
        site = self._site_of.get(id(inst), -1)
        memory = self.memory

        def step(state):
            ptr = get_ptr(state)
            value = get_value(state)
            space = ptr.space
            if space == AddressSpace.PRIVATE:
                state.private.store(ptr.addr, value)
            elif space == AddressSpace.LOCAL \
                    or space == AddressSpace.CONSTANT:
                state.trace.append(MemAccess(
                    "write", ptr.addr, nbytes, "__local",
                    space="local", site=site))
                self._local_mem.store(ptr.addr, value)
            else:
                memory.store(ptr.addr, nbytes, value)
                state.trace.append(MemAccess(
                    "write", ptr.addr, nbytes,
                    self._buffer_name(ptr.addr), site=site))
        return step

    def _compile_call(self, inst: Call) -> Callable:
        name = inst.callee
        getters = [self._getter(a) for a in inst.operands]
        value_fn = self._compile_builtin(name, inst, getters)
        if value_fn is None:
            return self._raiser(f"unknown builtin {name!r}")
        if inst.result is None:
            def step(state):
                value_fn(state)
        else:
            rid = id(inst.result)

            def step(state):
                state.regs[rid] = value_fn(state)
        return step

    def _compile_builtin(self, name: str, inst: Call,
                         getters: List[Callable]) -> Optional[Callable]:
        """Resolve one builtin call into a ``state -> value`` closure
        (None when the builtin is unknown)."""
        if name == "get_local_id":
            get_d = getters[0]

            def value_fn(state):
                d = int(get_d(state))
                lid = state.lid
                return lid[d] if d < len(lid) else 0
        elif name == "get_group_id":
            get_d = getters[0]

            def value_fn(state):
                d = int(get_d(state))
                gid = state.gid
                return gid[d] if d < len(gid) else 0
        elif name == "get_global_id":
            get_d = getters[0]

            def value_fn(state):
                d = int(get_d(state))
                nd = self._ndrange
                if d >= nd.dims:
                    return 0
                return state.gid[d] * nd.local_size[d] + state.lid[d]
        elif name == "get_global_size":
            get_d = getters[0]

            def value_fn(state):
                d = int(get_d(state))
                nd = self._ndrange
                return nd.global_size[d] if d < nd.dims else 1
        elif name == "get_local_size":
            get_d = getters[0]

            def value_fn(state):
                d = int(get_d(state))
                nd = self._ndrange
                return nd.local_size[d] if d < nd.dims else 1
        elif name == "get_num_groups":
            get_d = getters[0]

            def value_fn(state):
                d = int(get_d(state))
                nd = self._ndrange
                return nd.num_groups[d] if d < nd.dims else 1
        elif name == "get_global_offset":
            def value_fn(state):
                return 0
        elif name == "get_work_dim":
            def value_fn(state):
                return self._ndrange.dims
        elif name in _MATH_1:
            fn = _MATH_1[name]
            get_x = getters[0]

            def value_fn(state):
                return fn(float(get_x(state)))
        elif name in _MATH_2:
            fn = _MATH_2[name]
            get_x, get_y = getters[0], getters[1]

            def value_fn(state):
                return fn(float(get_x(state)), float(get_y(state)))
        elif name in ("mad", "fma"):
            get_x, get_y, get_z = getters

            def value_fn(state):
                return (float(get_x(state)) * float(get_y(state))
                        + float(get_z(state)))
        elif name == "clamp":
            get_x, get_lo, get_hi = getters

            def value_fn(state):
                return min(max(get_x(state), get_lo(state)),
                           get_hi(state))
        elif name == "mix":
            get_x, get_y, get_t = getters

            def value_fn(state):
                x = get_x(state)
                return x + (get_y(state) - x) * get_t(state)
        elif name == "min":
            get_x, get_y = getters

            def value_fn(state):
                return min(get_x(state), get_y(state))
        elif name == "max":
            get_x, get_y = getters

            def value_fn(state):
                return max(get_x(state), get_y(state))
        elif name == "abs":
            get_x = getters[0]

            def value_fn(state):
                return abs(get_x(state))
        elif name == "mul24":
            get_x, get_y = getters

            def value_fn(state):
                return _mask_int(int(get_x(state)) * int(get_y(state)),
                                 32, True)
        elif name == "mad24":
            get_x, get_y, get_z = getters

            def value_fn(state):
                return _mask_int(
                    int(get_x(state)) * int(get_y(state))
                    + int(get_z(state)), 32, True)
        elif name.startswith("atomic_"):
            def value_fn(state):
                args = [g(state) for g in getters]
                return self._exec_atomic(name, inst, args, state)
        else:
            return None
        return value_fn

    def _exec_atomic(self, name: str, inst: Call, args,
                     state: _WorkItemState):
        ptr: PointerValue = args[0]
        nbytes = 4
        site = self._site_of.get(id(inst), -1)
        trace = state.trace
        if ptr.space == AddressSpace.LOCAL:
            old = self._local_mem.load(ptr.addr, default=0)
        else:
            old = self.memory.load(ptr.addr, nbytes)
            trace.append(MemAccess("read", ptr.addr, nbytes,
                                   self._buffer_name(ptr.addr), site=site))
        if name == "atomic_add":
            new = old + args[1]
        elif name == "atomic_sub":
            new = old - args[1]
        elif name == "atomic_inc":
            new = old + 1
        elif name == "atomic_dec":
            new = old - 1
        elif name == "atomic_min":
            new = min(old, args[1])
        elif name == "atomic_max":
            new = max(old, args[1])
        elif name == "atomic_xchg":
            new = args[1]
        elif name == "atomic_cmpxchg":
            new = args[2] if old == args[1] else old
        else:
            raise ExecutionError(f"unknown atomic {name!r}")
        if ptr.space == AddressSpace.LOCAL:
            self._local_mem.store(ptr.addr, new)
        else:
            self.memory.store(ptr.addr, nbytes, new)
            trace.append(MemAccess("write", ptr.addr, nbytes,
                                   self._buffer_name(ptr.addr), site=site))
        return old

    # -- trip counts --------------------------------------------------------

    def _finalize_trip_counts(self, result: LaunchResult) -> None:
        result.trip_counts.update(finalize_trip_counts(
            self.fn, result.block_counts, result.work_items_executed))
