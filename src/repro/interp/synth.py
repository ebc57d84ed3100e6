"""Static trace synthesizer: analytic per-work-group memory traces.

When the access-summary engine (``repro.lint.summary``) proves a kernel
``STATIC`` — every branch condition, traced address, and callee is a
pure function of launch geometry and scalar arguments — the memory
trace can be *synthesized* without interpreting the kernel: no buffer
contents are ever read, float arithmetic is never evaluated, and whole
work-groups execute as vectorized numpy operations over lane arrays.

The synthesizer replicates the observable outputs of
:class:`~repro.interp.executor.KernelExecutor` exactly:

- per-work-item trace events, in per-lane program order (emitted as
  :class:`~repro.analysis.packed.PackedTraces`);
- ``block_counts`` (one count per fresh block entry, aggregated over
  lanes), ``trip_counts`` (shared ``finalize_trip_counts``),
  ``barriers_per_item``, and the group/item tallies of
  :class:`~repro.interp.executor.LaunchResult`.

Execution model: all profiled work-groups run together, one lane per
(group, work-item) pair.  Per-lane "program counters" hold the index
of the lane's current block in a fixed block ordering; each step picks
the minimum index, executes that block for exactly the lanes parked on
it (compact gather/scatter on full-lane ``int64`` register arrays),
and lets the terminator advance the lanes.  Divergent lanes simply
execute blocks in separate steps — per-lane traces and block counts
are schedule-independent, and groups never share private or register
state, so merging them is unobservable (each group allocates its
local-memory allocas from offset 64, exactly as the executor's
per-group allocator does).

Barriers need no phase machinery here: without memory values they only
increment the per-lane barrier counter (and reset the per-phase step
budget), which is all the executor's outputs observe.

Anything outside the synthesizable subset — out-of-bounds or misaligned
global accesses, division by zero, uninitialised private reads, step or
phase budget overruns, unexpected IR — raises :class:`SynthesisError`;
the caller falls back to interpretation, which then reproduces the
executor's own error behavior.
"""

from __future__ import annotations

import operator as _op
from typing import Callable, Dict, Optional

import numpy as np

from repro.interp.executor import (
    GEOMETRY_BUILTINS,
    INT_CAPABLE_BUILTINS,
    KNOWN_ATOMICS,
    LaunchResult,
    NDRange,
    finalize_trip_counts,
)
from repro.interp.lanes import (
    _CONST,
    _LOC,
    _PK_GLOBAL,
    _PK_LOCAL,
    _PK_READ,
    _PK_WRITE,
    _PRIV,
    LaneEngine,
    _i64,
    _is_u64,
    _mask_val,
    _u64,
)
from repro.interp.memory import Buffer
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CompareOp,
    GetElementPtr,
    Load,
    Select,
    Store,
)
from repro.ir.types import AddressSpace, PointerType
from repro.ir.values import Argument, Constant, Register, Value
from repro.lint.summary.classify import classify_function


class SynthesisError(Exception):
    """The kernel (or this launch) left the synthesizable subset."""


class TraceSynthesizer(LaneEngine):
    """Synthesizes launch artefacts for one STATIC kernel.

    Parameters mirror :class:`KernelExecutor`: the lowered function,
    host buffers by pointer-argument name, scalar arguments by name.
    Construction compiles the kernel; construction or :meth:`run` raise
    :class:`SynthesisError` whenever exact replication of the
    interpreter cannot be guaranteed.
    """

    error_type = SynthesisError

    def __init__(self, fn: Function, buffers: Dict[str, Buffer],
                 scalars: Dict[str, object],
                 max_steps: Optional[int] = None) -> None:
        self._cls = classify_function(fn)
        self.regs: Dict[int, np.ndarray] = {}
        super().__init__(fn, buffers, scalars, max_steps)

    # -- run ---------------------------------------------------------------

    def run(self, ndrange: NDRange, max_groups: Optional[int] = None,
            item_counts: bool = False) -> LaunchResult:
        """Synthesize the first *max_groups* work-groups (all when
        None).  *item_counts* also fills
        :attr:`LaunchResult.item_block_counts`."""
        from repro.analysis.packed import PackedTraces

        result = LaunchResult()
        self._nd = ndrange
        self._count_items = item_counts
        wg = ndrange.work_group_size
        gids = self._group_ids(ndrange, max_groups)
        n_groups = len(gids)
        result.groups_executed = n_groups
        result.work_items_executed = n_groups * wg
        if n_groups == 0:
            result.traces = PackedTraces([], wg)
            return result
        # One lane per (group, work-item): groups share no state, so
        # running them merged amortizes every vectorized op over the
        # whole profile instead of one work-group.
        self._bind_lanes(ndrange, gids)
        counts, group_hits, lane_counts = self._run_lanes()
        result.block_counts.update(counts)
        if lane_counts is not None:
            result.item_block_counts = self._item_counts(lane_counts,
                                                         counts)
        result.barriers_per_item = max(group_hits)
        result.traces = PackedTraces(
            self._finish_groups(self._sorted_events(), n_groups), wg)
        result.trip_counts.update(finalize_trip_counts(
            self.fn, result.block_counts, result.work_items_executed))
        return result

    def _run_lanes(self):
        n = self._nlanes
        self.regs = {}
        self.rspace = {}
        self._priv = {}
        self._pslots = {}
        self._priv_next = np.full(n, 64, np.int64)
        self._events = []
        barrier_hits = np.zeros(n, np.int64)
        steps = np.zeros(n, np.int64)
        lane_block = np.zeros(n, np.int64)
        done = self._done
        counts: Dict[str, int] = {}
        lane_counts = self._lane_counters()
        max_steps = self.max_steps

        while True:
            cur = int(lane_block.min())
            if cur == done:
                break
            idx = np.flatnonzero(lane_block == cur)
            code = self._code[cur]
            counts[code.name] = counts.get(code.name, 0) + len(idx)
            if lane_counts is not None:
                lane_counts[cur, idx] += 1
            for seg in code.segments:
                for op in seg.ops:
                    op(idx)
                if seg.barrier:
                    barrier_hits[idx] += 1
                    steps[idx] = 0
                    if int(barrier_hits[idx].max()) > self.MAX_PHASES:
                        raise SynthesisError("barrier phase budget "
                                             "exceeded")
                else:
                    steps[idx] += seg.cost
                    if int(steps[idx].max()) > max_steps:
                        raise SynthesisError("step budget exceeded")
            term = code.term
            if term[0] == "ret":
                lane_block[idx] = done
            elif term[0] == "br":
                lane_block[idx] = term[1]
            else:  # cbr
                c = term[1](idx)
                lane_block[idx] = np.where(
                    np.asarray(c) != 0, term[2], term[3])
        # Lane 0 of each group mirrors the executor's per-group count.
        return (counts, [int(h) for h in barrier_hits[::self._wg]],
                lane_counts)

    # -- operand access ----------------------------------------------------

    def _getter(self, v: Value) -> Callable:
        v = self._resolve(v)
        if isinstance(v, Constant):
            if v.type.is_float:
                raise SynthesisError("float constant requested")
            value = int(v.value)
            return lambda idx: value
        if isinstance(v, Argument):
            if id(v) in self._arg_addr:
                base = self._arg_addr[id(v)][0]
                return lambda idx: base
            if not v.type.is_float:
                value = self._arg_scalar[id(v)]
                return lambda idx: value
            raise SynthesisError(f"argument {v!r} not synthesizable")
        if isinstance(v, Register):
            rid = id(v)

            def get_register(idx):
                arr = self.regs.get(rid)
                if arr is None:
                    raise SynthesisError("use of undefined register")
                return arr[idx]
            return get_register
        raise SynthesisError(f"cannot evaluate {v!r}")

    def _setter(self, result: Register) -> Callable:
        rid = id(result)
        wg_of = self

        def set_register(idx, val):
            arr = wg_of.regs.get(rid)
            if arr is None:
                arr = np.zeros(wg_of._nlanes, np.int64)
                wg_of.regs[rid] = arr
            arr[idx] = val
        return set_register

    # -- memory helpers ----------------------------------------------------

    def _priv_load_at(self, addr, lanes, set_value, rid_space,
                      is_float) -> None:
        ent = self._priv.get(addr)
        if ent is None or not bool(ent[2][lanes].all()):
            raise SynthesisError("read of uninitialised private memory")
        set_value(lanes, ent[0][lanes])
        if rid_space is not None:
            if ent[3] is None:
                raise SynthesisError("non-pointer value loaded as pointer")
            self._set_space(rid_space, lanes, ent[3][lanes])

    # -- compilation -------------------------------------------------------

    def _cond_getter(self, cond: Value) -> Callable:
        if self._cls.value_reason(cond) is not None:
            raise SynthesisError("data-dependent branch")
        return self._getter(cond)

    def _compile(self, inst) -> Optional[Callable]:
        if id(inst) in self._skip:
            return None
        if isinstance(inst, Alloca):
            return self._c_alloca(inst)
        if isinstance(inst, Load):
            return self._c_load(inst)
        if isinstance(inst, Store):
            return self._c_store(inst)
        if isinstance(inst, Call):
            return self._c_call(inst)
        # Pure compute: compile only when the result is deterministic
        # (skipped results are float/memory values no compiled op and
        # no trace event ever reads).
        det = (inst.result is not None
               and self._cls.value_reason(inst.result) is None)
        if not det:
            if isinstance(inst, (BinaryOp, CompareOp, Cast, Select,
                                 GetElementPtr)):
                return None
            raise SynthesisError(f"cannot synthesize {inst!r}")
        if isinstance(inst, BinaryOp):
            return self._c_binop(inst)
        if isinstance(inst, CompareOp):
            return self._c_compare(inst)
        if isinstance(inst, Cast):
            return self._c_cast(inst)
        if isinstance(inst, Select):
            return self._c_select(inst)
        if isinstance(inst, GetElementPtr):
            return self._c_gep(inst)
        raise SynthesisError(f"cannot synthesize {inst!r}")

    def _c_binop(self, inst: BinaryOp) -> Callable:
        ga, gb = self._getter(inst.lhs), self._getter(inst.rhs)
        set_ = self._setter(inst.result)
        t = inst.type
        if not t.is_integer:
            raise SynthesisError("non-integer binop judged deterministic")
        bits, signed = t.bits, t.is_signed
        opcode = inst.opcode
        u64 = _is_u64(t)

        if opcode in ("add", "sub", "mul", "and", "or", "xor"):
            fn = {"add": _op.add, "sub": _op.sub, "mul": _op.mul,
                  "and": _op.and_, "or": _op.or_,
                  "xor": _op.xor}[opcode]

            def op(idx):
                set_(idx, _mask_val(fn(ga(idx), gb(idx)), bits, signed))
        elif opcode in ("div", "rem"):
            want_rem = opcode == "rem"

            def op(idx):
                a, b = ga(idx), gb(idx)
                if bool(np.any(np.asarray(b) == 0)):
                    raise SynthesisError("integer division by zero")
                if u64:
                    au, bu = _u64(np.asarray(a)), _u64(np.asarray(b))
                    q = au // bu
                    r = _i64(au - q * bu) if want_rem else _i64(q)
                else:
                    aa, bb = np.asarray(a), np.asarray(b)
                    q = np.abs(aa) // np.abs(bb)
                    q = np.where((aa >= 0) == (bb >= 0), q, -q)
                    r = aa - q * bb if want_rem else q
                set_(idx, _mask_val(r, bits, signed))
        elif opcode == "shl":
            def op(idx):
                r = np.asarray(ga(idx)) << (np.asarray(gb(idx)) & 63)
                set_(idx, _mask_val(r, bits, signed))
        elif opcode == "shr":
            if signed:
                def op(idx):
                    r = np.asarray(ga(idx)) >> (np.asarray(gb(idx)) & 63)
                    set_(idx, _mask_val(r, bits, signed))
            else:
                vbits = bits if 0 < bits < 64 else 64

                def op(idx):
                    a = np.asarray(ga(idx))
                    sh = np.asarray(gb(idx)) & 63
                    if vbits >= 64:
                        r = _i64(_u64(a) >> _u64(sh))
                    else:
                        r = (a & ((1 << vbits) - 1)) >> sh
                    set_(idx, _mask_val(r, bits, signed))
        else:
            raise SynthesisError(f"unknown binop {inst.opcode!r}")
        return op

    def _c_cast(self, inst: Cast) -> Callable:
        get_v = self._getter(inst.value)
        set_ = self._setter(inst.result)
        rid = id(inst.result)
        kind = inst.kind
        t = inst.type
        is_ptr = isinstance(t, PointerType)
        if kind in ("ptrcast", "bitcast") and (is_ptr or not t.is_integer):
            gsp = (self._space_getter(inst.value)
                   if isinstance(inst.value.type, PointerType) else None)

            def op(idx):
                set_(idx, get_v(idx))
                if gsp is not None:
                    self._set_space(rid, idx, gsp(idx))
        elif kind in ("bitcast", "trunc", "zext", "sext"):
            bits, signed = t.bits, t.is_signed

            def op(idx):
                set_(idx, _mask_val(np.asarray(get_v(idx)), bits, signed))
        else:
            # sitofp/fptosi/fpext/... produce or consume floats; their
            # results are never deterministic, so reaching here means a
            # classifier/compiler disagreement.
            raise SynthesisError(f"cannot synthesize cast {kind!r}")
        return op

    def _c_select(self, inst: Select) -> Callable:
        gc, ga, gb = (self._getter(o) for o in inst.operands)
        set_ = self._setter(inst.result)
        rid = id(inst.result)
        if isinstance(inst.operands[1].type, PointerType):
            sa = self._space_getter(inst.operands[1])
            sb = self._space_getter(inst.operands[2])
        else:
            sa = sb = None

        def op(idx):
            c = np.asarray(gc(idx)) != 0
            set_(idx, np.where(c, ga(idx), gb(idx)))
            if sa is not None:
                a, b = sa(idx), sb(idx)
                if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) \
                        or a != b:
                    self._set_space(rid, idx, np.where(c, a, b))
                else:
                    self._set_space(rid, idx, a)
        return op

    def _c_load(self, inst: Load) -> Optional[Callable]:
        static_space = inst.pointer.type.space \
            if isinstance(inst.pointer.type, PointerType) else None
        det = (inst.result is not None
               and self._cls.value_reason(inst.result) is None)
        if static_space == AddressSpace.PRIVATE and not det:
            # Untraced and its value is never needed downstream.
            return None
        if isinstance(inst.pointer, Register) \
                and id(inst.pointer) in self._promoted:
            return self._c_promoted_load(inst)
        gp = self._getter(inst.pointer)
        gsp = self._space_getter(inst.pointer)
        nbytes = max(inst.type.bytes, 1)
        site = self._site_of.get(id(inst), -1)
        set_ = self._setter(inst.result) if det else None
        rid_space = (id(inst.result)
                     if det and isinstance(inst.type, PointerType)
                     else None)

        def op(idx):
            addr = gp(idx)
            for code, lanes, a in self._split(idx, gsp(idx), addr):
                if code == _PRIV:
                    if set_ is not None:
                        self._priv_load(lanes, a, set_, rid_space,
                                        False)
                elif code in (_LOC, _CONST):
                    self._emit(site, _PK_READ, nbytes, _PK_LOCAL,
                               self._local_buf_index, lanes, a)
                else:
                    if set_ is not None:
                        raise SynthesisError(
                            "deterministic load from global memory")
                    bi, aa = self._global_locate(a, nbytes)
                    self._emit(site, _PK_READ, nbytes, _PK_GLOBAL,
                               bi, lanes, aa)
        return op

    def _c_store(self, inst: Store) -> Optional[Callable]:
        value_det = self._cls.value_reason(inst.value) is None
        static_space = inst.pointer.type.space \
            if isinstance(inst.pointer.type, PointerType) else None
        if static_space == AddressSpace.PRIVATE and not value_det:
            return None
        if isinstance(inst.pointer, Register) \
                and id(inst.pointer) in self._promoted:
            return self._c_promoted_store(inst)
        gp = self._getter(inst.pointer)
        gsp = self._space_getter(inst.pointer)
        nbytes = max(inst.value.type.bytes, 1)
        site = self._site_of.get(id(inst), -1)
        gv = self._getter(inst.value) if value_det else None
        vsp = (self._space_getter(inst.value)
               if value_det and isinstance(inst.value.type, PointerType)
               else None)

        def op(idx):
            addr = gp(idx)
            vals = gv(idx) if gv is not None else None
            for code, lanes, a in self._split(idx, gsp(idx), addr):
                if code == _PRIV:
                    if gv is None:
                        # Untraced, and the slot is demoted by this
                        # very store: no deterministic load reads it.
                        continue
                    sel = None
                    if isinstance(vals, np.ndarray) and len(lanes) != len(idx):
                        sel = np.isin(idx, lanes)
                    v = vals[sel] if sel is not None else vals
                    s = vsp(idx) if vsp is not None else None
                    if sel is not None and isinstance(s, np.ndarray):
                        s = s[sel]
                    self._priv_store(lanes, a, v, s, False)
                elif code in (_LOC, _CONST):
                    self._emit(site, _PK_WRITE, nbytes, _PK_LOCAL,
                               self._local_buf_index, lanes, a)
                else:
                    bi, aa = self._global_locate(a, nbytes)
                    self._emit(site, _PK_WRITE, nbytes, _PK_GLOBAL,
                               bi, lanes, aa)
        return op

    def _c_promoted_load(self, inst: Load) -> Callable:
        """Load from a promoted scalar slot: per-slot value/init arrays,
        no address computation, no space dispatch (semantics match
        ``_priv_load_at`` exactly)."""
        sid = id(inst.pointer)
        set_ = self._setter(inst.result)
        rid_space = (id(inst.result)
                     if isinstance(inst.type, PointerType) else None)

        def op(idx):
            ent = self._pslots.get(sid)
            if ent is None or not (ent[4] or bool(ent[2][idx].all())):
                raise SynthesisError("read of uninitialised private "
                                     "memory")
            set_(idx, ent[0][idx])
            if rid_space is not None:
                if ent[3] is None:
                    raise SynthesisError(
                        "non-pointer value loaded as pointer")
                self._set_space(rid_space, idx, ent[3][idx])
        return op

    def _c_call(self, inst: Call) -> Optional[Callable]:
        name = inst.callee
        if name in KNOWN_ATOMICS:
            return self._c_atomic(inst)
        det = (inst.result is not None
               and self._cls.value_reason(inst.result) is None)
        if not det:
            if name in GEOMETRY_BUILTINS or name in INT_CAPABLE_BUILTINS:
                return None
            from repro.interp.executor import FLOAT_BUILTINS
            if name in FLOAT_BUILTINS:
                return None  # float result: never needed
            raise SynthesisError(f"unknown builtin {name!r}")
        set_ = self._setter(inst.result)
        if name in GEOMETRY_BUILTINS:
            d = 0
            if inst.operands:
                if not isinstance(inst.operands[0], Constant):
                    raise SynthesisError("non-constant geometry dim")
                d = int(inst.operands[0].value)
            return self._c_geometry(name, d, set_)
        if name in INT_CAPABLE_BUILTINS:
            getters = [self._getter(a) for a in inst.operands]
            return self._c_int_builtin(name, getters, set_)
        raise SynthesisError(f"unknown builtin {name!r}")

    def _c_int_builtin(self, name: str, getters, set_) -> Callable:
        if name == "min":
            ga, gb = getters

            def op(idx):
                set_(idx, np.minimum(ga(idx), gb(idx)))
        elif name == "max":
            ga, gb = getters

            def op(idx):
                set_(idx, np.maximum(ga(idx), gb(idx)))
        elif name == "abs":
            ga = getters[0]

            def op(idx):
                set_(idx, np.abs(ga(idx)))
        elif name == "clamp":
            gx, glo, ghi = getters

            def op(idx):
                set_(idx, np.minimum(np.maximum(gx(idx), glo(idx)),
                                     ghi(idx)))
        elif name == "mul24":
            ga, gb = getters

            def op(idx):
                set_(idx, _mask_val(np.asarray(ga(idx))
                                    * np.asarray(gb(idx)), 32, True))
        elif name == "mad24":
            ga, gb, gc = getters

            def op(idx):
                set_(idx, _mask_val(np.asarray(ga(idx))
                                    * np.asarray(gb(idx))
                                    + np.asarray(gc(idx)), 32, True))
        else:
            raise SynthesisError(f"unknown int builtin {name!r}")
        return op

    def _c_atomic(self, inst: Call) -> Optional[Callable]:
        if not inst.operands:
            raise SynthesisError("atomic with no operands")
        ptr = inst.operands[0]
        if isinstance(ptr.type, PointerType) \
                and ptr.type.space == AddressSpace.LOCAL:
            # Local atomics touch local memory only (untraced, and no
            # deterministic value ever reads local contents).
            return None
        gp = self._getter(ptr)
        site = self._site_of.get(id(inst), -1)
        nbytes = 4

        def op(idx):
            a = gp(idx)
            bi, aa = self._global_locate(a, nbytes)
            self._emit(site, _PK_READ, nbytes, _PK_GLOBAL, bi, idx, aa)
            self._emit(site, _PK_WRITE, nbytes, _PK_GLOBAL, bi, idx, aa)
        return op
