"""Determinism classifier: which IR values are pure functions of the
launch geometry and the scalar kernel arguments?

A value is **deterministic** (DET) when the trace synthesizer can
compute it without ever reading memory contents: constants, integer
arguments, work-item ids, and any integer/pointer arithmetic over
those.  Everything touched by a float, a global/local/constant load, an
atomic result, or an unmodelled call is **unknown** — and the
classifier remembers the *leaf* cause ("float", "global-load",
"call:foo"...) so IRREGULAR verdicts stay explainable.

The frontend lowers at -O0 (every variable is a private stack slot), so
determinism flows through slots: a slot is DET iff **every** store into
it writes a DET value at a DET offset.  Loads from a slot read the
slot's current judgement, which breaks `i = i + 1` style cycles; a
whole-function fixpoint (optimistic, monotonically decreasing) then
converges in at most #slots+1 passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function, function_memo
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CompareOp,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from repro.ir.types import AddressSpace, PointerType
from repro.ir.values import Argument, Constant, Register, Value
from repro.ir.visitor import Dispatcher

#: NDRange geometry builtins: per-lane but launch-determined.
ID_BUILTINS = frozenset({
    "get_local_id", "get_global_id", "get_group_id",
    "get_local_size", "get_global_size", "get_num_groups",
    "get_global_offset", "get_work_dim",
})

#: Integer builtins that are pure functions of their arguments.
INT_BUILTINS = frozenset({"min", "max", "abs", "clamp", "mul24", "mad24"})

_SPACE_REASON = {
    AddressSpace.GLOBAL: "global-load",
    AddressSpace.LOCAL: "local-load",
    AddressSpace.CONSTANT: "constant-load",
}


def _float_builtins() -> frozenset:
    # The executor owns the authoritative builtin tables; import lazily
    # to keep module import order free of cycles.
    from repro.interp.executor import FLOAT_BUILTINS
    return FLOAT_BUILTINS


class Classifier(Dispatcher):
    """Per-value determinism judgements for one lowered kernel.

    ``value_reason(v)`` returns ``None`` when *v* is deterministic, else
    the leaf reason it is not.  ``pointer_root(p)`` resolves a pointer
    to its underlying buffer argument or alloca, following private
    pointer slots (``float *p = a + off; ...``), with loop-carried
    self-references (``p += stride``) unified away.
    """

    visit_prefix = "_det_"

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.defs: Dict[int, Instruction] = {}
        self.allocas: Dict[int, Alloca] = {}
        self.slot_stores: Dict[int, List[Store]] = {}
        for inst in fn.instructions():
            if inst.result is not None:
                self.defs[id(inst.result)] = inst
            if isinstance(inst, Alloca):
                self.allocas[id(inst.result)] = inst
                self.slot_stores[id(inst.result)] = []
        for inst in fn.instructions():
            if isinstance(inst, Store):
                root = self._strip_geps(inst.pointer)
                if id(root) in self.allocas:
                    self.slot_stores[id(root)].append(inst)
        #: slot id -> None (DET) or the leaf reason it is not
        self.slot_reason: Dict[int, Optional[str]] = {
            sid: None for sid in self.allocas}
        self._memo: Dict[int, Optional[str]] = {}
        self._fixpoint()

    # -- fixpoint --------------------------------------------------------

    def _fixpoint(self) -> None:
        # Optimistic start (every slot DET); each pass demotes slots
        # whose stores are not provably DET under the current
        # assumptions.  Demotion is monotone, so at most #slots + 1
        # passes run; the last pass makes no change, which means the
        # memo it leaves behind is consistent with the final judgement.
        changed = True
        while changed:
            changed = False
            self._memo.clear()
            for sid, stores in self.slot_stores.items():
                if self.slot_reason[sid] is not None:
                    continue
                reason = None
                for st in stores:
                    reason = (self.value_reason(st.value)
                              or self._offset_reason(st.pointer))
                    if reason is not None:
                        break
                if reason is not None:
                    self.slot_reason[sid] = reason
                    changed = True

    # -- public queries --------------------------------------------------

    def value_reason(self, value: Value) -> Optional[str]:
        """``None`` iff *value* is deterministic; else the leaf cause."""
        if isinstance(value, Constant):
            return "float" if value.type.is_float else None
        if isinstance(value, Argument):
            return "float" if value.type.is_float else None
        if not isinstance(value, Register):
            return f"op:{type(value).__name__}"
        key = id(value)
        if key in self._memo:
            return self._memo[key]
        if value.type.is_vector:
            reason: Optional[str] = "vector-op"
        elif value.type.is_float:
            reason = "float"
        else:
            inst = self.defs.get(key)
            reason = (self.visit(inst) if inst is not None
                      else "undefined-register")
        self._memo[key] = reason
        return reason

    def pointer_root(self, pointer: Value,
                     _active: Optional[Set[int]] = None
                     ) -> Tuple[Optional[Value], Optional[str]]:
        """Resolve *pointer* to ``(root, reason)``.

        *root* is the buffer :class:`Argument` or :class:`Alloca` result
        the pointer provably derives from (``None`` when it cannot be
        identified — a pointer escape).  *reason* is ``None`` when every
        offset applied along the way is deterministic.
        """
        root, off_reason = self._walk_geps(pointer)
        if isinstance(root, Argument):
            return root, off_reason
        if id(root) in self.allocas:
            return root, off_reason
        d = self.defs.get(id(root)) if isinstance(root, Register) else None
        if isinstance(d, Load):
            # Pointer loaded back out of a private slot: unify the
            # roots of everything ever stored into that slot.
            slot, slot_off = self._walk_geps(d.pointer)
            sid = id(slot)
            if sid in self.allocas and slot.type.space == AddressSpace.PRIVATE:
                active = _active if _active is not None else set()
                if sid in active:
                    # Loop-carried self-reference (p = p + k): it adds
                    # no new root, only offsets — already judged by the
                    # slot fixpoint.
                    return None, None
                active.add(sid)
                resolved: Optional[Value] = None
                reason = off_reason or slot_off or self.slot_reason[sid]
                for st in self.slot_stores[sid]:
                    r, w = self.pointer_root(st.value, active)
                    reason = reason or w
                    if r is None:
                        continue
                    if resolved is None:
                        resolved = r
                    elif resolved is not r:
                        return None, reason or "pointer-merge"
                active.discard(sid)
                if resolved is None:
                    return None, reason or "uninitialised-pointer"
                return resolved, reason
        if isinstance(d, Select):
            a, wa = self.pointer_root(d.operands[1], _active)
            b, wb = self.pointer_root(d.operands[2], _active)
            reason = (self.value_reason(d.operands[0]) or off_reason
                      or wa or wb)
            if a is not None and a is b:
                return a, reason
            return None, reason or "pointer-merge"
        return None, off_reason

    # -- helpers ---------------------------------------------------------

    def _strip_geps(self, pointer: Value) -> Value:
        """The base value under any GEP/pointer-cast layers."""
        cur = pointer
        while isinstance(cur, Register):
            d = self.defs.get(id(cur))
            if isinstance(d, GetElementPtr):
                cur = d.base
            elif isinstance(d, Cast) and d.kind in ("ptrcast", "bitcast"):
                cur = d.value
            else:
                break
        return cur

    def _walk_geps(self, pointer: Value
                   ) -> Tuple[Value, Optional[str]]:
        """Strip GEP/pointer-cast layers; returns the base value plus
        the first non-DET index reason met along the chain."""
        reason: Optional[str] = None
        cur = pointer
        while isinstance(cur, Register):
            d = self.defs.get(id(cur))
            if isinstance(d, GetElementPtr):
                reason = reason or self.value_reason(d.index)
                cur = d.base
            elif isinstance(d, Cast) and d.kind in ("ptrcast", "bitcast"):
                cur = d.value
            else:
                break
        return cur, reason

    def _offset_reason(self, pointer: Value) -> Optional[str]:
        _, reason = self._walk_geps(pointer)
        return reason

    # -- dispatch handlers ----------------------------------------------

    def _det_BinaryOp(self, inst: BinaryOp) -> Optional[str]:
        return (self.value_reason(inst.lhs)
                or self.value_reason(inst.rhs))

    def _det_CompareOp(self, inst: CompareOp) -> Optional[str]:
        if inst.lhs.type.is_float or inst.rhs.type.is_float:
            return "float"
        return (self.value_reason(inst.lhs)
                or self.value_reason(inst.rhs))

    def _det_Cast(self, inst: Cast) -> Optional[str]:
        if inst.kind in ("fptosi", "fptoui"):
            return "float"
        return self.value_reason(inst.value)

    def _det_Select(self, inst: Select) -> Optional[str]:
        for op in inst.operands:
            reason = self.value_reason(op)
            if reason is not None:
                return reason
        return None

    def _det_GetElementPtr(self, inst: GetElementPtr) -> Optional[str]:
        return (self.value_reason(inst.base)
                or self.value_reason(inst.index))

    def _det_Alloca(self, inst: Alloca) -> Optional[str]:
        # The address itself is launch-determined (the engine separately
        # rejects local allocas outside the entry block, whose lazy
        # allocation order the synthesizer cannot replicate).
        return None

    def _det_Load(self, inst: Load) -> Optional[str]:
        ptr_type = inst.pointer.type
        if isinstance(ptr_type, PointerType) \
                and ptr_type.space != AddressSpace.PRIVATE:
            return _SPACE_REASON.get(ptr_type.space, "load")
        root, off_reason = self._walk_geps(inst.pointer)
        if id(root) in self.allocas:
            return self.slot_reason[id(root)] or off_reason
        return "private-pointer"

    def _det_Call(self, inst: Call) -> Optional[str]:
        callee = inst.callee
        if callee in ID_BUILTINS:
            # The synthesizer indexes geometry tuples by the dimension
            # operand at compile time, so it must be an immediate.
            if inst.operands and not isinstance(inst.operands[0], Constant):
                return f"call:{callee}"
            return None
        if callee in INT_BUILTINS:
            for op in inst.operands:
                reason = self.value_reason(op)
                if reason is not None:
                    return reason
            return None
        if callee.startswith("atomic_") or callee.startswith("atom_"):
            return "atomic"
        if callee in _float_builtins():
            return "float"
        return f"call:{callee}"

    def _det_Phi(self, inst: Phi) -> Optional[str]:
        return "phi"

    def _det_PipeRead(self, inst: Instruction) -> Optional[str]:
        # A popped token's value comes from another kernel's schedule:
        # never a pure function of this kernel's launch geometry.
        return f"pipe:{inst.channel.name}"

    def generic_visit(self, inst: Instruction) -> Optional[str]:
        return f"op:{type(inst).__name__}"


def classify_function(fn: Function) -> Classifier:
    """Memoized classifier for *fn* (the judgement only depends on the
    IR, so one classification serves every NDRange and design point)."""
    return function_memo(fn, "classifier", lambda: Classifier(fn))
