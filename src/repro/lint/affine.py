"""Affine-expression and work-item-dependence analysis over the IR.

The frontend lowers in Clang -O0 style — every variable lives in a
private stack slot — so recovering ``get_local_id``-affine index forms
requires forwarding values through those slots.  This module does that
statically (no execution):

- :class:`AffineExpr` — ``const + Σ coeff·symbol`` over a small symbol
  vocabulary (work-item ids, scalar kernel arguments, loop-variable
  slots, opaque registers);
- :class:`AffineAnalysis` — per-function: evaluates any IR value to an
  affine form, resolves pointer values to ``(base, index)`` roots, and
  computes the *work-item-dependence taint* (does a value vary between
  work-items of one work-group?) by fixpoint over the slot graph.

The checks use the affine forms to reason about local-memory races,
static bounds, and global-access stride (Table 1 patterns), and the
taint to detect barrier divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    Cast,
    GetElementPtr,
    Instruction,
    Load,
    Store,
)
from repro.ir.types import AddressSpace, ArrayType, PointerType
from repro.ir.values import Argument, Constant, Register, Value
from repro.ir.visitor import Dispatcher

#: Builtins whose result is the same for every work-item of a group.
_UNIFORM_BUILTINS = {
    "get_group_id", "get_num_groups", "get_local_size", "get_global_size",
    "get_global_offset", "get_work_dim",
}
#: Builtins whose result distinguishes work-items within a group.
_PER_WI_BUILTINS = {"get_local_id", "get_global_id"}

_ID_SYMBOL_PREFIX = {
    "get_local_id": "lid", "get_global_id": "gid", "get_group_id": "grp",
    "get_local_size": "lsz", "get_global_size": "gsz",
    "get_num_groups": "ngrp",
}

#: Symbols that step by exactly 1 between consecutive work-items
#: (dimension 0 is the fastest-varying in the flat NDRange).
_DIM0_LINEAR = {"lid0", "gid0"}
#: Per-work-item symbols in higher dimensions: they vary between
#: work-items but not linearly with the flat work-item index.
_HIGHER_DIM_IDS = {"lid1", "lid2", "gid1", "gid2"}


def has_id_symbol(expr: "AffineExpr") -> bool:
    """Does the form contain a work-item id with nonzero coefficient?"""
    return any(sym in _DIM0_LINEAR or sym in _HIGHER_DIM_IDS
               for sym, _ in expr.terms)


@dataclass(frozen=True)
class AffineExpr:
    """``const + Σ coeff·symbol`` with integer coefficients."""

    const: int = 0
    terms: Tuple[Tuple[str, int], ...] = ()

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr(const=int(value))

    @staticmethod
    def symbol(name: str, coeff: int = 1) -> "AffineExpr":
        if coeff == 0:
            return AffineExpr()
        return AffineExpr(terms=((name, coeff),))

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        coeffs = dict(self.terms)
        for sym, c in other.terms:
            coeffs[sym] = coeffs.get(sym, 0) + c
        terms = tuple(sorted((s, c) for s, c in coeffs.items() if c != 0))
        return AffineExpr(const=self.const + other.const, terms=terms)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scaled(-1)

    def scaled(self, factor: int) -> "AffineExpr":
        if factor == 0:
            return AffineExpr()
        terms = tuple(sorted((s, c * factor) for s, c in self.terms))
        return AffineExpr(const=self.const * factor, terms=terms)

    # -- queries ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def coeff(self, symbol: str) -> int:
        for sym, c in self.terms:
            if sym == symbol:
                return c
        return 0

    def symbols(self) -> List[str]:
        return [sym for sym, _ in self.terms]

    def __str__(self) -> str:
        parts = [f"{c}*{s}" if c != 1 else s for s, c in self.terms]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


class AffineAnalysis(Dispatcher):
    """Static value analysis for one IR function.

    Affine evaluation of instruction results dispatches through the
    shared :class:`~repro.ir.visitor.Dispatcher` base (``_eval_<Class>``
    methods); unhandled instruction classes fall back to an opaque
    symbol via :meth:`generic_visit`.
    """

    visit_prefix = "_eval_"

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        #: defining instruction of each register
        self.defs: Dict[int, Instruction] = {}
        #: alloca-result register id -> the Alloca instruction
        self.allocas: Dict[int, Alloca] = {}
        #: alloca id -> stores whose pointer is exactly that slot
        self.slot_stores: Dict[int, List[Store]] = {}
        self._slot_seq: Dict[int, int] = {}
        self._memo: Dict[int, Optional[AffineExpr]] = {}
        self._in_progress: Set[int] = set()
        self._scan()
        #: opaque symbols known to vary between work-items
        self.tainted_symbols: Set[str] = set()
        self._tainted_values: Set[int] = set()
        self._tainted_slots: Set[int] = set()
        self._compute_taint()

    # -- scanning --------------------------------------------------------

    def _scan(self) -> None:
        for inst in self.fn.instructions():
            if inst.result is not None:
                self.defs[id(inst.result)] = inst
            if isinstance(inst, Alloca):
                self.allocas[id(inst.result)] = inst
                self.slot_stores.setdefault(id(inst.result), [])
                self._slot_seq[id(inst.result)] = len(self._slot_seq)
        for inst in self.fn.instructions():
            if isinstance(inst, Store) and id(inst.pointer) in self.allocas:
                self.slot_stores[id(inst.pointer)].append(inst)

    def alloca_of(self, value: Value) -> Optional[Alloca]:
        return self.allocas.get(id(value))

    # -- work-item-dependence taint --------------------------------------

    def _compute_taint(self) -> None:
        """Fixpoint: which values can differ between work-items?"""
        changed = True
        while changed:
            changed = False
            for inst in self.fn.instructions():
                if inst.result is not None and self._inst_tainted(inst):
                    if id(inst.result) not in self._tainted_values:
                        self._tainted_values.add(id(inst.result))
                        changed = True
                if isinstance(inst, Store):
                    # A store taints the slot (or whole private array,
                    # for gep stores) if the value or the index varies.
                    root, _ = self.pointer_root(inst.pointer)
                    rid = id(root)
                    if rid in self.allocas and rid not in self._tainted_slots:
                        if (id(inst.value) in self._tainted_values
                                or self._gep_index_tainted(inst.pointer)):
                            self._tainted_slots.add(rid)
                            changed = True

    def _gep_index_tainted(self, pointer: Value) -> bool:
        cur = pointer
        while isinstance(cur, Register):
            d = self.defs.get(id(cur))
            if isinstance(d, GetElementPtr):
                if id(d.index) in self._tainted_values:
                    return True
                cur = d.base
            elif isinstance(d, Cast):
                cur = d.value
            else:
                break
        return False

    def _inst_tainted(self, inst: Instruction) -> bool:
        if isinstance(inst, Call):
            if inst.callee in _PER_WI_BUILTINS:
                return True
            if inst.callee.startswith("atomic_") or inst.callee.startswith("atom_"):
                return True
            if inst.callee in _UNIFORM_BUILTINS:
                return False
            return any(id(op) in self._tainted_values for op in inst.operands)
        if isinstance(inst, Load):
            ptr_type = inst.pointer.type
            if isinstance(ptr_type, PointerType) and \
                    ptr_type.space != AddressSpace.PRIVATE:
                # Global/local/constant loads: the address (hence the
                # data) may be work-item dependent; constant space is
                # uniform only for uniform indices.
                if ptr_type.space == AddressSpace.CONSTANT:
                    return self._gep_index_tainted(inst.pointer)
                return True
            root, _ = self.pointer_root(inst.pointer)
            rid = id(root)
            if rid in self.allocas:
                return (rid in self._tainted_slots
                        or self._gep_index_tainted(inst.pointer))
            return True  # loads through unresolved pointers: be safe
        if isinstance(inst, Alloca):
            return False
        return any(id(op) in self._tainted_values for op in inst.operands)

    def value_is_tainted(self, value: Value) -> bool:
        """Can *value* differ between work-items of one work-group?"""
        if isinstance(value, Constant):
            return False
        if isinstance(value, Argument):
            return False  # same kernel arguments for every work-item
        return id(value) in self._tainted_values

    def expr_is_per_wi(self, expr: Optional[AffineExpr]) -> bool:
        """Does the affine form vary between work-items?"""
        if expr is None:
            return True  # unknown: assume the worst
        for sym, _ in expr.terms:
            if sym in _DIM0_LINEAR or sym in _HIGHER_DIM_IDS:
                return True
            if sym in self.tainted_symbols:
                return True
        return False

    # -- affine evaluation -----------------------------------------------

    def expr_of(self, value: Value) -> Optional[AffineExpr]:
        """*value* as an affine form, or ``None`` for non-integer values.

        Unknown-but-fixed integer values become opaque symbols so two
        uses of the same register still compare equal.
        """
        key = id(value)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:
            # Cyclic slot dependence (e.g. `i = i + 1`): opaque.
            return self._opaque_for(value)
        self._in_progress.add(key)
        try:
            expr = self._eval(value)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = expr
        return expr

    def _eval(self, value: Value) -> Optional[AffineExpr]:
        if isinstance(value, Constant):
            if isinstance(value.value, bool) or isinstance(value.value, int):
                return AffineExpr.constant(int(value.value))
            return None
        if isinstance(value, Argument):
            if isinstance(value.type, PointerType):
                return None
            if value.type.is_float:
                return None
            return AffineExpr.symbol(f"arg:{value.name}")
        if not isinstance(value, Register):
            return None
        if value.type.is_float:
            return None
        inst = self.defs.get(id(value))
        if inst is None:
            return self._opaque_for(value)
        return self.visit(inst, value)

    def generic_visit(self, inst: Instruction,
                      value: Register) -> Optional[AffineExpr]:
        return self._opaque_for(value)

    def _eval_Cast(self, inst: Cast, value: Register) -> Optional[AffineExpr]:
        if inst.kind in ("trunc", "zext", "sext", "bitcast", "ptrcast"):
            inner = self.expr_of(inst.value)
            return inner if inner is not None else self._opaque_for(value)
        return self._opaque_for(value)

    def _eval_BinaryOp(self, inst: BinaryOp,
                       value: Register) -> Optional[AffineExpr]:
        lhs = self.expr_of(inst.lhs)
        rhs = self.expr_of(inst.rhs)
        if lhs is None or rhs is None:
            return self._opaque_for(value)
        op = inst.opcode
        if op == "add":
            return lhs + rhs
        if op == "sub":
            return lhs - rhs
        if op == "mul":
            if rhs.is_constant:
                return lhs.scaled(rhs.const)
            if lhs.is_constant:
                return rhs.scaled(lhs.const)
            return self._opaque_for(value)
        if op == "shl" and rhs.is_constant and 0 <= rhs.const < 63:
            return lhs.scaled(1 << rhs.const)
        if op == "div" and rhs.is_constant and rhs.const != 0 \
                and lhs.is_constant:
            return AffineExpr.constant(lhs.const // rhs.const)
        return self._opaque_for(value)

    def _eval_Call(self, inst: Call, value: Register) -> Optional[AffineExpr]:
        prefix = _ID_SYMBOL_PREFIX.get(inst.callee)
        if prefix is not None and inst.operands:
            dim = self.expr_of(inst.operands[0])
            if dim is not None and dim.is_constant and 0 <= dim.const <= 2:
                return AffineExpr.symbol(f"{prefix}{dim.const}")
        if inst.callee == "get_work_dim":
            return AffineExpr.symbol("wdim")
        return self._opaque_for(value)

    def _eval_Load(self, inst: Load, value: Register) -> Optional[AffineExpr]:
        slot = self.allocas.get(id(inst.pointer))
        if slot is not None and not isinstance(slot.allocated, ArrayType) \
                and slot.space == AddressSpace.PRIVATE:
            stores = self.slot_stores.get(id(inst.pointer), [])
            if len(stores) == 1:
                fwd = self.expr_of(stores[0].value)
                if fwd is not None:
                    return fwd
            # Multi-store slot (loop variable, accumulator): one symbol
            # per slot so `a[i]` and `b[i]` share the same form.
            sym = f"var:{slot.var_name}#{self._slot_seq[id(inst.pointer)]}"
            if id(inst.pointer) in self._tainted_slots:
                self.tainted_symbols.add(sym)
            return AffineExpr.symbol(sym)
        return self._opaque_for(value)

    def _opaque_for(self, value: Value) -> Optional[AffineExpr]:
        if isinstance(value.type, PointerType):
            return None
        if getattr(value.type, "is_float", False):
            return None
        name = getattr(value, "name", "") or "anon"
        sym = f"reg:{name}#{id(value) & 0xffff}"
        if id(value) in self._tainted_values:
            self.tainted_symbols.add(sym)
        return AffineExpr.symbol(sym)

    # -- pointers --------------------------------------------------------

    def pointer_root(self, pointer: Value) -> Tuple[Value, Optional[AffineExpr]]:
        """Resolve a pointer to ``(base, element index)``.

        *base* is the underlying alloca result register or kernel
        argument; the index is the accumulated affine element offset
        (``None`` when any step is non-affine).
        """
        index: Optional[AffineExpr] = AffineExpr.constant(0)
        cur = pointer
        while isinstance(cur, Register):
            inst = self.defs.get(id(cur))
            if isinstance(inst, GetElementPtr):
                step = self.expr_of(inst.index)
                index = index + step if (index is not None
                                         and step is not None) else None
                cur = inst.base
            elif isinstance(inst, Cast) and inst.kind in ("ptrcast", "bitcast"):
                cur = inst.value
            elif isinstance(inst, Alloca):
                return cur, index
            else:
                return cur, index
        return cur, index

    def buffer_name(self, root: Value) -> str:
        """Human name of the buffer a resolved pointer root refers to."""
        if isinstance(root, Argument):
            return root.name
        alloca = self.allocas.get(id(root))
        if alloca is not None:
            return alloca.var_name
        inst = self.defs.get(id(root))
        if isinstance(inst, Load):
            stores = self.slot_stores.get(id(inst.pointer), [])
            if len(stores) == 1 and isinstance(stores[0].value, Argument):
                return stores[0].value.name
            slot = self.allocas.get(id(inst.pointer))
            if slot is not None:
                return slot.var_name
        return getattr(root, "name", "") or "<pointer>"

    # -- strides & bounds ------------------------------------------------

    def wi_stride(self, index: Optional[AffineExpr]) -> Optional[int]:
        """Element stride between consecutive work-items, or ``None``.

        Consecutive work-items differ by +1 in ``lid0`` and ``gid0``;
        uniform symbols (arguments, loop variables) cancel out.  Any
        per-work-item symbol beyond the dimension-0 ids makes the
        stride statically unknown.
        """
        if index is None:
            return None
        stride = 0
        for sym, c in index.terms:
            if sym in _DIM0_LINEAR:
                stride += c
            elif sym in _HIGHER_DIM_IDS or sym in self.tainted_symbols:
                return None
        return stride

    def expr_bounds(self, expr: Optional[AffineExpr]
                    ) -> Tuple[Optional[int], Optional[int]]:
        """Best-effort ``[lo, hi]`` interval of an affine form."""
        if expr is None:
            return None, None
        lo: Optional[int] = expr.const
        hi: Optional[int] = expr.const
        for sym, c in expr.terms:
            slo, shi = self._symbol_range(sym)
            if c >= 0:
                term_lo = None if slo is None else c * slo
                term_hi = None if shi is None else c * shi
            else:
                term_lo = None if shi is None else c * shi
                term_hi = None if slo is None else c * slo
            lo = None if (lo is None or term_lo is None) else lo + term_lo
            hi = None if (hi is None or term_hi is None) else hi + term_hi
        return lo, hi

    def _symbol_range(self, sym: str) -> Tuple[Optional[int], Optional[int]]:
        wgs = self.fn.reqd_work_group_size
        if sym.startswith("lid"):
            dim = int(sym[3:])
            if wgs is not None and dim < len(wgs):
                return 0, max(int(wgs[dim]) - 1, 0)
            return 0, None
        if sym[:3] in ("gid", "grp", "lsz", "gsz") or sym.startswith("ngrp"):
            return 0, None
        if sym == "wdim":
            return 1, 3
        return None, None
