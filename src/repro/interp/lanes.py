"""Lane-vector core shared by the two fast trace engines.

:class:`~repro.interp.synth.TraceSynthesizer` and
:class:`~repro.interp.vexec.VectorizedExecutor` both run a kernel as
numpy *lane vectors*: every work-item is one lane, registers are
full-lane arrays, and each lane carries a program counter indexing a
fixed block ordering.  This module holds what the two share:

- buffer and argument binding (the executor's ``GlobalMemory``
  allocator in insertion order, so base addresses are identical);
- the block ordering, mem2reg-lite slot promotion
  (:func:`promote_slots`) and the compiled segment/block layout;
- address-space tracking, global bounds checks, private slots, trace
  events, and the compilers for allocas, compares, GEPs and geometry
  builtins.

An engine supplies its register file (``_getter``/``_setter``), the
opcodes whose semantics differ (binops, casts, selects, loads, stores,
calls, atomics) and its own run loop.  Everything else that differs is
either a class attribute (``error_type``) or a whole-method override of
one of the small hooks below (``_missing_argument``, ``_cond_getter``,
``_global_fault``, ``_priv_load_at``).
"""

from __future__ import annotations

import operator as _op
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.interp.executor import NDRange
from repro.interp.memory import Buffer, GlobalMemory
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    Barrier,
    Branch,
    CompareOp,
    CondBranch,
    GetElementPtr,
    Load,
    Return,
    Store,
)
from repro.ir.types import AddressSpace, ArrayType, PointerType
from repro.ir.values import Argument, Register, Value

#: runtime address-space codes (kept distinct from packed-trace codes)
_PRIV, _GLOB, _LOC, _CONST = 0, 1, 2, 3

_SPACE_CODE = {
    AddressSpace.PRIVATE: _PRIV,
    AddressSpace.GLOBAL: _GLOB,
    AddressSpace.LOCAL: _LOC,
    AddressSpace.CONSTANT: _CONST,
}

#: packed-trace codes (repro.analysis.packed)
_PK_READ, _PK_WRITE = 0, 1
_PK_GLOBAL, _PK_LOCAL = 0, 1

_M64 = (1 << 64) - 1


def _mask_scalar(value: int, bits: int, signed: bool) -> int:
    value &= (1 << bits) - 1
    if signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _mask_val(r, bits: int, signed: bool):
    """Fold a raw op result into the executor's masked integer domain.

    Storage is ``int64`` (the 64-bit two's-complement image), so for
    64-bit types the wrapped bits are already right; narrower types get
    the executor's ``_mask_int`` semantics, vectorized."""
    if bits <= 0 or bits >= 64:
        if isinstance(r, np.ndarray):
            return r
        return _mask_scalar(int(r), 64, True)
    m = (1 << bits) - 1
    r = r & m
    if signed:
        h = 1 << (bits - 1)
        if isinstance(r, np.ndarray):
            return np.where(r >= h, r - (h << 1), r)
        if r >= h:
            r -= h << 1
    return r


def _u64(x):
    """View an int64 value as its unsigned-64 interpretation."""
    if isinstance(x, np.ndarray):
        return x.view(np.uint64) if x.dtype == np.int64 \
            else x.astype(np.uint64)
    return np.uint64(int(x) & _M64)


def _i64(x):
    """Back from unsigned-64 to the int64 storage image."""
    return np.asarray(x, dtype=np.uint64).view(np.int64)


def _is_u64(t) -> bool:
    return bool(getattr(t, "is_integer", False)) and not t.is_signed \
        and t.bits >= 64


def promote_slots(blocks) -> Tuple[Dict[int, Value], set, set]:
    """mem2reg-lite over the Clang-O0-shaped lowering.

    Every source variable lives in a private entry-block stack slot
    accessed only by direct loads and stores; the generic path pays
    address computation, runtime space dispatch and a per-address
    dictionary for each of them.  A slot whose register is never used
    outside ``Load.pointer``/``Store.pointer`` positions cannot alias
    anything, so:

    - **single-store entry slots** whose store sits in the entry block
      before every entry-block load forward the stored value straight
      into the loads' operand getters — the alloca, the store and the
      loads compile to nothing (the entry block runs first for all
      lanes, so the value is defined wherever a load was);
    - **other slots** (loop counters, inner-scope variables) are
      *promoted*: loads and stores hit a per-slot value/init array keyed
      by slot identity, skipping the address machinery entirely.  The
      alloca compiles to an init-mask reset for the executing lanes, so
      re-executing a non-entry alloca gives the executor's fresh-slot
      semantics (a load before the activation's first store still
      faults).

    Private traffic is untraced, so the executor's observable outputs
    are unchanged.  Returns ``(fwd, skip, promoted)``: forwarded load
    results (register id -> forwarded Value), instruction ids that
    compile to nothing, and promoted slot register ids.
    """
    fwd: Dict[int, Value] = {}
    skip: set = set()
    promoted: set = set()
    if not blocks:
        return fwd, skip, promoted
    slots: Dict[int, dict] = {}
    for bi, block in enumerate(blocks):
        for inst in block.instructions:
            if isinstance(inst, Alloca) and inst.result is not None \
                    and inst.space != AddressSpace.LOCAL:
                slots[id(inst.result)] = {
                    "alloca": inst, "alloca_block": bi, "loads": [],
                    "store": None, "stores": 0, "escaped": False}
    if not slots:
        return fwd, skip, promoted
    for bi, block in enumerate(blocks):
        for pos, inst in enumerate(block.instructions):
            for oi, v in enumerate(inst.operands):
                info = slots.get(id(v))
                if info is None:
                    continue
                if isinstance(inst, Load) and oi == 0:
                    info["loads"].append((bi, pos, inst))
                elif isinstance(inst, Store) and oi == 1:
                    # Store operands are [value, pointer]; a slot
                    # register in value position escapes.
                    info["stores"] += 1
                    info["store"] = (bi, pos, inst)
                else:
                    info["escaped"] = True
    for rid, info in slots.items():
        if info["escaped"]:
            continue
        if info["stores"] == 1 and info["alloca_block"] == 0:
            sb, sp, store = info["store"]
            if sb == 0 and all(lb != 0 or lp > sp
                               for lb, lp, _ in info["loads"]):
                skip.add(id(info["alloca"]))
                skip.add(id(store))
                for _, _, load in info["loads"]:
                    fwd[id(load.result)] = store.value
                    skip.add(id(load))
                continue
        promoted.add(rid)
    return fwd, skip, promoted


class _Segment:
    """A run of instructions with no internal barrier.

    ``cost`` counts *every* instruction in the run (the executor's step
    budget counts skipped ops too); ``ops`` holds only the compiled
    ones.  ``barrier`` marks a segment that ends at a barrier
    instruction (included in ``cost``)."""

    __slots__ = ("ops", "cost", "barrier")

    def __init__(self) -> None:
        self.ops: List[Callable] = []
        self.cost = 0
        self.barrier = False


class _Block:
    __slots__ = ("name", "segments", "term")

    def __init__(self, name: str) -> None:
        self.name = name
        self.segments: List[_Segment] = []
        self.term: Optional[Tuple] = None


class LaneEngine:
    """Compiles one kernel into lane-vector ops over host buffers.

    Parameters mirror :class:`~repro.interp.executor.KernelExecutor`:
    the lowered function, buffers by pointer-argument name, scalars by
    name.  Subclasses set the state their compilers read before calling
    ``super().__init__``, which compiles every reachable block last.

    Private slot entries (address-keyed ``_priv`` and promoted
    ``_pslots``) are lists ``[int values, float values, init mask,
    space codes]``; promoted entries append an "every lane initialised"
    flag that short-circuits the init mask.
    """

    #: raised whenever the kernel or launch leaves the engine's subset
    error_type: type = Exception

    DEFAULT_MAX_STEPS = 5_000_000
    MAX_PHASES = 10_000

    def __init__(self, fn: Function, buffers: Dict[str, Buffer],
                 scalars: Dict[str, object],
                 max_steps: Optional[int] = None) -> None:
        self.fn = fn
        self.max_steps = max_steps or self.DEFAULT_MAX_STEPS
        # Bind buffers exactly as the executor does (same GlobalMemory
        # allocator, same insertion order => identical base addresses).
        self.memory = GlobalMemory()
        for buf in buffers.values():
            self.memory.bind(buf)
        blist = list(buffers.values())
        self._bases = np.array([b.base for b in blist], np.int64)
        self._spans = np.array([max(b.nbytes, 1) for b in blist], np.int64)
        self._raw = np.array([b.nbytes for b in blist], np.int64)
        self._elem = np.array([b.elem_size for b in blist], np.int64)
        self._buf_names: Tuple[str, ...] = tuple(b.name for b in blist)
        self._local_buf_index = len(self._buf_names)
        self._gl_hot: Optional[Tuple[int, int, int, int]] = None

        self._arg_addr: Dict[int, Tuple[int, int]] = {}
        self._arg_scalar: Dict[int, object] = {}
        for arg in fn.args:
            if isinstance(arg.type, PointerType):
                if arg.name not in buffers:
                    raise self._missing_argument("buffer", "pointer",
                                                 arg.name)
                self._arg_addr[id(arg)] = (
                    buffers[arg.name].base, _SPACE_CODE[arg.type.space])
            else:
                if arg.name not in scalars:
                    raise self._missing_argument("value", "scalar",
                                                 arg.name)
                v = scalars[arg.name]
                self._arg_scalar[id(arg)] = (
                    float(v) if arg.type.is_float else int(v))

        self._site_of: Dict[int, int] = {
            id(inst): i for i, inst in enumerate(fn.instructions())}

        # Fixed block ordering for the lane program counters (any total
        # order with entry first is correct; DFS preorder keeps loop
        # bodies close to their headers).
        blocks = list(fn.reachable_blocks())
        self._blocks = blocks
        self._order = {id(b): i for i, b in enumerate(blocks)}
        self._done = len(blocks)

        self._fwd, self._skip, self._promoted = promote_slots(blocks)

        # Per-launch state, rebound by the engine's run loop.
        self._nlanes = 0
        self._wg = 0
        self._nd: Optional[NDRange] = None
        self._lid: List[np.ndarray] = []
        self._gid: List[np.ndarray] = []
        self._ggid: List[np.ndarray] = []
        #: lane -> index of its work-group in the bound group list
        self._lane_group = np.zeros(0, np.int64)
        self.rspace: Dict[int, object] = {}
        self._priv: Dict[int, list] = {}
        self._pslots: Dict[int, list] = {}
        self._priv_next: Optional[np.ndarray] = None
        #: per-group local allocator: next free offset, and each local
        #: alloca's offset per group (-1 until that group executes it)
        self._local_next = np.zeros(0, np.int64)
        self._local_allocas: Dict[int, np.ndarray] = {}
        self._events: List[Tuple] = []
        self._record = True
        #: whether the current run keeps per-lane block counts
        self._count_items = False
        self._lid_cache: Dict[Tuple[int, ...], List[np.ndarray]] = {}

        self._code: List[_Block] = [self._compile_block(b) for b in blocks]

    def _missing_argument(self, what: str, kind: str,
                          name: str) -> Exception:
        return self.error_type(f"no {what} for {kind} argument {name!r}")

    # -- launch geometry ---------------------------------------------------

    @staticmethod
    def _group_ids(ndrange: NDRange,
                   max_groups: Optional[int]) -> List[Tuple[int, ...]]:
        """Work-group ids in launch order, optionally only a prefix."""
        group_list = list(ndrange.group_ids())
        if max_groups is not None:
            group_list = group_list[:max_groups]
        return [tuple(reversed(rev)) for rev in group_list]

    def _bind_lanes(self, ndrange: NDRange,
                    gids: List[Tuple[int, ...]]) -> None:
        """Bind one lane per (group, work-item) pair of *gids*, group
        after group: ``lid`` tiles, ``gid`` repeats per group.  Groups
        share no private or register state, and each gets its own local
        allocator starting at offset 64 as the executor's does."""
        wg = ndrange.work_group_size
        n_groups = len(gids)
        self._wg = wg
        self._nlanes = n_groups * wg
        base_lid = self._local_id_arrays(ndrange)
        dims = ndrange.dims
        self._lid = [np.tile(base_lid[d], n_groups) for d in range(dims)]
        self._gid = [
            np.repeat(np.array([g[d] for g in gids], np.int64), wg)
            for d in range(dims)]
        self._ggid = [self._gid[d] * ndrange.local_size[d]
                      + self._lid[d] for d in range(dims)]
        self._lane_group = np.repeat(np.arange(n_groups, dtype=np.int64),
                                     wg)
        self._local_next = np.full(n_groups, 64, np.int64)
        self._local_allocas = {}

    def _local_id_arrays(self, ndrange: NDRange) -> List[np.ndarray]:
        arrays = self._lid_cache.get(ndrange.local_size)
        if arrays is None:
            lids = [tuple(reversed(rev)) for rev in
                    np.ndindex(*reversed(ndrange.local_size))]
            arrays = [np.array([t[d] for t in lids], np.int64)
                      for d in range(ndrange.dims)]
            self._lid_cache[ndrange.local_size] = arrays
        return arrays

    # -- operand access ----------------------------------------------------

    def _resolve(self, v: Value) -> Value:
        hops = 0
        while isinstance(v, Register) and id(v) in self._fwd:
            v = self._fwd[id(v)]
            hops += 1
            if hops > len(self._fwd):
                raise self.error_type("forwarding cycle")
        return v

    def _space_getter(self, v: Value) -> Callable:
        v = self._resolve(v)
        if isinstance(v, Argument) and id(v) in self._arg_addr:
            code = self._arg_addr[id(v)][1]
            return lambda idx: code
        if isinstance(v, Register):
            rid = id(v)

            def get_space(idx):
                s = self.rspace.get(rid)
                if s is None:
                    raise self.error_type("pointer with unknown space")
                return s[idx] if isinstance(s, np.ndarray) else s
            return get_space
        raise self.error_type(f"no address space for {v!r}")

    def _set_space(self, rid: int, idx, val) -> None:
        cur = self.rspace.get(rid)
        scalar = not isinstance(val, np.ndarray)
        if scalar and not isinstance(cur, np.ndarray) \
                and (cur is None or cur == val):
            self.rspace[rid] = int(val)
            return
        if not isinstance(cur, np.ndarray):
            arr = np.full(self._nlanes, -1 if cur is None else int(cur),
                          np.int64)
        else:
            arr = cur
        arr[idx] = val
        self.rspace[rid] = arr

    def _split(self, idx, sp, addr):
        """Partition lanes by runtime address space: yields
        ``(code, lanes, addrs)``."""
        if not isinstance(sp, np.ndarray):
            yield int(sp), idx, addr
            return
        for code in np.unique(sp):
            sel = sp == code
            a = addr[sel] if isinstance(addr, np.ndarray) else addr
            yield int(code), idx[sel], a

    # -- trace events ------------------------------------------------------

    def _emit(self, site, kind, nbytes, space, buf, lanes, addrs) -> None:
        if not self._record:
            return
        a = np.asarray(addrs, np.int64)
        if a.ndim == 0:
            a = np.full(len(lanes), int(a), np.int64)
        self._events.append((site, kind, nbytes, space, buf, lanes, a))

    def _sorted_events(self) -> List[np.ndarray]:
        """The recorded events as packed-trace columns (site, kind,
        nbytes, space, buffer, lane, address), stably sorted by lane:
        per-lane program order is preserved.  The recorded events are
        dropped once packed and the columns are permuted one at a time,
        so sorting costs one column of extra memory, not a copy of all
        seven."""
        events, self._events = self._events, []
        total = sum(len(ev[5]) for ev in events)
        site = np.empty(total, np.int32)
        kind = np.empty(total, np.uint8)
        nbytes = np.empty(total, np.int32)
        space = np.empty(total, np.uint8)
        buf = np.empty(total, np.int16)
        lane = np.empty(total, np.int64)
        addr = np.empty(total, np.int64)
        pos = 0
        for s, k, nb, sp, b, lanes, addrs in events:
            end = pos + len(lanes)
            site[pos:end] = s
            kind[pos:end] = k
            nbytes[pos:end] = nb
            space[pos:end] = sp
            buf[pos:end] = b
            lane[pos:end] = lanes
            addr[pos:end] = addrs
            pos = end
        del events
        order = np.argsort(lane, kind="stable")
        cols = [site, kind, nbytes, space, buf, lane, addr]
        del site, kind, nbytes, space, buf, lane, addr
        for i, col in enumerate(cols):
            cols[i] = col[order]
        return cols

    def _lane_counters(self) -> Optional[np.ndarray]:
        """Per-lane block counters (block index x lane) for a run asked
        for ``item_counts``, else None."""
        if not self._count_items:
            return None
        return np.zeros((self._done, self._nlanes), np.int32)

    def _item_counts(self, lane_counts: np.ndarray,
                     counts: Dict[str, int]) -> Dict[str, np.ndarray]:
        """Key :meth:`_lane_counters` rows by block name (unique within
        a function), in the order of the run's aggregate *counts*."""
        row_of = {code.name: row
                  for code, row in zip(self._code, lane_counts)}
        return {name: row_of[name] for name in counts}

    def _finish_groups(self, cols: List[np.ndarray], n_groups: int):
        """Split :meth:`_sorted_events` columns into one
        :class:`~repro.analysis.packed.PackedGroup` per bound group,
        with group-local lane ids."""
        from repro.analysis.packed import PackedGroup

        # Sorted by absolute lane, groups are contiguous runs.
        site, kind, nbytes, space, buf, lane, addr = cols
        names = self._buf_names + ("__local",)
        wg = self._wg
        cuts = np.searchsorted(lane, np.arange(n_groups + 1) * wg)
        groups = []
        for g in range(n_groups):
            lo, hi = cuts[g], cuts[g + 1]
            groups.append(PackedGroup(
                site[lo:hi], kind[lo:hi], nbytes[lo:hi], space[lo:hi],
                buf[lo:hi], (lane[lo:hi] - g * wg).astype(np.int32),
                addr[lo:hi], names, wg))
        return groups

    # -- global memory -----------------------------------------------------

    def _global_locate(self, addrs, nbytes: int):
        """Bounds/alignment-check global addresses exactly as
        ``GlobalMemory.load``/``store`` do; returns
        ``(buffer index | index array, addr array)``."""
        a = np.asarray(addrs, np.int64)
        scalar = a.ndim == 0
        hot = self._gl_hot
        if hot is not None:
            # One-entry cache: consecutive calls overwhelmingly stay in
            # the buffer the previous call resolved.
            hb, base, end, elem = hot
            ok = ((a >= base) & (a + nbytes <= end)
                  & ((a - base) % elem == 0))
            if bool(np.all(ok)):
                return hb, a
        bi = np.searchsorted(self._bases, a, side="right") - 1
        bic = np.maximum(bi, 0)
        off = a - self._bases[bic]
        ok = ((bi >= 0) & (off < self._spans[bic])
              & (off % self._elem[bic] == 0)
              & (off + nbytes <= self._raw[bic]))
        if not bool(np.all(ok)):
            self._global_fault(a, ok, nbytes)
        if scalar:
            b = int(bi)
        else:
            lo, hi = int(bi.min()), int(bi.max())
            if lo != hi:
                return bi.astype(np.int16), a
            b = lo
        self._gl_hot = (b, int(self._bases[b]),
                        int(self._bases[b] + self._raw[b]),
                        int(self._elem[b]))
        return b, a

    def _global_fault(self, addrs: np.ndarray, ok: np.ndarray,
                      nbytes: int) -> None:
        """Raise for a global access ``_global_locate`` rejected (*ok*
        is False for each faulting address)."""
        raise self.error_type("out-of-bounds or misaligned global access")

    # -- private slots -----------------------------------------------------

    def _priv_entry(self, addr: int) -> list:
        ent = self._priv.get(addr)
        if ent is None:
            ent = [None, None, np.zeros(self._nlanes, bool), None]
            self._priv[addr] = ent
        return ent

    def _priv_store(self, lanes, addrs, vals, spc, is_float) -> None:
        if isinstance(addrs, (int, np.integer)):
            self._priv_store_at(int(addrs), lanes, vals, spc, is_float)
            return
        a = np.asarray(addrs, np.int64)
        if a.ndim == 0 or a.min() == a.max():
            addr = int(a) if a.ndim == 0 else int(a[0])
            self._priv_store_at(addr, lanes, vals, spc, is_float)
            return
        for addr in np.unique(a):
            sel = a == addr
            v = vals[sel] if isinstance(vals, np.ndarray) else vals
            s = spc[sel] if isinstance(spc, np.ndarray) else spc
            self._priv_store_at(int(addr), lanes[sel], v, s, is_float)

    def _priv_store_at(self, addr, lanes, vals, spc, is_float) -> None:
        ent = self._priv_entry(addr)
        slot = 1 if is_float else 0
        arr = ent[slot]
        if arr is None:
            arr = np.zeros(self._nlanes,
                           np.float64 if is_float else np.int64)
            ent[slot] = arr
        arr[lanes] = vals
        ent[2][lanes] = True
        if spc is not None:
            if ent[3] is None:
                ent[3] = np.full(self._nlanes, -1, np.int64)
            ent[3][lanes] = spc

    def _priv_load(self, lanes, addrs, set_value, rid_space,
                   is_float) -> None:
        if isinstance(addrs, (int, np.integer)):
            self._priv_load_at(int(addrs), lanes, set_value, rid_space,
                               is_float)
            return
        a = np.asarray(addrs, np.int64)
        if a.ndim == 0 or a.min() == a.max():
            self._priv_load_at(int(a) if a.ndim == 0 else int(a[0]),
                               lanes, set_value, rid_space, is_float)
            return
        for addr in np.unique(a):
            sel = a == addr
            self._priv_load_at(int(addr), lanes[sel], set_value,
                               rid_space, is_float)

    def _priv_load_at(self, addr, lanes, set_value, rid_space,
                      is_float) -> None:
        raise NotImplementedError

    # -- compilation -------------------------------------------------------

    def _compile_block(self, block: BasicBlock) -> _Block:
        code = _Block(block.name)
        seg = _Segment()
        for inst in block.instructions:
            if isinstance(inst, Barrier):
                seg.cost += 1
                seg.barrier = True
                code.segments.append(seg)
                seg = _Segment()
                continue
            if isinstance(inst, Return):
                seg.cost += 1
                code.term = ("ret",)
                break
            if isinstance(inst, Branch):
                seg.cost += 1
                target = self._order.get(id(inst.target))
                if target is None:
                    raise self.error_type("branch to unreachable block")
                code.term = ("br", target)
                break
            if isinstance(inst, CondBranch):
                seg.cost += 1
                then_i = self._order.get(id(inst.then_block))
                else_i = self._order.get(id(inst.else_block))
                if then_i is None or else_i is None:
                    raise self.error_type("branch to unreachable block")
                code.term = ("cbr", self._cond_getter(inst.cond),
                             then_i, else_i)
                break
            seg.cost += 1
            op = self._compile(inst)
            if op is not None:
                seg.ops.append(op)
        if code.term is None:
            raise self.error_type(f"no terminator in {block.name}")
        code.segments.append(seg)
        return code

    def _cond_getter(self, cond: Value) -> Callable:
        """Getter for a conditional branch's condition."""
        return self._getter(cond)

    def _c_alloca(self, inst: Alloca) -> Callable:
        nbytes = max(inst.allocated.bytes, 1)
        rid = id(inst.result)
        if inst.space != AddressSpace.LOCAL and rid in self._promoted:
            # Promoted slot: no address is ever needed; re-execution
            # only invalidates the executing lanes' current values
            # (the executor hands them a fresh, uninitialised slot).
            def op(idx):
                ent = self._pslots.get(rid)
                if ent is not None:
                    ent[2][idx] = False
                    ent[4] = False
            return op
        set_ = self._setter(inst.result)
        if inst.space == AddressSpace.LOCAL:
            key = id(inst)

            def op(idx):
                offs = self._local_allocas.get(key)
                if offs is None:
                    offs = np.full(len(self._local_next), -1, np.int64)
                    self._local_allocas[key] = offs
                g = self._lane_group[idx]
                fresh = np.unique(g[offs[g] < 0])
                if len(fresh):
                    nxt = -(-self._local_next[fresh] // 8) * 8
                    offs[fresh] = nxt
                    self._local_next[fresh] = nxt + nbytes
                set_(idx, offs[g])
                self._set_space(rid, idx, _LOC)
        else:
            def op(idx):
                nxt = self._priv_next
                aligned = -(-nxt[idx] // 8) * 8
                set_(idx, aligned)
                nxt[idx] = aligned + nbytes
                self._set_space(rid, idx, _PRIV)
        return op

    def _c_compare(self, inst: CompareOp) -> Callable:
        fn = {"eq": _op.eq, "ne": _op.ne, "lt": _op.lt,
              "le": _op.le, "gt": _op.gt, "ge": _op.ge}.get(inst.pred)
        if fn is None:
            raise self.error_type(f"unknown compare {inst.pred!r}")
        ga, gb = self._getter(inst.lhs), self._getter(inst.rhs)
        set_ = self._setter(inst.result)
        u64 = _is_u64(inst.lhs.type) or _is_u64(inst.rhs.type)

        def op(idx):
            a, b = ga(idx), gb(idx)
            if u64:
                a, b = _u64(np.asarray(a)), _u64(np.asarray(b))
            set_(idx, np.asarray(fn(a, b), np.int64))
        return op

    def _c_gep(self, inst: GetElementPtr) -> Callable:
        get_base = self._getter(inst.base)
        get_index = self._getter(inst.index)
        gsp = self._space_getter(inst.base)
        elem = inst.base.type.pointee  # type: ignore[union-attr]
        if isinstance(elem, ArrayType):
            elem = elem.element
        scale = max(elem.bytes, 1)
        set_ = self._setter(inst.result)
        rid = id(inst.result)

        def op(idx):
            set_(idx, np.asarray(get_base(idx))
                 + np.asarray(get_index(idx)) * scale)
            self._set_space(rid, idx, gsp(idx))
        return op

    def _c_promoted_store(self, inst: Store) -> Callable:
        """Store to a promoted scalar slot: per-slot value/init arrays,
        no address computation, no space dispatch; the trailing flag
        short-circuits the init mask once every lane has stored."""
        sid = id(inst.pointer)
        value = self._resolve(inst.value)
        is_float = bool(getattr(value.type, "is_float", False))
        gv = self._getter(inst.value)
        vsp = (self._space_getter(inst.value)
               if isinstance(value.type, PointerType) else None)
        slot = 1 if is_float else 0

        def op(idx):
            ent = self._pslots.get(sid)
            if ent is None:
                ent = [None, None, np.zeros(self._nlanes, bool),
                       None, False]
                self._pslots[sid] = ent
            arr = ent[slot]
            if arr is None:
                arr = np.zeros(self._nlanes,
                               np.float64 if is_float else np.int64)
                ent[slot] = arr
            arr[idx] = gv(idx)
            if not ent[4]:
                ent[2][idx] = True
                if len(idx) == self._nlanes:
                    ent[4] = True
            if vsp is not None:
                if ent[3] is None:
                    ent[3] = np.full(self._nlanes, -1, np.int64)
                ent[3][idx] = vsp(idx)
        return op

    def _c_geometry(self, name: str, d: int, set_) -> Callable:
        if name == "get_local_id":
            def op(idx):
                nd = self._nd
                set_(idx, self._lid[d][idx] if d < nd.dims else 0)
        elif name == "get_group_id":
            def op(idx):
                nd = self._nd
                set_(idx, self._gid[d][idx] if d < nd.dims else 0)
        elif name == "get_global_id":
            def op(idx):
                nd = self._nd
                set_(idx, self._ggid[d][idx] if d < nd.dims else 0)
        elif name == "get_global_size":
            def op(idx):
                nd = self._nd
                set_(idx, nd.global_size[d] if d < nd.dims else 1)
        elif name == "get_local_size":
            def op(idx):
                nd = self._nd
                set_(idx, nd.local_size[d] if d < nd.dims else 1)
        elif name == "get_num_groups":
            def op(idx):
                nd = self._nd
                set_(idx, nd.num_groups[d] if d < nd.dims else 1)
        elif name == "get_global_offset":
            def op(idx):
                set_(idx, 0)
        elif name == "get_work_dim":
            def op(idx):
                set_(idx, self._nd.dims)
        else:
            raise self.error_type(f"unknown geometry builtin {name!r}")
        return op

    # Engine-specific compilers and register file.

    def _compile(self, inst) -> Optional[Callable]:
        raise NotImplementedError

    def _getter(self, v: Value) -> Callable:
        raise NotImplementedError

    def _setter(self, result: Register) -> Callable:
        raise NotImplementedError
