"""Lane-vectorized kernel interpreter (SIMT-style masked execution).

The scalar :class:`~repro.interp.executor.KernelExecutor` pays a Python
dispatch per work-item per instruction — the dominant residual cold
cost for the data-dependent kernels the static synthesizer cannot
cover.  :class:`VectorizedExecutor` executes every profiled work-group
at once as numpy *lane vectors*, one lane per (group, work-item):
every register is a full-lane ``int64`` or ``float64`` array, loads
gather and stores scatter against the buffer arrays for exactly the
active lanes, and divergent control flow becomes an active-lane mask
instead of a per-item interpreter loop.

Unlike :class:`~repro.interp.synth.TraceSynthesizer` (which never
reads memory and skips float arithmetic), this interpreter evaluates
*everything* — buffer contents, float math, data-dependent branches
and loop trips — so it covers the kernels the access-summary engine
classifies IRREGULAR.

Both engines subclass :class:`~repro.interp.lanes.LaneEngine`, which
holds their shared binding, compilation and memory machinery.
Scheduling uses the same lane-PC scheme as synthesis: each lane carries
the index of its current block in a fixed DFS-preorder block ordering;
each step executes the minimum-index block for the lanes parked on it.
Divergent lanes run blocks in separate steps and naturally reconverge
at the immediate post-dominator (the lowest-index block both paths
reach); loop-exit lanes wait at the higher-index exit block until the
looping lanes catch up.  Barriers use park-and-release per group: a
lane hitting a barrier parks; when no lane is runnable, each group's
non-retired lanes must be parked at the *same* barrier (full-mask
convergence over the group's live lanes, retirement counts as
convergence exactly like the scalar phase machinery) — a group's lanes
parked at different barrier sites raise :class:`VectorizationError`.
Different groups may park at different sites.

Bit-identity with the scalar executor (proven by the 67-kernel
differential sweep in ``tests/test_vexec_sweep.py``):

- integer semantics are the lane core's proven ``int64``-image
  arithmetic (``_mask_val``/``_u64``); float add/sub/mul/div are IEEE
  double in both engines; transcendental builtins evaluate per-lane
  through the *same* ``math``-module functions the scalar executor
  uses, so there is no libm-vs-Python drift;
- work-groups run merged, but each step of the merged run executes,
  for every group with lanes in it, exactly the step that group would
  run alone (its lowest pending block and segment), and each group
  has its own ``__local`` arena starting at offset 64 — so a group's
  schedule, local traffic and trace addresses equal a run of that
  group alone;
- the scalar executor runs groups in launch order, so group g's
  stores may feed group g+1's loads.  After the merged run the packed
  global columns are checked for a cross-group conflict: an address
  one group writes that another group reads or writes (atomics emit a
  write).  With none, every group read only initial values or its
  own writes, so by induction on its steps each group saw exactly
  what launch order shows it, and no address has two writers.  On a
  conflict, or on any exception in the merged run, the buffers are
  restored and the same lane loop reruns once per group in launch
  order, which reproduces the scalar executor's values, traces and
  error (type and message).  Kernels with a global atomic skip the
  merged attempt;
- within a barrier phase the scalar executor is item-sequential while
  this interpreter is lockstep.  For race-free kernels (OpenCL makes
  intra-phase cross-item conflicts undefined behavior) the two
  schedules are indistinguishable; the defined exception — atomics —
  is guarded: an atomic step executes per-lane in item order, and any
  same-phase reordering that could change observed values (overlapping
  atomic sites, plain accesses to atomically-touched addresses) raises
  :class:`VectorizationError`.

Traces are emitted directly in packed columnar form
(:class:`~repro.analysis.packed.PackedGroup`) — no per-access
``MemAccess`` objects exist on the hot path.

Failure contract: anything outside the vectorizable subset raises
:class:`VectorizationError`; genuine runtime faults raise the scalar
executor's own error types (:class:`ExecutionError`, ``IndexError``,
``ValueError``, ...).  On *any* exception ``run`` restores the bound
buffers to their pre-launch contents before re-raising, so the caller
can fall back to scalar interpretation and reproduce the canonical
behavior — values, traces, and error messages — from pristine inputs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from repro.interp.executor import (
    ExecutionError,
    GEOMETRY_BUILTINS,
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
    _mask_scalar,
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
    PipeRead,
    PipeWrite,
    Select,
    Store,
)
from repro.ir.types import AddressSpace, PointerType
from repro.ir.values import Argument, Constant, Register, Value

#: bump to invalidate persistently cached analyses (the version joins
#: every analysis cache key, like SUMMARY_ENGINE_VERSION)
VEXEC_ENGINE_VERSION = 2


class VectorizationError(Exception):
    """The kernel (or this launch) left the vectorizable subset."""


#: atomics whose unobserved effects commute (any interleaving yields
#: the same final memory)
_COMMUTATIVE_ATOMICS = frozenset({
    "atomic_add", "atomic_sub", "atomic_inc", "atomic_dec",
    "atomic_min", "atomic_max",
})

#: transcendental builtins evaluated per-lane through the math module
#: (guarantees bit-identity with the scalar executor's results)
_LANEWISE_1 = {
    "exp": math.exp, "native_exp": math.exp,
    "exp2": lambda x: 2.0 ** x, "exp10": lambda x: 10.0 ** x,
    "log": math.log, "native_log": math.log,
    "log2": math.log2, "log10": math.log10,
    "sin": math.sin, "native_sin": math.sin,
    "cos": math.cos, "native_cos": math.cos, "tan": math.tan,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
}

_LANEWISE_2 = {
    "pow": math.pow, "native_powr": math.pow,
    "atan2": math.atan2, "hypot": math.hypot,
}


def shared_global_write(kind, space, addr, owner,
                        read_by_other: bool = False) -> bool:
    """True when a global address written by one owner (atomics emit a
    write) is also read or written by another.  With *read_by_other*
    only a read counts: writers racing on an address no one else
    reads change no value any owner sees.  The four arrays are
    parallel packed-trace columns; *owner* labels each row (its
    work-group, or its work-item)."""
    glob = space == _PK_GLOBAL
    written = addr[glob & (kind == _PK_WRITE)]
    if not len(written):
        return False
    # Every access to a written address; a conflict is such an address
    # touched by two owners (and, with read_by_other, read at all).
    touch = glob & np.isin(addr, written)
    a = addr[touch]
    order = np.argsort(a, kind="stable")
    a, g = a[order], owner[touch][order]
    heads = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    shared = (np.minimum.reduceat(g, heads)
              != np.maximum.reduceat(g, heads))
    if read_by_other:
        reads = (kind[touch][order] == _PK_READ).astype(np.int8)
        shared &= np.maximum.reduceat(reads, heads) > 0
    return bool(shared.any())


class VectorizedExecutor(LaneEngine):
    """Executes one kernel over host buffers, all launched work-groups
    as one lane vector (group by group only after a cross-group
    conflict).  Parameters mirror :class:`KernelExecutor`: the lowered
    function, buffers by pointer-argument name, scalars by name.

    Construction compiles the kernel (and raises
    :class:`VectorizationError` for pipe kernels or IR outside the
    supported subset); :meth:`run` executes an NDRange prefix and
    returns the scalar executor's :class:`LaunchResult`, with traces
    already packed columnar.
    """

    error_type = VectorizationError

    def __init__(self, fn: Function, buffers: Dict[str, Buffer],
                 scalars: Dict[str, object],
                 max_steps: Optional[int] = None) -> None:
        for inst in fn.instructions():
            if isinstance(inst, (PipeRead, PipeWrite)):
                raise VectorizationError(
                    f"kernel {fn.name!r} uses pipes: pipe kernels need "
                    f"FIFO co-execution, not lane vectorization")
        self.buffers = buffers
        self._bufs = list(buffers.values())
        self._flat = [b.data.reshape(-1) for b in self._bufs]
        #: register ids read by at least one instruction (atomics whose
        #: old value is never observed admit commutative reordering)
        self._used_regs = {
            id(v) for inst in fn.instructions() for v in inst.operands
            if isinstance(v, Register)}

        # Worst-case local arena: every local alloca 8-aligned past 64.
        cap = 64
        for inst in fn.instructions():
            if isinstance(inst, Alloca) and inst.space == AddressSpace.LOCAL:
                cap += max(inst.allocated.bytes, 1) + 8
        self._local_cap = cap
        #: a global atomic makes cross-group conflicts likely, so such
        #: kernels run group by group from the start
        self._global_atomics = any(
            isinstance(inst, Call) and inst.callee in KNOWN_ATOMICS
            and not (inst.operands
                     and isinstance(inst.operands[0].type, PointerType)
                     and inst.operands[0].type.space
                     == AddressSpace.LOCAL)
            for inst in fn.instructions())

        # Per-launch state, rebound by _run_lanes.
        self.regs_i: Dict[int, np.ndarray] = {}
        self.regs_f: Dict[int, np.ndarray] = {}
        self._local_i: Optional[np.ndarray] = None
        self._local_f: Optional[np.ndarray] = None
        #: lane -> physical start of its group's local arena
        self._local_base = np.zeros(0, np.int64)
        #: global/local element addresses touched by atomics this phase
        self._atomic_all: set = set()
        #: subset whose interleaving is observable (used old value or
        #: non-commutative op): no other atomic may overlap them
        self._atomic_strict: set = set()
        super().__init__(fn, buffers, scalars, max_steps)
        #: barrier sites are (block, segment) pairs, keyed as
        #: ``block * _seg_span + segment``
        self._seg_span = max((len(c.segments) for c in self._code),
                             default=0) + 1

    def _missing_argument(self, what: str, kind: str,
                          name: str) -> Exception:
        return ExecutionError(
            f"no {what} supplied for {kind} argument {name!r}")

    # -- run ---------------------------------------------------------------

    def run(self, ndrange: NDRange, max_groups: Optional[int] = None,
            record: bool = True, item_counts: bool = False
            ) -> LaunchResult:
        """Execute the NDRange (optionally only the first *max_groups*
        work-groups) and collect packed traces.  *item_counts* also
        fills :attr:`LaunchResult.item_block_counts`.  On any exception
        the buffers are restored to their pre-launch contents."""
        from repro.analysis.packed import PackedTraces

        result = LaunchResult()
        self._nd = ndrange
        self._record = record
        self._count_items = record and item_counts
        wg = ndrange.work_group_size
        gids = self._group_ids(ndrange, max_groups)
        snapshots = [b.data.copy() for b in self._bufs]
        try:
            merged = None
            if record and len(gids) > 1 and not self._global_atomics:
                merged = self._run_merged(gids, snapshots)
            runs = ([(len(gids), merged)] if merged is not None else
                    [(1, self._run_lanes([gid])) for gid in gids])
        except BaseException:
            self._restore(snapshots)
            raise
        packed = []
        for n_groups, (counts, group_hits, cols, _) in runs:
            result.groups_executed += n_groups
            result.work_items_executed += n_groups * wg
            if not record:
                continue
            for name, count in counts.items():
                result.block_counts[name] = (
                    result.block_counts.get(name, 0) + count)
            result.barriers_per_item = max(result.barriers_per_item,
                                           *group_hits)
            packed.extend(self._finish_groups(cols, n_groups))
        result.traces = PackedTraces(packed, wg)
        if self._count_items and runs:
            result.item_block_counts = self._item_counts(
                np.concatenate([run[3] for _, run in runs], axis=1),
                result.block_counts)
        result.trip_counts.update(finalize_trip_counts(
            self.fn, result.block_counts, result.work_items_executed))
        return result

    def _restore(self, snapshots) -> None:
        for buf, snap in zip(self._bufs, snapshots):
            np.copyto(buf.data, snap)

    def _run_merged(self, gids, snapshots):
        """Run every group in *gids* as one lane vector.  Returns None,
        with the buffers restored, when the merged run raised or its
        global traces show a cross-group conflict: the caller then
        reruns group by group in launch order."""
        try:
            run = self._run_lanes(gids)
        except Exception:
            # A cross-group conflict can also surface as an error; the
            # per-group rerun raises whatever launch order raises.
            run = None
        if run is None or self._cross_group_conflict(run[2]):
            self._restore(snapshots)
            return None
        return run

    def _cross_group_conflict(self, cols) -> bool:
        """True when a global address one group writes (atomics emit a
        write) is read or written by another group.  Without one, every
        group read only initial values or its own writes, so the merged
        run equals launch-order execution."""
        _, kind, _, space, _, lane, addr = cols
        return shared_global_write(kind, space, addr, lane // self._wg)

    def _run_lanes(self, gids):
        """Run the groups in *gids* together, one lane per work-item.
        Returns ``(block counts, lane-0 barrier hits per group, sorted
        event columns or None, per-lane block counters or None)``."""
        ndrange = self._nd
        n_groups = len(gids)
        self._bind_lanes(ndrange, gids)
        n = self._nlanes
        group = self._lane_group
        self.regs_i = {}
        self.regs_f = {}
        self.rspace = {}
        self._priv = {}
        self._pslots = {}
        self._priv_next = np.full(n, 64, np.int64)
        # One local arena per group, at a fixed physical stride: lanes
        # address their own group's arena with per-group offsets.
        self._local_base = group * self._local_cap
        self._local_i = np.zeros(n_groups * self._local_cap, np.int64)
        self._local_f = np.zeros(n_groups * self._local_cap, np.float64)
        self._events = []
        self._gl_hot = None
        self._atomic_all = set()
        self._atomic_strict = set()

        # Each lane's program counter is one key, ``block * span +
        # segment``; the lowest key runs next (lowest block first, then
        # lowest segment, as the executor's phase order needs).  Parked
        # lanes key PARK and keep their resume key in ``resume``;
        # retired lanes key DONE.
        span = self._seg_span
        park = self._done * span
        done = park + 1
        key = np.zeros(n, np.int64)
        resume = np.zeros(n, np.int64)
        barrier_hits = np.zeros(n, np.int64)
        steps = np.zeros(n, np.int64)
        # Upper bound on any live lane's steps since the last release:
        # the exact per-lane check only runs once it passes the limit.
        bound = 0
        phases = 0
        max_steps = self.max_steps
        counts: Dict[str, int] = {}
        lane_counts = self._lane_counters()

        while True:
            k = int(key.min())
            if k == done:
                break
            if k == park:
                # Every live lane is parked: release each group whose
                # parked lanes share one barrier site.  Parked lanes are
                # in lane order, so each group is a contiguous run.
                parked = key == park
                site = resume[parked]
                pg = group[parked]
                head = np.flatnonzero(np.r_[True, pg[1:] != pg[:-1]])
                if bool((site != np.repeat(
                        site[head], np.diff(np.r_[head, len(site)]))).any()):
                    raise VectorizationError(
                        "barrier reached under divergence: live lanes "
                        "parked at different barrier sites")
                phases += 1
                if phases > self.MAX_PHASES:
                    raise ExecutionError("work-group failed to converge "
                                         "(runaway barrier loop?)")
                steps[parked] = 0
                bound = 0
                key[parked] = site
                self._atomic_all.clear()
                self._atomic_strict.clear()
                continue
            idx = np.flatnonzero(key == k)
            cur, s = divmod(k, span)
            code = self._code[cur]
            if s == 0:
                counts[code.name] = counts.get(code.name, 0) + len(idx)
                if lane_counts is not None:
                    lane_counts[cur, idx] += 1
            segments = code.segments
            parked_here = False
            while s < len(segments):
                seg = segments[s]
                for op in seg.ops:
                    op(idx)
                if seg.barrier:
                    barrier_hits[idx] += 1
                    key[idx] = park
                    resume[idx] = k - k % span + s + 1
                    parked_here = True
                    break
                steps[idx] += seg.cost
                bound += seg.cost
                if bound > max_steps and int(steps[idx].max()) > max_steps:
                    raise ExecutionError("work-item exceeded step limit "
                                         "(infinite loop?)")
                s += 1
            if parked_here:
                continue
            term = code.term
            if term[0] == "ret":
                key[idx] = done
            elif term[0] == "br":
                key[idx] = term[1] * span
            else:  # cbr
                c = np.asarray(term[1](idx))
                key[idx] = np.where(c != 0, term[2] * span, term[3] * span)

        if not self._record:
            return counts, [], None, None
        # Lane 0 of each group mirrors the executor's per-group count.
        return (counts, [int(h) for h in barrier_hits[::self._wg]],
                self._sorted_events(), lane_counts)

    # -- operand access ----------------------------------------------------

    @staticmethod
    def _is_float_value(v: Value) -> bool:
        return bool(getattr(v.type, "is_float", False))

    def _getter(self, v: Value) -> Callable:
        """Pre-resolve one operand into an ``idx -> values`` callable
        (python scalar for uniform values, array slice otherwise)."""
        v = self._resolve(v)
        if isinstance(v, Constant):
            value = (float(v.value) if self._is_float_value(v)
                     else int(v.value))
            return lambda idx: value
        if isinstance(v, Argument):
            if id(v) in self._arg_addr:
                base = self._arg_addr[id(v)][0]
                return lambda idx: base
            value = self._arg_scalar[id(v)]
            return lambda idx: value
        if isinstance(v, Register):
            rid = id(v)
            if self._is_float_value(v):
                def get_register(idx, _v=v):
                    arr = self.regs_f.get(rid)
                    if arr is None:
                        raise ExecutionError(
                            f"use of undefined register {_v}")
                    return arr[idx]
            else:
                def get_register(idx, _v=v):
                    arr = self.regs_i.get(rid)
                    if arr is None:
                        raise ExecutionError(
                            f"use of undefined register {_v}")
                    return arr[idx]
            return get_register
        raise VectorizationError(f"cannot evaluate {v!r}")

    def _fgetter(self, v: Value) -> Callable:
        """A getter coerced to float64 (scalar executor: float(x))."""
        g = self._getter(v)
        if self._is_float_value(self._resolve(v)):
            return g
        if _is_u64(self._resolve(v).type):
            return lambda idx: _u64(np.asarray(g(idx))).astype(np.float64)

        def get_float(idx):
            val = g(idx)
            if isinstance(val, (int, float)):
                return float(val)
            return np.asarray(val, np.float64)
        return get_float

    def _setter(self, result: Register) -> Callable:
        rid = id(result)
        if self._is_float_value(result):
            def set_register(idx, val):
                arr = self.regs_f.get(rid)
                if arr is None:
                    arr = np.zeros(self._nlanes, np.float64)
                    self.regs_f[rid] = arr
                arr[idx] = val
        else:
            def set_register(idx, val):
                arr = self.regs_i.get(rid)
                if arr is None:
                    arr = np.zeros(self._nlanes, np.int64)
                    self.regs_i[rid] = arr
                arr[idx] = val
        return set_register

    def _global_fault(self, addrs: np.ndarray, ok: np.ndarray,
                      nbytes: int) -> None:
        bad = int(np.atleast_1d(addrs)[np.flatnonzero(~np.atleast_1d(ok))[0]])
        # Reproduces the executor's exact IndexError message.
        self.memory.load(bad, nbytes)
        raise IndexError(f"global address 0x{bad:x} rejected")

    def _guard_plain_global(self, addrs) -> None:
        """A plain access to an address an atomic touched this phase
        would observe the lockstep (not item-sequential) interleaving."""
        if not self._atomic_all:
            return
        for a in np.atleast_1d(np.asarray(addrs, np.int64)).tolist():
            if ("g", a) in self._atomic_all:
                raise VectorizationError(
                    "plain global access overlaps a same-phase atomic")

    def _global_gather(self, bi, a, lanes, is_float):
        if isinstance(bi, np.ndarray):
            out = np.zeros(len(lanes),
                           np.float64 if is_float else np.int64)
            for b in np.unique(bi):
                sel = bi == b
                out[sel] = self._gather_one(int(b), a[sel], is_float)
            return out
        return self._gather_one(int(bi), a, is_float)

    def _gather_one(self, b: int, a, is_float: bool):
        flat = self._flat[b]
        e = (np.asarray(a, np.int64) - int(self._bases[b])) \
            // int(self._elem[b])
        vals = flat[e]
        if is_float:
            return vals.astype(np.float64, copy=False) \
                if vals.dtype != np.float64 else vals
        if vals.dtype == np.uint64:
            return vals.view(np.int64)
        if vals.dtype.kind == "f":
            raise VectorizationError(
                "float buffer value loaded through an integer type")
        return vals.astype(np.int64, copy=False)

    def _global_scatter(self, bi, a, vals) -> None:
        if isinstance(bi, np.ndarray):
            va = np.asarray(vals)
            for b in np.unique(bi):
                sel = bi == b
                v = va[sel] if va.ndim else va
                self._scatter_one(int(b), a[sel], v)
            return
        self._scatter_one(int(bi), a, vals)

    def _scatter_one(self, b: int, a, vals) -> None:
        flat = self._flat[b]
        e = (np.asarray(a, np.int64) - int(self._bases[b])) \
            // int(self._elem[b])
        va = np.asarray(vals)
        if va.dtype.kind == "i" and flat.dtype == np.uint64:
            va = va.view(np.uint64) if va.dtype == np.int64 \
                else va.astype(np.uint64)
        # Duplicate element indices: numpy fancy assignment keeps the
        # last occurrence — ascending lane order, matching the scalar
        # executor where higher work-items store later in the phase.
        flat[e] = va

    def _local_gather(self, a, lanes, is_float: bool):
        arr = self._local_f if is_float else self._local_i
        aa = np.asarray(a, np.int64)
        if aa.ndim == 0:
            aa = np.full(len(lanes), int(aa), np.int64)
        ok = (aa >= 0) & (aa < self._local_cap)
        phys = aa + self._local_base[lanes]
        if bool(np.all(ok)):
            return arr[phys]
        # Out-of-arena local/constant reads mirror the scalar
        # executor's FlatSpace default: never-stored addresses read 0.
        out = np.zeros(len(aa), arr.dtype)
        out[ok] = arr[phys[ok]]
        return out

    def _local_scatter(self, a, lanes, vals, is_float: bool) -> None:
        arr = self._local_f if is_float else self._local_i
        aa = np.asarray(a, np.int64)
        if aa.ndim == 0:
            aa = np.full(len(lanes), int(aa), np.int64)
        if not bool(np.all((aa >= 0) & (aa < self._local_cap))):
            raise VectorizationError("local store outside the local arena")
        arr[aa + self._local_base[lanes]] = vals

    # -- private slots -----------------------------------------------------

    def _priv_load_at(self, addr, lanes, set_value, rid_space,
                      is_float) -> None:
        ent = self._priv.get(addr)
        if ent is None or not bool(ent[2][lanes].all()):
            raise IndexError(f"read of uninitialised address 0x{addr:x}")
        vals = self._slot_values(ent, lanes, is_float)
        set_value(lanes, vals)
        if rid_space is not None:
            if ent[3] is None:
                raise VectorizationError(
                    "non-pointer value loaded as pointer")
            self._set_space(rid_space, lanes, ent[3][lanes])

    @staticmethod
    def _slot_values(ent, lanes, is_float):
        iv, fv = ent[0], ent[1]
        if is_float:
            if fv is not None:
                return fv[lanes]
            if iv is not None:
                # Scalar executor keeps the stored int in a float-typed
                # register; the numeric value is identical.
                return iv[lanes].astype(np.float64)
        else:
            if iv is not None:
                return iv[lanes]
            if fv is not None:
                raise VectorizationError(
                    "float value loaded through an integer slot")
        raise IndexError("read of uninitialised address 0x0")

    # -- compilation -------------------------------------------------------

    def _compile(self, inst) -> Optional[Callable]:
        if id(inst) in self._skip:
            return None
        if isinstance(inst, Alloca):
            return self._c_alloca(inst)
        if isinstance(inst, BinaryOp):
            return self._c_binop(inst)
        if isinstance(inst, CompareOp):
            return self._c_compare(inst)
        if isinstance(inst, Cast):
            return self._c_cast(inst)
        if isinstance(inst, Select):
            return self._c_select(inst)
        if isinstance(inst, Load):
            return self._c_load(inst)
        if isinstance(inst, Store):
            return self._c_store(inst)
        if isinstance(inst, GetElementPtr):
            return self._c_gep(inst)
        if isinstance(inst, Call):
            return self._c_call(inst)
        raise VectorizationError(f"cannot vectorize {inst!r}")

    # -- arithmetic --------------------------------------------------------

    def _c_binop(self, inst: BinaryOp) -> Callable:
        t = inst.type
        set_ = self._setter(inst.result)
        opcode = inst.opcode
        if t.is_integer:
            ga, gb = self._getter(inst.lhs), self._getter(inst.rhs)
            return self._c_int_binop(opcode, t, ga, gb, set_)
        ga, gb = self._fgetter(inst.lhs), self._fgetter(inst.rhs)
        if opcode == "fadd":
            def op(idx):
                set_(idx, np.asarray(ga(idx)) + gb(idx))
        elif opcode == "fsub":
            def op(idx):
                set_(idx, np.asarray(ga(idx)) - gb(idx))
        elif opcode == "fmul":
            def op(idx):
                set_(idx, np.asarray(ga(idx)) * gb(idx))
        elif opcode == "fdiv":
            def op(idx):
                a = np.asarray(ga(idx), np.float64)
                b = np.asarray(gb(idx), np.float64)
                a, b = np.broadcast_arrays(a, b)
                zero = b == 0.0
                with np.errstate(all="ignore"):
                    if not zero.any():
                        set_(idx, a / b)
                        return
                    # The scalar executor's _float_div: the sign of the
                    # *numerator* decides (b == -0.0 still yields +inf
                    # for a > 0).
                    safe = a / np.where(zero, 1.0, b)
                    r = np.where(
                        zero,
                        np.where(a > 0, math.inf,
                                 np.where(a < 0, -math.inf, math.nan)),
                        safe)
                set_(idx, r)
        elif opcode == "frem":
            def op(idx):
                a = np.asarray(ga(idx), np.float64)
                b = np.asarray(gb(idx), np.float64)
                a, b = np.broadcast_arrays(a, b)
                if bool(np.isfinite(a).all()) and not bool((b == 0).any()):
                    with np.errstate(all="ignore"):
                        set_(idx, np.fmod(a, b))
                    return
                set_(idx, np.array(
                    [math.fmod(x, y)
                     for x, y in zip(a.tolist(), b.tolist())], np.float64))
        else:
            raise VectorizationError(f"unknown binop {opcode!r}")
        return op

    def _c_int_binop(self, opcode, t, ga, gb, set_) -> Callable:
        bits, signed = t.bits, t.is_signed
        u64 = _is_u64(t)
        if opcode in ("add", "sub", "mul", "and", "or", "xor"):
            import operator as _op
            fn = {"add": _op.add, "sub": _op.sub, "mul": _op.mul,
                  "and": _op.and_, "or": _op.or_, "xor": _op.xor}[opcode]

            def op(idx):
                set_(idx, _mask_val(fn(np.asarray(ga(idx)),
                                       np.asarray(gb(idx))),
                                    bits, signed))
        elif opcode in ("div", "rem"):
            want_rem = opcode == "rem"

            def op(idx):
                a, b = np.asarray(ga(idx)), np.asarray(gb(idx))
                if bool(np.any(b == 0)):
                    raise ExecutionError(
                        "integer remainder by zero" if want_rem
                        else "integer division by zero")
                if u64:
                    au, bu = _u64(a), _u64(b)
                    q = au // bu
                    r = _i64(au - q * bu) if want_rem else _i64(q)
                else:
                    q = np.abs(a) // np.abs(b)
                    q = np.where((a >= 0) == (b >= 0), q, -q)
                    r = a - q * b if want_rem else q
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
            raise VectorizationError(f"unknown binop {opcode!r}")
        return op

    def _c_cast(self, inst: Cast) -> Callable:
        set_ = self._setter(inst.result)
        rid = id(inst.result)
        kind = inst.kind
        t = inst.type
        src = self._resolve(inst.value)
        src_float = self._is_float_value(src)
        is_ptr = isinstance(t, PointerType)
        if kind == "ptrcast" or (kind == "bitcast" and is_ptr):
            get_v = self._getter(inst.value)
            gsp = (self._space_getter(inst.value)
                   if isinstance(src.type, PointerType) else None)

            def op(idx):
                set_(idx, get_v(idx))
                if gsp is not None:
                    self._set_space(rid, idx, gsp(idx))
        elif kind == "bitcast":
            if t.is_integer:
                if src_float:
                    # Scalar executor passes floats through an integer
                    # bitcast unmasked — a float-typed value in an
                    # int register is outside our typed lanes.
                    raise VectorizationError(
                        "float value through integer bitcast")
                get_v = self._getter(inst.value)
                bits, signed = t.bits, t.is_signed

                def op(idx):
                    set_(idx, _mask_val(np.asarray(get_v(idx)),
                                        bits, signed))
            else:
                get_v = self._fgetter(inst.value)

                def op(idx):
                    set_(idx, get_v(idx))
        elif kind in ("sitofp", "uitofp"):
            get_v = self._getter(inst.value)
            vu64 = _is_u64(src.type)

            def op(idx):
                v = np.asarray(get_v(idx))
                if vu64:
                    v = _u64(v)
                set_(idx, v.astype(np.float64))
        elif kind in ("fptosi", "fptoui", "trunc", "zext", "sext"):
            bits, signed = t.bits, t.is_signed
            if src_float:
                get_v = self._fgetter(inst.value)

                def op(idx):
                    v = np.asarray(get_v(idx), np.float64)
                    finite = np.isfinite(v)
                    if bool(finite.all()) \
                            and bool((np.abs(v) < 2.0 ** 62).all()):
                        r = v.astype(np.int64)
                    else:
                        # int(x) on NaN/inf raises exactly as the
                        # scalar executor's int() conversion does.
                        r = np.array([int(x) if math.isfinite(x)
                                      else int(x)
                                      for x in v.tolist()], np.int64)
                    set_(idx, _mask_val(r, bits, signed))
            else:
                get_v = self._getter(inst.value)

                def op(idx):
                    set_(idx, _mask_val(np.asarray(get_v(idx)),
                                        bits, signed))
        elif kind in ("fpext", "fptrunc"):
            get_v = self._fgetter(inst.value)
            if t.bits == 32:
                def op(idx):
                    v = np.asarray(get_v(idx), np.float64)
                    set_(idx, v.astype(np.float32).astype(np.float64))
            else:
                def op(idx):
                    set_(idx, get_v(idx))
        else:
            raise VectorizationError(f"unknown cast {kind!r}")
        return op

    def _c_select(self, inst: Select) -> Callable:
        gc = self._getter(inst.operands[0])
        is_float = self._is_float_value(inst.result) \
            if inst.result is not None else False
        if is_float:
            ga = self._fgetter(inst.operands[1])
            gb = self._fgetter(inst.operands[2])
        else:
            ga = self._getter(inst.operands[1])
            gb = self._getter(inst.operands[2])
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

    # -- memory ------------------------------------------------------------

    def _c_load(self, inst: Load) -> Callable:
        if isinstance(inst.pointer, Register) \
                and id(inst.pointer) in self._promoted:
            return self._c_promoted_load(inst)
        gp = self._getter(inst.pointer)
        gsp = self._space_getter(inst.pointer)
        nbytes = max(inst.type.bytes, 1)
        site = self._site_of.get(id(inst), -1)
        is_float = inst.type.is_float
        set_ = self._setter(inst.result)
        rid_space = (id(inst.result)
                     if isinstance(inst.type, PointerType) else None)

        def op(idx):
            addr = gp(idx)
            for code, lanes, a in self._split(idx, gsp(idx), addr):
                if code == _PRIV:
                    self._priv_load(lanes, a, set_, rid_space, is_float)
                elif code in (_LOC, _CONST):
                    self._emit(site, _PK_READ, nbytes, _PK_LOCAL,
                               self._local_buf_index, lanes, a)
                    set_(lanes, self._local_gather(a, lanes, is_float))
                else:
                    self._guard_plain_global(a)
                    bi, aa = self._global_locate(a, nbytes)
                    self._emit(site, _PK_READ, nbytes, _PK_GLOBAL,
                               bi, lanes, aa)
                    set_(lanes, self._global_gather(bi, aa, lanes,
                                                    is_float))
        return op

    def _c_store(self, inst: Store) -> Callable:
        if isinstance(inst.pointer, Register) \
                and id(inst.pointer) in self._promoted:
            return self._c_promoted_store(inst)
        gp = self._getter(inst.pointer)
        gsp = self._space_getter(inst.pointer)
        nbytes = max(inst.value.type.bytes, 1)
        site = self._site_of.get(id(inst), -1)
        is_float = self._is_float_value(self._resolve(inst.value))
        gv = self._getter(inst.value)
        vsp = (self._space_getter(inst.value)
               if isinstance(self._resolve(inst.value).type, PointerType)
               else None)

        def op(idx):
            addr = gp(idx)
            vals = gv(idx)
            for code, lanes, a in self._split(idx, gsp(idx), addr):
                sel = None
                if len(lanes) != len(idx):
                    sel = np.isin(idx, lanes)
                v = vals[sel] if (sel is not None
                                  and isinstance(vals, np.ndarray)) else vals
                if code == _PRIV:
                    s = vsp(idx) if vsp is not None else None
                    if sel is not None and isinstance(s, np.ndarray):
                        s = s[sel]
                    self._priv_store(lanes, a, v, s, is_float)
                elif code in (_LOC, _CONST):
                    self._emit(site, _PK_WRITE, nbytes, _PK_LOCAL,
                               self._local_buf_index, lanes, a)
                    self._local_scatter(a, lanes, v, is_float)
                else:
                    self._guard_plain_global(a)
                    bi, aa = self._global_locate(a, nbytes)
                    self._emit(site, _PK_WRITE, nbytes, _PK_GLOBAL,
                               bi, lanes, aa)
                    self._global_scatter(bi, aa, v)
        return op

    def _c_promoted_load(self, inst: Load) -> Callable:
        sid = id(inst.pointer)
        set_ = self._setter(inst.result)
        is_float = inst.type.is_float
        rid_space = (id(inst.result)
                     if isinstance(inst.type, PointerType) else None)

        def op(idx):
            ent = self._pslots.get(sid)
            if ent is None or not (ent[4] or bool(ent[2][idx].all())):
                raise IndexError("read of uninitialised address 0x40")
            set_(idx, self._slot_values(ent, idx, is_float))
            if rid_space is not None:
                if ent[3] is None:
                    raise VectorizationError(
                        "non-pointer value loaded as pointer")
                self._set_space(rid_space, idx, ent[3][idx])
        return op

    # -- calls -------------------------------------------------------------

    def _c_call(self, inst: Call) -> Optional[Callable]:
        name = inst.callee
        if name in KNOWN_ATOMICS:
            return self._c_atomic(inst)
        if name in GEOMETRY_BUILTINS:
            if inst.result is None:
                return None
            d = 0
            if inst.operands:
                o = self._resolve(inst.operands[0])
                if isinstance(o, Constant):
                    d = int(o.value)
                else:
                    return self._c_geometry_dyn(name, inst)
            return self._c_geometry(name, d, self._setter(inst.result))
        return self._c_math(name, inst)

    def _c_geometry_dyn(self, name: str, inst: Call) -> Callable:
        """Geometry builtin with a runtime dimension operand: evaluate
        per unique dimension value."""
        gd = self._getter(inst.operands[0])
        set_ = self._setter(inst.result)
        per_dim = [self._c_geometry(name, d, set_) for d in range(3)]

        def op(idx):
            d = np.asarray(gd(idx))
            if d.ndim == 0:
                per_dim[min(int(d), 2)](idx)
                return
            for dv in np.unique(d):
                per_dim[min(int(dv), 2)](idx[d == dv])
        return op

    def _lanewise(self, fn, idx, *vals):
        n = len(idx)
        cols = []
        for v in vals:
            a = np.asarray(v, np.float64)
            if a.ndim == 0:
                a = np.full(n, float(a), np.float64)
            cols.append(a.astype(np.float64, copy=False))
        return np.array([fn(*t) for t in
                         zip(*(c.tolist() for c in cols))], np.float64)

    def _c_math(self, name: str, inst: Call) -> Optional[Callable]:
        """Float and integer-capable math builtins.  Vectorized paths
        are used only where numpy provably matches the scalar
        executor's Python arithmetic bit-for-bit; transcendentals run
        per-lane through the same ``math`` functions."""
        if inst.result is None:
            # A known builtin whose result is discarded has no
            # observable effect (traces only come from memory ops).
            return None
        set_ = self._setter(inst.result)
        res_float = self._is_float_value(inst.result)

        if name in _LANEWISE_1:
            fn = _LANEWISE_1[name]
            gx = self._fgetter(inst.operands[0])

            def op(idx):
                set_(idx, self._lanewise(fn, idx, gx(idx)))
            return op
        if name in _LANEWISE_2:
            fn = _LANEWISE_2[name]
            gx = self._fgetter(inst.operands[0])
            gy = self._fgetter(inst.operands[1])

            def op(idx):
                set_(idx, self._lanewise(fn, idx, gx(idx), gy(idx)))
            return op

        if name in ("sqrt", "native_sqrt", "rsqrt", "native_rsqrt"):
            gx = self._fgetter(inst.operands[0])
            recip = name in ("rsqrt", "native_rsqrt")

            def op(idx):
                v = np.asarray(gx(idx), np.float64)
                if bool((v < 0).any()):
                    raise ValueError("math domain error")
                r = np.sqrt(v)
                if recip:
                    if bool((r == 0).any()):
                        raise ZeroDivisionError("float division by zero")
                    r = 1.0 / r
                set_(idx, r)
            return op
        if name == "fabs":
            gx = self._fgetter(inst.operands[0])

            def op(idx):
                set_(idx, np.abs(np.asarray(gx(idx), np.float64)))
            return op
        if name in ("floor", "ceil", "trunc", "round"):
            gx = self._fgetter(inst.operands[0])
            vec = {"floor": np.floor, "ceil": np.ceil,
                   "trunc": np.trunc, "round": np.rint}[name]
            ref = {"floor": math.floor, "ceil": math.ceil,
                   "trunc": math.trunc,
                   "round": lambda x: float(round(x))}[name]

            def op(idx):
                v = np.asarray(gx(idx), np.float64)
                if bool(np.isfinite(v).all()):
                    set_(idx, vec(v))
                else:
                    # math.floor/ceil/trunc/round raise on inf/NaN
                    # exactly like the scalar executor.
                    set_(idx, self._lanewise(ref, idx, v))
            return op
        if name == "native_recip":
            gx = self._fgetter(inst.operands[0])

            def op(idx):
                v = np.asarray(gx(idx), np.float64)
                if bool((v == 0).any()):
                    raise ZeroDivisionError("float division by zero")
                set_(idx, 1.0 / v)
            return op
        if name == "sign":
            gx = self._fgetter(inst.operands[0])

            def op(idx):
                v = np.asarray(gx(idx), np.float64)
                set_(idx, (v > 0).astype(np.float64)
                     - (v < 0).astype(np.float64))
            return op
        if name in ("fmin", "fmax"):
            ga = self._fgetter(inst.operands[0])
            gb = self._fgetter(inst.operands[1])
            is_min = name == "fmin"

            def op(idx):
                a = np.asarray(ga(idx), np.float64)
                b = np.asarray(gb(idx), np.float64)
                # Python min(a, b) returns b only when b < a — NaN
                # behavior matches np.where, not np.fmin.
                set_(idx, np.where(b < a, b, a) if is_min
                     else np.where(b > a, b, a))
            return op
        if name == "fmod":
            ga = self._fgetter(inst.operands[0])
            gb = self._fgetter(inst.operands[1])

            def op(idx):
                a = np.asarray(ga(idx), np.float64)
                b = np.asarray(gb(idx), np.float64)
                a, b = np.broadcast_arrays(a, b)
                if bool(np.isfinite(a).all()) and not bool((b == 0).any()):
                    with np.errstate(all="ignore"):
                        set_(idx, np.fmod(a, b))
                else:
                    set_(idx, self._lanewise(math.fmod, idx, a, b))
            return op
        if name == "native_divide":
            ga = self._fgetter(inst.operands[0])
            gb = self._fgetter(inst.operands[1])

            def op(idx):
                a = np.asarray(ga(idx), np.float64)
                b = np.asarray(gb(idx), np.float64)
                if bool((b == 0).any()):
                    raise ZeroDivisionError("float division by zero")
                set_(idx, a / b)
            return op
        if name == "step":
            ge = self._fgetter(inst.operands[0])
            gx = self._fgetter(inst.operands[1])

            def op(idx):
                e = np.asarray(ge(idx), np.float64)
                x = np.asarray(gx(idx), np.float64)
                set_(idx, np.where(x < e, 0.0, 1.0))
            return op
        if name in ("mad", "fma"):
            gx = self._fgetter(inst.operands[0])
            gy = self._fgetter(inst.operands[1])
            gz = self._fgetter(inst.operands[2])

            def op(idx):
                # Unfused multiply-add, matching the scalar executor.
                set_(idx, np.asarray(gx(idx), np.float64) * gy(idx)
                     + gz(idx))
            return op
        if name == "mix":
            gx = self._fgetter(inst.operands[0])
            gy = self._fgetter(inst.operands[1])
            gt = self._fgetter(inst.operands[2])

            def op(idx):
                x = np.asarray(gx(idx), np.float64)
                set_(idx, x + (np.asarray(gy(idx), np.float64) - x)
                     * gt(idx))
            return op

        # Integer-capable builtins (min/max/abs/clamp/mul24/mad24):
        # typed by the result.  np.where(b > a, b, a) reproduces
        # Python's max for both ints and floats (incl. NaN ordering).
        if name in ("min", "max"):
            get = self._fgetter if res_float else self._getter
            ga, gb = get(inst.operands[0]), get(inst.operands[1])
            is_min = name == "min"

            def op(idx):
                a, b = np.asarray(ga(idx)), np.asarray(gb(idx))
                set_(idx, np.where(b < a, b, a) if is_min
                     else np.where(b > a, b, a))
            return op
        if name == "abs":
            get = self._fgetter if res_float else self._getter
            ga = get(inst.operands[0])

            def op(idx):
                set_(idx, np.abs(np.asarray(ga(idx))))
            return op
        if name == "clamp":
            get = self._fgetter if res_float else self._getter
            gx, glo, ghi = (get(o) for o in inst.operands)

            def op(idx):
                x = np.asarray(gx(idx))
                lo = np.asarray(glo(idx))
                hi = np.asarray(ghi(idx))
                t = np.where(lo > x, lo, x)        # max(x, lo)
                set_(idx, np.where(hi < t, hi, t))  # min(., hi)
            return op
        if name == "mul24":
            ga = self._getter(inst.operands[0])
            gb = self._getter(inst.operands[1])

            def op(idx):
                set_(idx, _mask_val(np.asarray(ga(idx))
                                    * np.asarray(gb(idx)), 32, True))
            return op
        if name == "mad24":
            ga = self._getter(inst.operands[0])
            gb = self._getter(inst.operands[1])
            gc = self._getter(inst.operands[2])

            def op(idx):
                set_(idx, _mask_val(np.asarray(ga(idx))
                                    * np.asarray(gb(idx))
                                    + np.asarray(gc(idx)), 32, True))
            return op
        raise VectorizationError(f"unknown builtin {name!r}")

    # -- atomics -----------------------------------------------------------

    def _c_atomic(self, inst: Call) -> Callable:
        name = inst.callee
        if not inst.operands:
            raise VectorizationError("atomic with no operands")
        gp = self._getter(inst.operands[0])
        gsp = self._space_getter(inst.operands[0])
        arg_getters = [self._getter(o) for o in inst.operands[1:]]
        site = self._site_of.get(id(inst), -1)
        nbytes = 4
        result = inst.result
        set_ = self._setter(result) if result is not None else None
        res_float = (self._is_float_value(result)
                     if result is not None else False)
        observed = result is not None and id(result) in self._used_regs
        strict = observed or name not in _COMMUTATIVE_ATOMICS

        def op(idx):
            addr = gp(idx)
            args = [np.asarray(g(idx)) for g in arg_getters]
            for code, lanes, a in self._split(idx, gsp(idx), addr):
                sel = None
                if len(lanes) != len(idx):
                    sel = np.isin(idx, lanes)
                lane_args = [ar[sel] if (sel is not None and ar.ndim)
                             else ar for ar in args]
                if code == _LOC:
                    self._atomic_lanes(name, "l", None, a, lanes,
                                       lane_args, set_, res_float,
                                       strict, site, emit=False)
                else:
                    bi, aa = self._global_locate(a, nbytes)
                    self._emit(site, _PK_READ, nbytes, _PK_GLOBAL,
                               bi, lanes, aa)
                    self._atomic_lanes(name, "g", bi, aa, lanes,
                                       lane_args, set_, res_float,
                                       strict, site, emit=False)
                    self._emit(site, _PK_WRITE, nbytes, _PK_GLOBAL,
                               bi, lanes, aa)
        return op

    def _atomic_lanes(self, name, tag, bi, addrs, lanes, args, set_,
                      res_float, strict, site, emit) -> None:
        a = np.atleast_1d(np.asarray(addrs, np.int64))
        if a.shape[0] == 1 and len(lanes) > 1:
            a = np.full(len(lanes), int(a[0]), np.int64)
        # Local keys are physical: each group has its own arena.
        phys = a + self._local_base[lanes] if tag == "l" else a
        keys = [(tag, int(x)) for x in phys.tolist()]
        if strict:
            # An observed (or non-commutative) atomic is ordered: any
            # same-phase overlap with another atomic step would expose
            # the lockstep schedule.
            if any(k in self._atomic_all for k in keys):
                raise VectorizationError(
                    "same-phase atomic address reuse with an observed "
                    "or non-commutative atomic")
            self._atomic_strict.update(keys)
        elif any(k in self._atomic_strict for k in keys):
            raise VectorizationError(
                "same-phase atomic address reuse with an observed "
                "or non-commutative atomic")
        self._atomic_all.update(keys)

        olds = []
        # Per-lane in ascending lane (= work-item) order: within one
        # step this matches the scalar executor's phase order.
        for k in range(len(lanes)):
            if tag == "l":
                addr = int(a[k])
                if not 0 <= addr < self._local_cap:
                    raise VectorizationError(
                        "local atomic outside the local arena")
                addr += int(self._local_base[lanes[k]])
                old = int(self._local_i[addr])
                new = self._atomic_new(name, old, args, k)
                self._local_i[addr] = new
                olds.append(old)
            else:
                b = int(bi[k]) if isinstance(bi, np.ndarray) else int(bi)
                flat = self._flat[b]
                e = (int(a[k]) - int(self._bases[b])) \
                    // int(self._elem[b])
                old = flat[e].item()
                new = self._atomic_new(name, old, args, k)
                flat[e] = new
                olds.append(old)
        if set_ is not None:
            if res_float:
                set_(lanes, np.array([float(v) for v in olds],
                                     np.float64))
            else:
                set_(lanes, np.array(
                    [_mask_scalar(int(v), 64, True) for v in olds],
                    np.int64))

    @staticmethod
    def _atomic_new(name, old, args, k):
        def arg(i):
            v = args[i]
            x = v[k] if isinstance(v, np.ndarray) and v.ndim else v
            return x.item() if isinstance(x, np.generic) else x

        if name == "atomic_add":
            return old + arg(0)
        if name == "atomic_sub":
            return old - arg(0)
        if name == "atomic_inc":
            return old + 1
        if name == "atomic_dec":
            return old - 1
        if name == "atomic_min":
            return min(old, arg(0))
        if name == "atomic_max":
            return max(old, arg(0))
        if name == "atomic_xchg":
            return arg(0)
        if name == "atomic_cmpxchg":
            return arg(1) if old == arg(0) else old
        raise ExecutionError(f"unknown atomic {name!r}")
