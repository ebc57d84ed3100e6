"""The summary engine: whole-kernel STATIC/IRREGULAR verdicts plus
closed-form access summaries.

``summarize_kernel`` discharges, per kernel, the proof obligations the
trace synthesizer needs:

- every branch condition is deterministic (else the executed path — and
  with it the trace — depends on memory contents);
- every traced (global/local/constant) load, store, and atomic has a
  deterministic address whose buffer can be identified;
- every call is a builtin the execution model knows;
- ``__local`` allocas sit in the entry block (their shared allocation
  order is then program order, which the synthesizer replicates).

When all obligations hold the verdict is ``STATIC`` and each access
site gets an :class:`~repro.lint.summary.model.AccessSummary` — affine
where :class:`~repro.lint.affine.AffineAnalysis` recovers a linear
form, ``deterministic`` otherwise.  Any failure yields ``IRREGULAR``
with machine-readable reasons.

The summary depends on the IR alone — not the NDRange, buffers, or
device — so it is memoized on the function and one analysis serves
every design point of a DSE sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.keys import digest, function_fingerprint
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    Call,
    CondBranch,
    Load,
    PipeRead,
    PipeWrite,
    Store,
)
from repro.ir.types import AddressSpace, PointerType
from repro.lint.affine import AffineAnalysis
from repro.lint.summary.classify import Classifier, classify_function
from repro.lint.summary.model import (
    AccessSummary,
    IrregularReason,
    KernelSummary,
    LoopSummary,
    PipeSummary,
    VERDICT_IRREGULAR,
    VERDICT_STATIC,
)

#: Bump when verdict or summary semantics change: the version joins
#: every analysis cache key, so old cache entries become unreachable
#: rather than wrong.
SUMMARY_ENGINE_VERSION = 1

_TRACED_SPACES = (AddressSpace.GLOBAL, AddressSpace.LOCAL,
                  AddressSpace.CONSTANT)


def _known_builtins() -> frozenset:
    from repro.interp.executor import KNOWN_BUILTINS
    return KNOWN_BUILTINS


def summarize_kernel(fn: Function) -> KernelSummary:
    """Memoized whole-kernel summary of *fn*."""
    cached = getattr(fn, "_access_summary", None)
    if cached is None:
        cached = _summarize(fn)
        fn._access_summary = cached  # type: ignore[attr-defined]
    return cached


def summarize_module(module) -> Dict[str, KernelSummary]:
    """Summaries for every kernel in a module, keyed by kernel name."""
    return {k.name: summarize_kernel(k) for k in module.kernels}


def _summarize(fn: Function) -> KernelSummary:
    cls = classify_function(fn)
    aff = AffineAnalysis(fn)
    headers = {m.header for m in getattr(fn, "loop_meta", [])}
    sites = {id(inst): i for i, inst in enumerate(fn.instructions())}
    known = _known_builtins()

    reasons: List[IrregularReason] = []
    accesses: List[AccessSummary] = []
    pipes: List[PipeSummary] = []

    def irregular(code: str, where: str, detail: str) -> None:
        reasons.append(IrregularReason(code, where, detail or ""))

    entry = fn.entry
    for block in fn.reachable_blocks():
        term = block.terminator
        if isinstance(term, CondBranch):
            why = cls.value_reason(term.cond)
            if why is not None:
                # Attribute a loop-controlling condition to its header
                # (the condition may sit in the header or, for do-while
                # loops, in a latch branching back to it).
                succs = {s.name for s in block.successors()}
                if block.name in headers:
                    irregular("data-dependent-loop", block.name, why)
                elif succs & headers:
                    irregular("data-dependent-loop",
                              sorted(succs & headers)[0], why)
                else:
                    irregular("data-dependent-branch", block.name, why)
        for inst in block.instructions:
            if isinstance(inst, Alloca):
                if inst.space == AddressSpace.LOCAL and block is not entry:
                    irregular("dynamic-local-alloca", block.name,
                              inst.var_name)
            elif isinstance(inst, (Load, Store)):
                if inst.space in _TRACED_SPACES:
                    ptr = inst.pointer
                    acc = _summarize_access(inst, ptr, sites, cls, aff)
                    accesses.append(acc)
                    if acc.tier == "irregular":
                        root, _ = cls.pointer_root(ptr)
                        code = ("pointer-escape" if root is None
                                else "data-dependent-address")
                        irregular(code, f"site {acc.site}", acc.reason)
            elif isinstance(inst, (PipeRead, PipeWrite)):
                # A blocking FIFO op couples this kernel's schedule to
                # another kernel's: the trace is not a function of this
                # kernel alone, so the verdict is IRREGULAR and ground
                # truth comes from program co-execution.
                kind = "read" if isinstance(inst, PipeRead) else "write"
                pipes.append(PipeSummary(
                    site=sites.get(id(inst), -1),
                    kind=kind,
                    channel=inst.channel.name,
                    elem_bytes=max(inst.channel.elem_type.bytes, 1),
                    block=block.name,
                    tokens_per_item=_static_site_trips(fn, block),
                ))
                irregular(f"pipe-{kind}", block.name, inst.channel.name)
            elif isinstance(inst, Call):
                name = inst.callee
                if name not in known:
                    irregular("unsupported-call", block.name, name)
                elif name.startswith("atomic_"):
                    accesses.extend(_summarize_atomic(
                        inst, sites, cls, aff, irregular))
    loops = _summarize_loops(fn, reasons)
    verdict = VERDICT_STATIC if not reasons else VERDICT_IRREGULAR
    return KernelSummary(
        name=fn.name,
        verdict=verdict,
        reasons=reasons,
        accesses=accesses,
        loops=loops,
        pipes=pipes,
        fingerprint=digest("summary", SUMMARY_ENGINE_VERSION,
                           function_fingerprint(fn)),
        engine_version=SUMMARY_ENGINE_VERSION,
    )


def _static_site_trips(fn: Function, block) -> Optional[int]:
    """Channel ops one work-item performs at a site in *block*: the
    product of the statically proven trip counts of every loop the
    block sits in, or ``None`` if any enclosing trip count is unknown.
    """
    from repro.lint.cfg import block_by_name, dominators, natural_loop

    metas = getattr(fn, "loop_meta", [])
    if not metas:
        return 1
    dom = dominators(fn)
    trips = 1
    for meta in metas:
        header = block_by_name(fn, meta.header)
        if header is None or id(block) not in natural_loop(fn, header, dom):
            continue
        if meta.static_trip_count is None:
            return None
        trips *= int(meta.static_trip_count)
    return trips


#: symbol vocabulary an affine-tier index may mention (see
#: repro.lint.affine): id symbols, launch geometry, scalar arguments,
#: and loop-variable slots — but no opaque reg:/mem: placeholders.
_AFFINE_PREFIXES = ("lid", "gid", "grp", "lsz", "gsz", "ngrp",
                    "arg:", "var:")


def _affine_index(index) -> bool:
    if index is None:
        return False
    for sym, _ in index.terms:
        if sym == "wdim":
            continue
        if not sym.startswith(_AFFINE_PREFIXES):
            return False
    return True


def _summarize_access(inst, ptr, sites: Dict[int, int],
                      cls: Classifier, aff: AffineAnalysis
                      ) -> AccessSummary:
    if isinstance(inst, Load):
        kind, nbytes = "read", max(inst.type.bytes, 1)
    else:
        kind, nbytes = "write", max(inst.value.type.bytes, 1)
    space = ("local" if inst.space in (AddressSpace.LOCAL,
                                       AddressSpace.CONSTANT)
             else "global")
    root, index = aff.pointer_root(ptr)
    buffer = "__local" if space == "local" else aff.buffer_name(root)
    why = cls.value_reason(ptr)
    if why is not None:
        tier = "irregular"
    elif _affine_index(index):
        tier = "affine"
    else:
        tier = "deterministic"
    stride_elems = aff.wi_stride(index) if tier == "affine" else None
    return AccessSummary(
        site=sites.get(id(inst), -1),
        kind=kind, space=space, buffer=buffer, nbytes=nbytes,
        tier=tier,
        index=str(index) if tier == "affine" else None,
        wi_stride=(None if stride_elems is None
                   else stride_elems * nbytes),
        bounds=aff.expr_bounds(index) if tier != "irregular" else (None, None),
        reason=why or "",
    )


def _summarize_atomic(inst: Call, sites, cls, aff, irregular
                      ) -> List[AccessSummary]:
    """Global atomics trace one read and one write (4 bytes each);
    local atomics are untraced by the execution model."""
    if not inst.operands:
        return []
    ptr = inst.operands[0]
    if not isinstance(ptr.type, PointerType) \
            or ptr.type.space == AddressSpace.LOCAL:
        return []
    site = sites.get(id(inst), -1)
    root, index = aff.pointer_root(ptr)
    why = cls.value_reason(ptr)
    if why is not None:
        code = ("pointer-escape" if cls.pointer_root(ptr)[0] is None
                else "data-dependent-address")
        irregular(code, f"site {site}", why)
        tier = "irregular"
    elif _affine_index(index):
        tier = "affine"
    else:
        tier = "deterministic"
    buffer = aff.buffer_name(root)
    common = dict(
        site=site, space="global", buffer=buffer, nbytes=4, tier=tier,
        index=str(index) if tier == "affine" else None,
        wi_stride=None,
        bounds=aff.expr_bounds(index) if tier != "irregular" else (None, None),
        reason=why or "",
    )
    return [AccessSummary(kind="read", **common),
            AccessSummary(kind="write", **common)]


def _summarize_loops(fn: Function,
                     reasons: List[IrregularReason]) -> List[LoopSummary]:
    irregular_headers = {r.where for r in reasons
                         if r.code == "data-dependent-loop"}
    out: List[LoopSummary] = []
    for meta in getattr(fn, "loop_meta", []):
        if meta.header in irregular_headers:
            bound = "irregular"
            trip: Optional[int] = None
        elif meta.static_trip_count is not None:
            bound = "static"
            trip = int(meta.static_trip_count)
        else:
            bound = "deterministic"
            trip = None
        out.append(LoopSummary(header=meta.header, line=meta.line,
                               bound=bound, trip_count=trip))
    return out
