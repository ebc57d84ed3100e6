"""Data model of the access-summary engine: verdicts, reasons, and the
per-access / per-loop / per-kernel summary records.

The lattice the engine works over (documented in
``docs/STATIC_ANALYSIS.md``) is three-tiered:

    AFFINE  ⊂  DETERMINISTIC  ⊂  IRREGULAR

- ``affine``: the byte index is a linear form over the id symbols
  (``gid``/``lid``/``grp``/sizes), scalar arguments, and loop
  variables — the closed form the paper's Table 1 reasoning wants;
- ``deterministic``: not affine (integer division, modulo, shifts,
  selects...), but still a pure function of the launch geometry and
  the scalar arguments — the trace synthesizer can evaluate it without
  interpretation;
- ``irregular``: the value depends on memory contents (or on floats,
  atomics, an unsupported call...) — only the interpreter can recover
  the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

VERDICT_STATIC = "static"
VERDICT_IRREGULAR = "irregular"

#: The machine-readable verdict taxonomy.  Every IRREGULAR verdict
#: carries at least one reason drawn from this closed set, so golden
#: lists (and the CI coverage gate) can match on codes, not prose.
REASON_CODES = (
    "data-dependent-branch",     # an `if` condition reads memory/floats
    "data-dependent-loop",       # a loop bound/condition does
    "data-dependent-address",    # a traced address does
    "pointer-escape",            # a pointer's buffer cannot be resolved
    "unsupported-call",          # callee outside the modelled builtins
    "dynamic-local-alloca",      # __local alloca outside the entry block
    "pipe-read",                 # kernel pops a FIFO channel
    "pipe-write",                # kernel pushes a FIFO channel
)


@dataclass(frozen=True)
class IrregularReason:
    """One failed proof obligation."""

    code: str          # one of REASON_CODES
    where: str         # block name or "site <n>"
    detail: str = ""   # leaf cause, e.g. "global-load", "float"

    def __str__(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.code} at {self.where}{tail}"


@dataclass(frozen=True)
class AccessSummary:
    """Closed-form summary of one static load/store site."""

    site: int
    kind: str                    # 'read' | 'write'
    space: str                   # 'global' | 'local'
    buffer: str                  # argument name, or '__local'
    nbytes: int
    tier: str                    # 'affine' | 'deterministic' | 'irregular'
    #: element-index affine form (str) when tier == 'affine'
    index: Optional[str] = None
    #: byte stride between consecutive work-items, when provable
    wi_stride: Optional[int] = None
    #: best-effort [lo, hi] bounds of the element index
    bounds: Tuple[Optional[int], Optional[int]] = (None, None)
    #: why the site is irregular (tier == 'irregular' only)
    reason: str = ""


@dataclass(frozen=True)
class PipeSummary:
    """Static summary of one pipe read/write site.

    ``tokens_per_item`` is the number of channel operations one
    work-item performs at this site, when the enclosing loops have
    statically proven trip counts; ``None`` means the rate depends on
    data (an irregular loop encloses the site) and only co-execution
    can recover it.
    """

    site: int
    kind: str                    # 'read' | 'write'
    channel: str                 # channel name from the module table
    elem_bytes: int
    block: str                   # block holding the site
    tokens_per_item: Optional[int] = None


@dataclass(frozen=True)
class LoopSummary:
    """Trip-count judgement for one source loop."""

    header: str
    line: int
    #: 'static' (count proven at compile time), 'deterministic'
    #: (condition synthesizable, count found numerically), 'irregular'
    bound: str
    trip_count: Optional[int] = None


@dataclass
class KernelSummary:
    """Whole-kernel verdict plus its per-access evidence."""

    name: str
    verdict: str                               # VERDICT_STATIC | _IRREGULAR
    reasons: List[IrregularReason] = field(default_factory=list)
    accesses: List[AccessSummary] = field(default_factory=list)
    loops: List[LoopSummary] = field(default_factory=list)
    pipes: List[PipeSummary] = field(default_factory=list)
    #: content hash over (engine version, canonical IR) — joins the
    #: analysis cache key whenever the static trace path is used
    fingerprint: str = ""
    engine_version: int = 0

    def to_dict(self) -> dict:
        return {
            "kernel": self.name,
            "verdict": self.verdict,
            "reasons": [
                {"code": r.code, "where": r.where, "detail": r.detail}
                for r in self.reasons
            ],
            "accesses": [
                {
                    "site": a.site, "kind": a.kind, "space": a.space,
                    "buffer": a.buffer, "nbytes": a.nbytes,
                    "tier": a.tier, "index": a.index,
                    "wi_stride": a.wi_stride,
                    "bounds": list(a.bounds), "reason": a.reason,
                }
                for a in self.accesses
            ],
            "loops": [
                {"header": l.header, "line": l.line, "bound": l.bound,
                 "trip_count": l.trip_count}
                for l in self.loops
            ],
            "pipes": [
                {"site": p.site, "kind": p.kind, "channel": p.channel,
                 "elem_bytes": p.elem_bytes, "block": p.block,
                 "tokens_per_item": p.tokens_per_item}
                for p in self.pipes
            ],
            "fingerprint": self.fingerprint,
        }
