"""Stable, content-addressed cache keys.

Every persistent cache entry is addressed by a SHA-256 digest over the
*content* that determines the cached result — never over object ids,
file paths, or device nicknames:

- the kernel: a canonical dump of the lowered IR (register names are
  value-numbered per function, so two compiles of the same source in
  different processes — or different register-counter states — produce
  the same fingerprint, while any semantic edit changes it);
- the launch: NDRange geometry, scalar arguments, and a digest of every
  input buffer's dtype/shape/bytes (profiled trip counts and memory
  traces are data-dependent);
- the device: the *full* :class:`~repro.devices.Device` configuration
  including DRAM timing, not ``device.name`` — two boards sharing a
  name but differing in any parameter never share entries;
- a per-layer schema version (:data:`SCHEMA_VERSIONS`), bumped whenever
  the semantics of a cached artefact change, so stale entries from an
  older code generation are simply never looked up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from typing import Dict

#: Persistent-layer schema versions.  Bump a layer's version whenever
#: the code producing its cached artefact changes meaning (e.g. the
#: profiling interpreter records different traces, the PE scheduler
#: changes its output): old entries become unreachable, not wrong.
SCHEMA_VERSIONS: Dict[str, int] = {
    "analysis": 5,   # pickled KernelInfo; one key for every trace engine
    "pe": 2,         # PEModelResult rows, keyed by model.pe.pe_memo_key
    "memory": 1,     # MemoryModelResult rows spilled from FlexCL's memo
    "table1": 1,     # per-device PatternLatencyTable (Table 1)
}


def digest(*parts: object) -> str:
    """SHA-256 over the string forms of *parts* (order-sensitive)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def device_fingerprint(device) -> str:
    """Content hash of the *complete* device configuration.

    Uses every field of the frozen dataclass (including the nested DRAM
    timing), so devices that differ only in clock, timing, bank count,
    etc. never alias — unlike keying on ``device.name``.
    """
    if dataclasses.is_dataclass(device):
        desc = sorted(dataclasses.asdict(device).items())
    else:  # duck-typed test doubles: fall back to the public attributes
        desc = sorted((k, v) for k, v in vars(device).items()
                      if not k.startswith("_"))
    return digest("device", desc)


#: per-Function fingerprint memo — the dump only reads the lowered IR,
#: which is immutable after the frontend (site ids and other analysis
#: annotations are excluded from the dump), so one hash per Function
#: object serves every analysis of it
_FN_FP_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def function_fingerprint(fn) -> str:
    """Content hash of a lowered IR function via a canonical dump.

    Virtual registers are renumbered in block/instruction order (the
    global ``Register`` counter leaks compile-session state into
    ``repr``), and source spans / profiling site ids are excluded, so
    the fingerprint is stable across processes and whitespace-only
    source edits while any change to the computation busts it.
    """
    try:
        fp = _FN_FP_MEMO.get(fn)
    except TypeError:            # unhashable/unweakrefable test double
        return digest("fn", _function_dump(fn))
    if fp is None:
        fp = digest("fn", _function_dump(fn))
        _FN_FP_MEMO[fn] = fp
    return fp


def _function_dump(fn) -> str:
    from repro.ir.function import BasicBlock

    names: Dict[int, str] = {}
    for i, arg in enumerate(fn.args):
        names[id(arg)] = f"%a{i}"
    counter = 0
    for block in fn.blocks:
        for inst in block.instructions:
            if inst.result is not None:
                counter += 1
                names[id(inst.result)] = f"%{counter}"

    def ref(value) -> str:
        name = names.get(id(value))
        if name is not None:
            return name
        # Constants (and any other operand kind) are identified by
        # type + payload, which their __str__ renders stably.
        return f"({value!s})"

    def attr(value) -> str:
        # Canonical, address-free rendering of an instruction attribute.
        if isinstance(value, BasicBlock):
            return f"^{value.name}"
        if id(value) in names:
            return names[id(value)]
        if isinstance(value, (list, tuple)):
            return "[" + ",".join(attr(v) for v in value) + "]"
        if value is None or isinstance(value, (str, int, float, bool)):
            return repr(value)
        text = str(value)
        # Default object reprs embed memory addresses; collapse those
        # to the class name so the dump stays stable across processes.
        return type(value).__name__ if "0x" in text else text

    lines = [
        f"fn {fn.name} kernel={fn.is_kernel} "
        f"reqd={fn.reqd_work_group_size}",
        "args " + ",".join(f"{a.type}:{a.name}" for a in fn.args),
    ]
    #: structural fields plus the annotations that profiling/analysis
    #: passes attach to instructions after lowering — those are derived,
    #: not content, and must not perturb the fingerprint
    skip = {"operands", "result", "parent", "opcode",
            "span", "site_id", "unique_stored_value"}
    for block in fn.blocks:
        lines.append(f"{block.name}:")
        for inst in block.instructions:
            attrs = [f"{key}={attr(getattr(inst, key))}"
                     for key in sorted(vars(inst)) if key not in skip]
            result = names.get(id(inst.result), "")
            operands = ",".join(ref(o) for o in inst.operands)
            lines.append(f"  {result} {inst.opcode}"
                         f"[{';'.join(attrs)}]({operands}):{inst.type}")
    return "\n".join(lines)


def buffers_fingerprint(buffers: Dict[str, object]) -> str:
    """Content hash of the input buffers (dtype, shape, raw bytes).

    Profiling is data-dependent (trip counts, traced addresses), so the
    buffer *contents* are part of the analysis identity.  Hash this
    before the profiling run mutates the buffers.
    """
    parts = []
    for name in sorted(buffers):
        data = buffers[name].data
        parts.append((name, str(data.dtype), data.shape,
                      hashlib.sha256(data.tobytes()).hexdigest()))
    return digest("buffers", parts)


def scalars_fingerprint(scalars: Dict[str, object]) -> str:
    """Key part covering the kernel's scalar arguments, order-free."""
    return digest("scalars", sorted(
        (k, repr(v)) for k, v in scalars.items()))


def ndrange_fingerprint(ndrange) -> str:
    """Key part covering the launch geometry."""
    return digest("ndrange", ndrange.global_size, ndrange.local_size)


def analysis_key(fn, buffers, scalars, ndrange, device,
                 profile_groups) -> str:
    """The cache key of one :func:`~repro.analysis.analyze_kernel` run.
    *profile_groups* may carry extra context (e.g. an op-latency-table
    digest) — it is folded into the key verbatim."""
    return digest(
        "analysis", SCHEMA_VERSIONS["analysis"],
        function_fingerprint(fn),
        buffers_fingerprint(buffers),
        scalars_fingerprint(scalars),
        ndrange_fingerprint(ndrange),
        device_fingerprint(device),
        profile_groups,
    )


def submodel_key(sub_model: str, info_fingerprint: str, salt: str,
                 params: tuple) -> str:
    """Key of one spilled sub-model row: the analysed kernel's identity,
    the model context (device + ablation switches), and the memo
    parameters the sub-model actually depends on."""
    return digest(sub_model, SCHEMA_VERSIONS[sub_model],
                  info_fingerprint, salt, repr(params))


def table1_key(device) -> str:
    """Key of a device's profiled Table-1 pattern-latency table."""
    return digest("table1", SCHEMA_VERSIONS["table1"],
                  device_fingerprint(device))
