"""Canonical request specs and JSON payload builders.

This module is the single source of truth for what a prediction
*means* as data: the CLI's ``--json`` output and the serve daemon's
HTTP responses are both produced by the functions here, which is what
makes the differential guarantee — a served response is byte-identical
to the equivalent CLI invocation — enforceable rather than aspirational.

Everything here is deterministic: payloads contain no wall-clock
timings, worker counts, or cache statistics, only the modelled facts.
:func:`canonical_json` fixes the byte encoding (sorted keys, 2-space
indent, trailing newline).

The functions take a *spec* — a plain JSON-able dict — so the same
values can arrive from ``argparse`` or an HTTP body, and so a request
can cross a process-pool boundary without custom pickling.

Request shapes (all fields beyond the required ones have defaults):

``predict``::

    {"source": "<OpenCL C>", "kernel": "saxpy", "global_size": 4096,
     "wg": 64, "pe": 1, "cu": 1, "vector": 1, "mode": "pipeline",
     "pipeline": true, "wg_pipeline": false, "device": "virtex7",
     "args": {"alpha": 2.0}, "simulate": false}
    {"workload": "rodinia/nw/nw1", "wg": 16}         # catalog form

The exact analytical model is the only answer path: a ``"tier"`` field
other than ``"exact"`` is refused, and every predict payload carries
``"tier": "exact"``.

``explore`` (every feasible design of the default space, exactly)::

    {"workload": "rodinia/nw/nw1", "top": 5}         # or source form

``predict-graph``::

    {"program": "srad", "realization": "both", "depth": 16,
     "wg": null, "device": "virtex7"}

``suite``::

    {"suite": "rodinia", "limit": 4, "designs": 8, "device": "virtex7"}

Unknown fields are ignored.  Name fields must be strings and numbers
finite (``json.loads`` accepts ``Infinity``/``NaN``); the normalizers
reject anything else with an :class:`ApiError`.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import (
    device_fingerprint,
    digest,
    function_fingerprint,
    open_cache,
)
from repro.cache.hot import HotCache

#: design parameters shared by the predict spec and the CLI flags
COMM_MODES = ("pipeline", "barrier")
REALIZATION_MODES = ("dram", "pipe", "both")
#: upper bound on a request's ``global_size`` and ``wg``: buffers hold
#: ``global_size`` elements and the profiler's lane vectors are a few
#: work-groups long, so larger launches are refused before anything is
#: allocated (the catalog's largest global size is 4096)
MAX_LAUNCH_SIZE = 1 << 20

#: KernelInfo.trace_source -> the provenance string payloads report
TRACE_PROVENANCE = {"synth": "synthesized",
                    "vectorized": "vectorized",
                    "scalar": "interpreted"}


class ApiError(Exception):
    """A malformed or unsatisfiable request: reported as HTTP 400 by
    the daemon and as a ``CLIError`` (exit 2) by the CLI."""


def canonical_json(payload) -> str:
    """The one true serialization (sorted keys, 2-space indent)."""
    return json.dumps(payload, indent=2, sort_keys=True)


def encode_body(payload) -> bytes:
    """Response body bytes: canonical JSON plus the trailing newline
    ``print`` appends on the CLI side."""
    return (canonical_json(payload) + "\n").encode("utf-8")


# ---------------------------------------------------------------------
# spec normalization
# ---------------------------------------------------------------------

def _as_int(spec, key, default) -> int:
    """An integer field: ints, integral floats (``64.0``) and numeric
    strings pass; booleans and fractional floats would silently name
    a different design, so they are rejected."""
    value = spec.get(key, default)
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ApiError(f"{key!r} must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ApiError(f"{key!r} must be an integer") from None


def _launch_size(value: int, key: str) -> int:
    if value < 1:
        raise ApiError(f"{key!r} must be >= 1")
    if value > MAX_LAUNCH_SIZE:
        raise ApiError(f"{key!r} must be at most {MAX_LAUNCH_SIZE}")
    return value


def _as_str(spec, key) -> Optional[str]:
    """An optional string field (missing or empty == None)."""
    value = spec.get(key) or None
    if value is not None and not isinstance(value, str):
        raise ApiError(f"{key!r} must be a string")
    return value


def _as_bool(spec, key, default) -> bool:
    value = spec.get(key, default)
    if not isinstance(value, bool):
        raise ApiError(f"{key!r} must be a boolean")
    return value


def _choice(spec, key, default, choices) -> str:
    value = spec.get(key) or default
    if value not in choices:
        raise ApiError(f"{key!r} must be one of {', '.join(choices)}; "
                       f"got {value!r}")
    return value


def _device_name(spec) -> str:
    from repro.devices import device_by_name
    name = spec.get("device") or "virtex7"
    try:
        device_by_name(name)
    except Exception:
        raise ApiError(f"unknown device {name!r}") from None
    return name


def _kernel_fields(spec) -> Dict[str, object]:
    """The source-selection half shared by predict and explore specs."""
    source = _as_str(spec, "source")
    workload = _as_str(spec, "workload")
    if (source is None) == (workload is None):
        raise ApiError(
            "exactly one of 'source' (OpenCL C text) or 'workload' "
            "(catalog name like 'rodinia/nw/nw1') is required")
    out: Dict[str, object] = {
        "source": source, "workload": workload,
        "kernel": _as_str(spec, "kernel"),
        "device": _device_name(spec),
    }
    if source is not None:
        if not spec.get("global_size"):
            raise ApiError("'global_size' is required with 'source'")
        out["global_size"] = _launch_size(
            _as_int(spec, "global_size", 0), "global_size")
    else:
        if spec.get("global_size"):
            raise ApiError("'global_size' is fixed by the catalog "
                           "workload; omit it with 'workload'")
        out["global_size"] = None
    args = spec.get("args") or {}
    if not isinstance(args, dict):
        raise ApiError("'args' must be an object of scalar overrides")
    try:
        out["args"] = {str(k): float(v) for k, v in args.items()}
    except (TypeError, ValueError, OverflowError):
        raise ApiError("'args' values must be numbers") from None
    if not all(math.isfinite(v) for v in out["args"].values()):
        raise ApiError("'args' values must be finite numbers")
    return out


def normalize_predict_spec(spec: dict) -> dict:
    """Validate and default-fill a ``predict`` request."""
    out = _kernel_fields(spec)
    out.update(
        wg=_as_int(spec, "wg", 64),
        pe=_as_int(spec, "pe", 1),
        cu=_as_int(spec, "cu", 1),
        vector=_as_int(spec, "vector", 1),
        mode=_choice(spec, "mode", "pipeline", COMM_MODES),
        pipeline=_as_bool(spec, "pipeline", True),
        wg_pipeline=_as_bool(spec, "wg_pipeline", False),
        simulate=_as_bool(spec, "simulate", False),
    )
    if (spec.get("tier") or "exact") != "exact":
        raise ApiError("the instant tier is retired; the exact model "
                       "answers /predict")
    if min(out["wg"], out["pe"], out["cu"], out["vector"]) < 1:
        raise ApiError("design parameters must be positive")
    _launch_size(out["wg"], "wg")
    return out


def normalize_explore_spec(spec: dict) -> dict:
    """Validate and default-fill an ``explore`` request."""
    out = _kernel_fields(spec)
    out["top"] = _as_int(spec, "top", 5)
    if out["top"] < 1:
        raise ApiError("'top' must be >= 1")
    return out


def normalize_graph_spec(spec: dict) -> dict:
    """Validate and default-fill a ``predict-graph`` request."""
    program = _as_str(spec, "program")
    if program is None:
        raise ApiError("'program' is required "
                       "(e.g. 'srad' or 'rodinia/srad')")
    out = {
        "program": program,
        "realization": _choice(spec, "realization", "both",
                               REALIZATION_MODES),
        "depth": _as_int(spec, "depth", 16),
        "device": _device_name(spec),
        "wg": (_as_int(spec, "wg", 0) or None)
        if spec.get("wg") else None,
    }
    if out["depth"] < 1:
        raise ApiError("'depth' must be >= 1")
    if out["wg"] is not None and out["wg"] < 1:
        raise ApiError("'wg' must be >= 1")
    return out


def normalize_suite_spec(spec: dict) -> dict:
    """Validate and default-fill a ``suite`` request."""
    suite = spec.get("suite") or None
    if suite not in (None, "rodinia", "polybench"):
        raise ApiError("'suite' must be 'rodinia' or 'polybench'")
    out = {
        "suite": suite,
        "limit": _as_int(spec, "limit", 0),
        "designs": _as_int(spec, "designs", 8),
        "device": _device_name(spec),
    }
    if out["limit"] < 0:
        raise ApiError("'limit' must be >= 0")
    if out["designs"] < 1:
        raise ApiError("'designs' must be >= 1")
    return out


# ---------------------------------------------------------------------
# kernel / program resolution
# ---------------------------------------------------------------------

def resolve_workload(name: str):
    """A catalog workload by its qualified ``suite/benchmark/kernel``."""
    from repro.workloads import get_workload
    parts = name.split("/")
    if len(parts) != 3:
        raise ApiError(f"workload {name!r} is not of the form "
                       "'suite/benchmark/kernel'")
    try:
        return get_workload(*parts)
    except KeyError:
        raise ApiError(f"no catalog workload {name!r}") from None


def resolve_kernel(spec: dict, module_memo: Optional[HotCache] = None):
    """The IR function a predict/explore spec names.

    Returns ``(fn, workload)`` where *workload* is None for inline
    source.  *module_memo* (a :class:`~repro.cache.hot.HotCache`
    holding digest(source) -> Module under the ``module`` layer) lets
    a long-running caller skip recompiling repeated sources.  Every
    name in the spec's ``args`` must be a scalar argument of the
    function, and a value for an integer argument must be integral and
    within its type's range (never truncated or wrapped).
    """
    from repro.ir.types import PointerType

    if spec["workload"] is not None:
        workload = resolve_workload(spec["workload"])
        fn = workload.function()
    else:
        fn, workload = _source_kernel(spec, module_memo), None
    scalars = [arg for arg in fn.args
               if not isinstance(arg.type, PointerType)]
    names = [arg.name for arg in scalars]
    unknown = sorted(set(spec["args"]) - set(names))
    if unknown:
        raise ApiError(
            f"'args' names no scalar argument of kernel {fn.name}: "
            f"{', '.join(unknown)} (its scalar arguments: "
            f"{', '.join(names) or 'none'})")
    for arg in scalars:
        value = spec["args"].get(arg.name)
        if value is None or not arg.type.is_integer:
            continue
        element = getattr(arg.type, "element", arg.type)
        bits, signed = element.bits, element.is_signed
        low = -(1 << (bits - 1)) if signed else 0
        high = (1 << (bits - 1 if signed else bits)) - 1
        if not (value.is_integer() and low <= value <= high):
            raise ApiError(
                f"'args' {arg.name} takes an integer in {low}..{high} "
                f"(its type is {element}), got {value!r}")
    return fn, workload


def _source_kernel(spec: dict, module_memo: Optional[HotCache]):
    """The kernel of a spec's inline ``source`` (see
    :func:`resolve_kernel`)."""
    from repro.frontend import compile_opencl

    source = spec["source"]
    module = None
    memo_key = None
    if module_memo is not None:
        memo_key = digest("src", source)
        _, module = module_memo.get("module", memo_key)
    if module is None:
        try:
            module = compile_opencl(source)
        except Exception as exc:
            raise ApiError(f"cannot compile source: {exc}") from None
        if module_memo is not None:
            module_memo.put("module", memo_key, module,
                            write_through=False)
    if spec["kernel"]:
        try:
            return module.get(spec["kernel"])
        except Exception:
            names = ", ".join(k.name for k in module.kernels)
            raise ApiError(f"no kernel {spec['kernel']!r} in source "
                           f"(kernels: {names})") from None
    if len(module.kernels) > 1:
        names = ", ".join(k.name for k in module.kernels)
        raise ApiError(f"source defines {len(module.kernels)} kernels "
                       f"({names}); pick one with 'kernel'")
    if not module.kernels:
        raise ApiError("source defines no kernels")
    return module.kernels[0]


def resolve_program(name: str):
    """A registered program by bare (``srad``) or qualified
    (``rodinia/srad``) name."""
    from repro.workloads import get_program
    try:
        return get_program(name)
    except KeyError:
        if "/" in name:
            try:
                return get_program(name.split("/", 1)[1])
            except KeyError:
                pass
        from repro.workloads import all_programs
        known = ", ".join(sorted(p.qualified_name
                                 for p in all_programs()))
        raise ApiError(f"no program {name!r}; known: {known}") from None


def build_buffers(fn, global_size: int, overrides: Dict[str, float]):
    """Synthesise buffers/scalars for a kernel's signature.

    Seeding uses a stable content hash of the argument name (never the
    per-process-salted builtin ``hash``), so two invocations — CLI or
    server, any process — build bit-identical inputs, which is what
    lets the persistent cache recognise a repeated run.
    """
    from repro.interp import Buffer
    from repro.interp.memory import dtype_for_type
    from repro.ir.types import PointerType
    from repro.latency.microbench import _stable_hash

    buffers, scalars = {}, {}
    for arg in fn.args:
        if isinstance(arg.type, PointerType):
            dtype = dtype_for_type(arg.type.pointee)
            gen = np.random.default_rng(
                _stable_hash("clibuf", arg.name) % (2**32))
            if np.issubdtype(dtype, np.floating):
                data = gen.random(global_size).astype(dtype)
            else:
                data = gen.integers(
                    0, max(global_size, 2), global_size).astype(dtype)
            buffers[arg.name] = Buffer(arg.name, data)
        else:
            if arg.name in overrides:
                value = overrides[arg.name]
                scalars[arg.name] = (int(value) if arg.type.is_integer
                                     else float(value))
            elif arg.type.is_integer:
                scalars[arg.name] = global_size
            else:
                scalars[arg.name] = 1.0
    return buffers, scalars


def _spec_inputs(fn, workload, global_size: int,
                 overrides: Dict[str, float]):
    """Fresh input buffers/scalars for one analysis run; *overrides*
    name scalar arguments (:func:`resolve_kernel` checks them)."""
    if workload is None:
        return build_buffers(fn, global_size, overrides)
    buffers = workload.make_buffers()
    scalars = dict(workload.scalars)
    for name, value in overrides.items():
        scalars[name] = (int(value) if isinstance(scalars[name], int)
                         else float(value))
    return buffers, scalars


def _spec_global_size(spec, workload) -> int:
    if spec["global_size"] is not None:
        return spec["global_size"]
    return workload.global_size


# ---------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------

def _design_payload(design) -> dict:
    return {
        "signature": design.signature(),
        "work_group_size": design.work_group_size,
        "work_item_pipeline": design.work_item_pipeline,
        "work_group_pipeline": design.work_group_pipeline,
        "num_pe": design.num_pe,
        "num_cu": design.num_cu,
        "vector_width": design.vector_width,
        "comm_mode": design.comm_mode,
    }


def spec_design(spec):
    """The :class:`Design` a normalized predict spec describes."""
    from repro.dse import Design
    return Design(work_group_size=spec["wg"],
                  work_item_pipeline=spec["pipeline"],
                  work_group_pipeline=spec["wg_pipeline"],
                  num_pe=spec["pe"], num_cu=spec["cu"],
                  vector_width=spec["vector"],
                  comm_mode=spec["mode"])


def predict_payload(spec: dict, cache=None,
                    module_memo: Optional[HotCache] = None) -> dict:
    """Model one design point; the payload behind ``predict --json``
    and ``POST /predict``."""
    from repro.analysis import analyze_kernel
    from repro.devices import device_by_name
    from repro.dse import check_feasibility
    from repro.interp import ExecutionError, NDRange
    from repro.model import FlexCL
    from repro.model.area import estimate_area

    spec = normalize_predict_spec(spec)
    device = device_by_name(spec["device"])
    fn, workload = resolve_kernel(spec, module_memo)
    global_size = _spec_global_size(spec, workload)
    design = spec_design(spec)

    payload: dict = {
        "kernel": fn.name,
        "device": device.name,
        "global_size": global_size,
        "design": _design_payload(design),
        "tier": "exact",
    }
    if workload is not None:
        payload["workload"] = workload.qualified_name
    if global_size % spec["wg"] != 0:
        payload["feasible"] = False
        payload["reason"] = "work-group size does not divide the NDRange"
        return payload

    buffers, scalars = _spec_inputs(fn, workload, global_size,
                                    spec["args"])
    try:
        info = analyze_kernel(fn, buffers, scalars,
                              NDRange(global_size, spec["wg"]), device,
                              cache=cache)
    except (ExecutionError, IndexError) as exc:
        # The profiled launch faults (say, an out-of-bounds access at
        # this global size); explore reports such sizes infeasible.
        raise ApiError(f"kernel {fn.name} faults while profiled: "
                       f"{exc}") from None
    reason = check_feasibility(info, design, device)
    if reason is not None:
        payload["feasible"] = False
        payload["reason"] = reason
        return payload

    payload["feasible"] = True
    payload["traces"] = {
        "provenance": TRACE_PROVENANCE[info.trace_source],
        "summary": info.summary_verdict,
    }
    prediction = FlexCL(device, cache=cache).predict(info, design)
    area = estimate_area(info, design)
    payload["prediction"] = {
        "ii": prediction.pe.ii,
        "rec_mii": prediction.pe.rec_mii,
        "res_mii": prediction.pe.res_mii,
        "depth": prediction.pe.depth,
        "memory_latency_per_wi": prediction.memory.latency_per_wi,
        "cycles": prediction.cycles,
        "seconds": prediction.seconds,
        "clock_mhz": device.clock_mhz,
        "bottleneck": prediction.bottleneck,
    }
    util = area.utilisation(device)
    payload["area"] = {
        "dsp": area.dsp,
        "bram_36k": area.bram_36k,
        "luts": area.luts,
        "ffs": area.ffs,
        "utilisation": {k: float(v) for k, v in sorted(util.items())},
    }
    if spec["simulate"]:
        from repro.simulator import SystemRun
        actual = SystemRun(device).run(info, design)
        payload["simulated"] = {
            "cycles": actual.cycles,
            "model_error": abs(prediction.cycles - actual.cycles)
            / actual.cycles,
        }
    return payload


# ---------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------

def explore_rows(spec: dict, cache=None,
                 wg_sizes: Optional[Sequence[int]] = None) -> List[dict]:
    """Evaluate every design of the default space whose work-group size
    is in *wg_sizes* (None = all), through
    :func:`repro.dse.explorer.explore`.  Rows carry their full-space
    enumeration index so sharded results reassemble into exactly the
    serial order."""
    from dataclasses import replace

    from repro.devices import device_by_name
    from repro.dse import DesignSpace
    from repro.dse.explorer import explore
    from repro.evaluation.harness import kernel_analyzer
    from repro.model import FlexCL

    spec = normalize_explore_spec(spec)
    device = device_by_name(spec["device"])
    fn, workload = resolve_kernel(spec)
    model = FlexCL(device, cache=cache)
    global_size = _spec_global_size(spec, workload)
    space = DesignSpace.default_for(global_size)
    index = {design: i for i, design in enumerate(space)}
    if wg_sizes is not None:
        wanted = set(wg_sizes)
        space = replace(space, work_group_sizes=tuple(
            wg for wg in space.work_group_sizes if wg in wanted))
    analyze = kernel_analyzer(
        fn, lambda: _spec_inputs(fn, workload, global_size, spec["args"]),
        global_size, space.work_group_sizes, device, cache=cache)
    result = explore(
        space, analyze,
        lambda info, design: model.predict(info, design).cycles,
        device)
    return [{"index": index[e.design], "design": e.design.signature(),
             "work_group_size": e.design.work_group_size,
             "feasible": e.feasible,
             "cycles": e.cycles if e.feasible else None,
             "reason": e.reject_reason}
            for e in result.evaluated]


def explore_payload_from_rows(spec: dict, rows: List[dict]) -> dict:
    """Assemble the final explore payload from (possibly sharded) rows.

    The ranking reproduces ``ExplorationResult.ranked()``: feasible
    points sorted by cycles with the stable enumeration order breaking
    ties.
    """
    spec = normalize_explore_spec(spec)
    fn, workload = resolve_kernel(spec)
    rows = sorted(rows, key=lambda r: r["index"])
    feasible = [r for r in rows if r["feasible"]]
    ranked = sorted(feasible, key=lambda r: r["cycles"])
    payload = {
        "kernel": fn.name,
        "device": spec["device"],
        "global_size": _spec_global_size(spec, workload),
        "evaluated": len(rows),
        "feasible": len(feasible),
        "top": [{"design": r["design"], "cycles": r["cycles"],
                 "work_group_size": r["work_group_size"]}
                for r in ranked[:spec["top"]]],
    }
    if workload is not None:
        payload["workload"] = workload.qualified_name
    return payload


def explore_payload(spec: dict, cache=None) -> dict:
    """Evaluate the whole space in this process, then assemble."""
    spec = normalize_explore_spec(spec)
    return explore_payload_from_rows(spec, explore_rows(spec, cache))


# ---------------------------------------------------------------------
# predict-graph
# ---------------------------------------------------------------------

def program_stage_infos(program, device, cache=None,
                        wg_override: Optional[int] = None):
    """Analyse every stage of *program*: catalog stages run the normal
    single-kernel analysis; pipe-only programs are co-executed once
    under FIFO semantics and each stage is analysed from its recorded
    launch."""
    from repro.analysis import analyze_kernel
    from repro.dse import Design

    if wg_override and not program.stages:
        raise ApiError(
            f"'wg' does not apply to program {program.qualified_name}: "
            "its stages run at their co-executed launches")
    infos, designs = {}, {}
    if program.stages:
        for w in program.stages:
            if wg_override and w.global_size % wg_override:
                raise ApiError(
                    f"'wg' {wg_override} does not divide stage "
                    f"{w.kernel}'s global size {w.global_size}")
        for w in program.stages:
            wg = wg_override or w.default_local_size
            infos[w.kernel] = analyze_kernel(
                w.function(), w.make_buffers(), dict(w.scalars),
                w.ndrange(wg), device, cache=cache)
            designs[w.kernel] = Design(work_group_size=wg)
        return infos, designs
    from repro.interp import ProgramExecutor
    module = program.pipe_module()
    stages = program.coexec_stages()
    result = ProgramExecutor(module, stages).run()
    for stage_spec in stages:
        name = stage_spec.fn.name
        infos[name] = analyze_kernel(
            stage_spec.fn, stage_spec.buffers, stage_spec.scalars,
            stage_spec.ndrange, device, launch=result.launches[name])
        designs[name] = Design(
            work_group_size=stage_spec.ndrange.work_group_size)
    return infos, designs


def predict_graph_payload(spec: dict, cache=None) -> dict:
    """End-to-end program latency; the payload behind
    ``predict-graph --json`` and ``POST /predict-graph``."""
    from repro.devices import device_by_name
    from repro.model import FlexCL, predict_graph

    spec = normalize_graph_spec(spec)
    program = resolve_program(spec["program"])
    device = device_by_name(spec["device"])
    infos, designs = program_stage_infos(program, device, cache,
                                         spec["wg"])
    model = FlexCL(device, cache=cache)
    graph = program.graph()
    payload: dict = {
        "program": program.qualified_name,
        "device": device.name,
        "stages": list(graph.stages),
        "depth": spec["depth"],
        "realizations": {},
    }
    realizations = (("dram", "pipe") if spec["realization"] == "both"
                    else (spec["realization"],))
    for realization in realizations:
        pred = predict_graph(graph, model, infos, designs, realization,
                             default_depth=spec["depth"])
        entry: dict = {
            "cycles": pred.cycles,
            "seconds": pred.seconds,
            "stages": {name: pred.stages[name].cycles
                       for name in graph.stages},
        }
        if realization == "dram":
            entry["transfers"] = [
                {"src": t.edge.src, "dst": t.edge.dst,
                 "buffer": t.edge.buffer, "nbytes": t.edge.nbytes,
                 "cycles": t.cycles}
                for t in pred.transfers]
        else:
            entry["bottleneck_stage"] = pred.bottleneck_stage
            entry["channels"] = {
                name: {"depth": ch.depth, "tokens": ch.tokens,
                       "stall_cycles": ch.stall_cycles}
                for name, ch in pred.channels.items()}
        payload["realizations"][realization] = entry
    return payload


# ---------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------

def suite_catalog(spec: dict):
    """The catalog slice a suite spec addresses."""
    from repro.evaluation import default_suite_workloads
    spec = normalize_suite_spec(spec)
    return default_suite_workloads(spec["suite"], spec["limit"])


def suite_shard_rows(spec: dict, cache=None,
                     indices: Optional[Sequence[int]] = None
                     ) -> List[Tuple[int, List[dict]]]:
    """Evaluate the catalog workloads at *indices* (None = all) through
    :func:`repro.evaluation.run_suite`, returning ``(catalog_index,
    rows)`` pairs for order-stable reassembly across pool workers."""
    from repro.devices import device_by_name
    from repro.evaluation import run_suite

    spec = normalize_suite_spec(spec)
    catalog = suite_catalog(spec)
    device = device_by_name(spec["device"])
    if indices is None:
        indices = range(len(catalog))
    result = run_suite([catalog[i] for i in indices], device,
                       cache=cache, designs_per_kernel=spec["designs"])
    by_workload = result.by_workload()
    return [(i, [{"workload": p.workload, "design": p.design,
                  "cycles": p.cycles, "trace_source": p.trace_source}
                 for p in by_workload.get(catalog[i].qualified_name, [])])
            for i in indices]


def suite_payload_from_rows(spec: dict,
                            shards: Sequence[Tuple[int, List[dict]]]
                            ) -> dict:
    """Assemble the final suite payload from sharded per-workload rows
    (catalog order, independent of completion order)."""
    spec = normalize_suite_spec(spec)
    catalog = suite_catalog(spec)
    merged: List[Optional[List[dict]]] = [None] * len(catalog)
    for index, rows in shards:
        merged[index] = rows
    all_rows = [row for rows in merged for row in (rows or [])]
    trace_paths: Dict[str, int] = {}
    for row in all_rows:
        source = row.get("trace_source", "scalar")
        trace_paths[source] = trace_paths.get(source, 0) + 1
    return {
        "suite": spec["suite"] or "all",
        "device": spec["device"],
        "designs_per_kernel": spec["designs"],
        "limit": spec["limit"],
        "workloads": len(catalog),
        "predictions": len(all_rows),
        "trace_paths": trace_paths,
        "rows": all_rows,
    }


def suite_payload(spec: dict, cache=None) -> dict:
    """Evaluate the whole slice in this process, then assemble."""
    return suite_payload_from_rows(spec, suite_shard_rows(spec, cache))


# ---------------------------------------------------------------------
# sharded explore/suite (the daemon's pool and ``--jobs``)
# ---------------------------------------------------------------------

def shard_tasks(endpoint: str, spec: dict) -> List[dict]:
    """The pool tasks of a sharded explore or suite request: one
    ``explore-shard`` per work-group size, or one ``suite-shard`` per
    catalog workload.  Each task's ``label`` names its shard in
    progress events; :func:`run_task` ignores it."""
    if endpoint == "explore":
        from repro.dse import DesignSpace
        normalized = normalize_explore_spec(spec)
        _, workload = resolve_kernel(normalized)
        space = DesignSpace.default_for(
            _spec_global_size(normalized, workload))
        return [{"op": "explore-shard", "spec": spec, "wg_sizes": [wg],
                 "label": {"work_group_size": wg}}
                for wg in space.work_group_sizes]
    if endpoint == "suite":
        return [{"op": "suite-shard", "spec": spec, "indices": [i],
                 "label": {"workload": workload.qualified_name}}
                for i, workload in enumerate(suite_catalog(spec))]
    raise ApiError(f"endpoint {endpoint!r} does not stream")


def assemble(endpoint: str, spec: dict, results: Sequence[list]) -> dict:
    """The final payload from the results of :func:`shard_tasks`' tasks,
    in any completion order: byte-identical to the unsharded one."""
    merged = [item for result in results for item in result]
    if endpoint == "explore":
        return explore_payload_from_rows(spec, merged)
    return suite_payload_from_rows(spec, merged)


# ---------------------------------------------------------------------
# request identity (coalescing / hot-tier keys)
# ---------------------------------------------------------------------

def request_key(endpoint: str, spec: dict,
                module_memo: Optional[HotCache] = None) -> str:
    """The content fingerprint concurrent identical requests coalesce
    on: canonical-IR fingerprint (never source text or file paths) +
    the full design point + the full device configuration."""
    if endpoint == "predict":
        spec = normalize_predict_spec(spec)
        fn, workload = resolve_kernel(spec, module_memo)
        from repro.devices import device_by_name
        return digest(
            "serve-predict", function_fingerprint(fn),
            device_fingerprint(device_by_name(spec["device"])),
            _spec_global_size(spec, workload),
            spec_design(spec).signature(),
            sorted(spec["args"].items()),
            spec["simulate"], spec["workload"] or "")
    if endpoint == "explore":
        spec = normalize_explore_spec(spec)
        fn, workload = resolve_kernel(spec, module_memo)
        from repro.devices import device_by_name
        return digest(
            "serve-explore", function_fingerprint(fn),
            device_fingerprint(device_by_name(spec["device"])),
            _spec_global_size(spec, workload), spec["top"],
            sorted(spec["args"].items()),
            spec["workload"] or "")
    if endpoint == "predict-graph":
        spec = normalize_graph_spec(spec)
        program = resolve_program(spec["program"])
        from repro.devices import device_by_name
        return digest(
            "serve-graph", program.qualified_name,
            device_fingerprint(device_by_name(spec["device"])),
            spec["realization"], spec["depth"], spec["wg"])
    if endpoint == "suite":
        spec = normalize_suite_spec(spec)
        from repro.devices import device_by_name
        return digest(
            "serve-suite", spec["suite"], spec["limit"],
            spec["designs"], device_fingerprint(device_by_name(spec["device"])))
    raise ApiError(f"unknown endpoint {endpoint!r}")


# ---------------------------------------------------------------------
# worker entry point
# ---------------------------------------------------------------------

def run_task(task: dict, cache=None):
    """Execute one pool task (in a forked worker process, a worker
    thread, or inline).  *cache* is the caller-shared cache for
    in-process executors; process workers open their own disk store
    from the task's ``cache_dir``/``no_cache`` fields."""
    if cache is None and not task.get("no_cache"):
        cache = open_cache(task.get("cache_dir"))
    op = task["op"]
    spec = task["spec"]
    if op == "predict":
        return predict_payload(spec, cache)
    if op == "predict-graph":
        return predict_graph_payload(spec, cache)
    if op == "explore":
        return explore_payload(spec, cache)
    if op == "explore-shard":
        return explore_rows(spec, cache, wg_sizes=task["wg_sizes"])
    if op == "suite":
        return suite_payload(spec, cache)
    if op == "suite-shard":
        return suite_shard_rows(spec, cache, indices=task["indices"])
    raise ValueError(f"unknown task op {op!r}")
