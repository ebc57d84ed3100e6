"""Architecture-independent feature extraction for the learned surrogate.

A feature vector describes one (kernel, design point) pair in terms the
analytical model never sees directly: the dynamic operation mix, loop
trip counts, the stride/coalescing profile of the memory traces,
barrier and pipe density, launch geometry, and the swept design knobs.
The framing follows Johnston et al., "OpenCL Performance Prediction
using Architecture-Independent Features" (arXiv 1811.00156): cheap
machine-independent counts predict relative performance well enough to
*rank* candidates, which is what the instant answer tier needs.

Every input is already computed by kernel analysis (``KernelInfo``: the
profiled block weights, the loop nest, and the trace-analysis site
table), so extraction costs one pass over the IR plus a handful of
dictionary reads — no interpretation, no model evaluation.

Determinism is a hard contract: the same (kernel, design, device)
produces the bit-identical vector in any process, under any trace
engine (synthesized, lane-vectorized, or scalar — their traces are
bit-identical by the sweep tests), and for warm or cold caches.  The
extractor therefore only reads engine-independent fields and iterates
everything in a fixed order (IR block order, sorted trace sites, loop
list order).  :data:`FEATURE_NAMES` is the schema; its content hash
(:func:`feature_schema_hash`) is folded into every surrogate cache key
so a schema change can never silently mix vectors of different shapes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

#: Bump when the feature definitions change meaning (renames, new
#: entries, different weighting) — stale model artifacts become
#: unreachable rather than wrong.
FEATURE_SCHEMA_VERSION = 1

#: Kernel-side features: one value per name, extracted from KernelInfo.
KERNEL_FEATURE_NAMES: Tuple[str, ...] = (
    # dynamic op mix, per work-item (log1p-compressed counts)
    "ops_int_addsub",
    "ops_int_mul",
    "ops_int_divrem",
    "ops_int_bit",
    "ops_float_addsub",
    "ops_float_mul",
    "ops_float_divrem",
    "ops_cmp",
    "ops_select",
    "ops_cast",
    "ops_gep",
    "ops_call",
    "ops_branch",
    "ops_private_mem",
    "ops_total",
    # op-mix ratios (dimensionless)
    "frac_float_arith",
    "frac_mem_ops",
    "frac_control",
    # loop structure
    "loop_count",
    "loop_max_depth",
    "loop_max_trip",
    "loop_iters_per_wi",
    # memory behaviour from the trace analysis
    "global_reads_per_wi",
    "global_writes_per_wi",
    "local_reads_per_wi",
    "local_writes_per_wi",
    "global_bytes_per_wi",
    "stride_frac_unit",
    "stride_frac_zero",
    "stride_frac_const",
    "stride_frac_irregular",
    "coalescible_frac",
    "recurrence_count",
    "recurrence_min_distance",
    # synchronisation / streaming density
    "barriers_per_wi",
    "pipe_tokens_per_wi",
    "uses_barrier",
    # static resources
    "local_mem_bytes",
    "dsp_cost_per_wi",
    "dsp_static_cost",
    # launch geometry
    "log2_work_group_size",
    "total_work_items",
    "num_work_groups",
)

#: Design-knob features (and kernel x design interactions).
DESIGN_FEATURE_NAMES: Tuple[str, ...] = (
    "design_log2_wg",
    "design_work_item_pipeline",
    "design_work_group_pipeline",
    "design_log2_pe",
    "design_log2_cu",
    "design_log2_vector_width",
    "design_comm_pipeline",
    "design_log2_pe_slots",
    "design_log2_parallelism",
    "design_work_per_slot",
    "design_wg_over_slots",
    "design_parallel_mem_pressure",
)

FEATURE_NAMES: Tuple[str, ...] = KERNEL_FEATURE_NAMES + DESIGN_FEATURE_NAMES


def feature_schema_hash() -> str:
    """Content hash of the feature schema (names, order, version) —
    folded into surrogate cache keys and NDJSON export headers."""
    from repro.cache import digest
    return digest("surrogate-features", FEATURE_SCHEMA_VERSION,
                  *FEATURE_NAMES)


def _log1p(x: float) -> float:
    return math.log1p(max(float(x), 0.0))


def _log2(x: float) -> float:
    return math.log2(max(float(x), 1.0))


#: opcode -> op-mix bucket (memory and synchronisation opcodes are
#: handled separately because they need the address space / traffic)
_OP_BUCKETS: Dict[str, str] = {
    "add": "ops_int_addsub", "sub": "ops_int_addsub",
    "mul": "ops_int_mul",
    "div": "ops_int_divrem", "rem": "ops_int_divrem",
    "and": "ops_int_bit", "or": "ops_int_bit", "xor": "ops_int_bit",
    "shl": "ops_int_bit", "shr": "ops_int_bit",
    "fadd": "ops_float_addsub", "fsub": "ops_float_addsub",
    "fmul": "ops_float_mul",
    "fdiv": "ops_float_divrem", "frem": "ops_float_divrem",
    "cmp": "ops_cmp",
    "select": "ops_select",
    "cast": "ops_cast",
    "gep": "ops_gep",
    "call": "ops_call",
    "br": "ops_branch",
    "condbr": "ops_branch",
}

_FLOAT_BUCKETS = ("ops_float_addsub", "ops_float_mul", "ops_float_divrem")
_INT_BUCKETS = ("ops_int_addsub", "ops_int_mul", "ops_int_divrem",
                "ops_int_bit")


def _op_mix(info) -> Dict[str, float]:
    """Per-work-item dynamic op counts, weighted by the profiled block
    execution frequencies (which already encode trip counts)."""
    counts: Dict[str, float] = {}
    weights = info.block_weights or {}
    private_mem = 0.0
    total = 0.0
    for block in info.fn.blocks:
        w = float(weights.get(block.name, 0.0))
        if w <= 0.0:
            continue
        for inst in block.instructions:
            op = inst.opcode
            total += w
            bucket = _OP_BUCKETS.get(op)
            if bucket is not None:
                counts[bucket] = counts.get(bucket, 0.0) + w
            elif op in ("load", "store"):
                space = str(inst.space)
                if space not in ("global", "local"):
                    private_mem += w
            # barrier / pipe.* / phi / ret / alloca: counted in `total`
            # and covered by the dedicated density features below
    counts["ops_private_mem"] = private_mem
    counts["ops_total"] = total
    return counts


def _stride_histogram(info) -> Dict[str, float]:
    """Distribution of global-access strides across work-items, weighted
    by each site's dynamic access count."""
    unit = zero = const = irregular = coalescible = 0.0
    total = 0.0
    bytes_per_wi = 0.0
    for site in sorted(info.traces.sites):
        stats = info.traces.sites[site]
        if stats.space != "global":
            continue
        w = float(stats.per_wi_count)
        if w <= 0.0:
            continue
        total += w
        bytes_per_wi += w * stats.nbytes
        if stats.coalescible:
            coalescible += w
        if stats.wi_stride is None:
            irregular += w
        elif stats.wi_stride == stats.nbytes:
            unit += w
        elif stats.wi_stride == 0:
            zero += w
        else:
            const += w
    if total <= 0.0:
        return {"stride_frac_unit": 0.0, "stride_frac_zero": 0.0,
                "stride_frac_const": 0.0, "stride_frac_irregular": 0.0,
                "coalescible_frac": 0.0, "global_bytes_per_wi": 0.0}
    return {
        "stride_frac_unit": unit / total,
        "stride_frac_zero": zero / total,
        "stride_frac_const": const / total,
        "stride_frac_irregular": irregular / total,
        "coalescible_frac": coalescible / total,
        "global_bytes_per_wi": bytes_per_wi,
    }


def kernel_features(info) -> Dict[str, float]:
    """The kernel-side feature map (name -> value) for one analysed
    kernel at one work-group size.  Count-like features are
    log1p-compressed so log-latency is roughly linear in them."""
    mix = _op_mix(info)
    out: Dict[str, float] = {}
    for name in ("ops_int_addsub", "ops_int_mul", "ops_int_divrem",
                 "ops_int_bit", "ops_float_addsub", "ops_float_mul",
                 "ops_float_divrem", "ops_cmp", "ops_select", "ops_cast",
                 "ops_gep", "ops_call", "ops_branch", "ops_private_mem",
                 "ops_total"):
        out[name] = _log1p(mix.get(name, 0.0))

    total = mix.get("ops_total", 0.0)
    float_arith = sum(mix.get(b, 0.0) for b in _FLOAT_BUCKETS)
    int_arith = sum(mix.get(b, 0.0) for b in _INT_BUCKETS)
    arith = float_arith + int_arith
    traces = info.traces
    mem_ops = (traces.global_reads_per_wi + traces.global_writes_per_wi
               + traces.local_reads_per_wi + traces.local_writes_per_wi)
    out["frac_float_arith"] = float_arith / arith if arith > 0 else 0.0
    out["frac_mem_ops"] = mem_ops / total if total > 0 else 0.0
    out["frac_control"] = (mix.get("ops_branch", 0.0) / total
                           if total > 0 else 0.0)

    loops = info.loop_nest.loops if info.loop_nest is not None else []
    trips = [float(loop.trip_count) for loop in loops]
    out["loop_count"] = float(len(loops))
    out["loop_max_depth"] = float(max((loop.depth + 1 for loop in loops),
                                      default=0))
    out["loop_max_trip"] = _log1p(max(trips, default=0.0))
    out["loop_iters_per_wi"] = _log1p(sum(trips))

    out["global_reads_per_wi"] = _log1p(traces.global_reads_per_wi)
    out["global_writes_per_wi"] = _log1p(traces.global_writes_per_wi)
    out["local_reads_per_wi"] = _log1p(traces.local_reads_per_wi)
    out["local_writes_per_wi"] = _log1p(traces.local_writes_per_wi)

    strides = _stride_histogram(info)
    for name, value in strides.items():
        out[name] = (_log1p(value) if name == "global_bytes_per_wi"
                     else value)

    recurrences = traces.recurrences or []
    out["recurrence_count"] = _log1p(len(recurrences))
    out["recurrence_min_distance"] = _log1p(
        min((abs(r.distance) for r in recurrences), default=0))

    out["barriers_per_wi"] = _log1p(info.barriers_per_wi)
    pipe_tokens = sum(t.reads_per_wi + t.writes_per_wi
                      for _, t in sorted(info.pipe_traffic.items()))
    out["pipe_tokens_per_wi"] = _log1p(pipe_tokens)
    out["uses_barrier"] = 1.0 if info.uses_barrier else 0.0

    out["local_mem_bytes"] = _log1p(info.local_mem_bytes)
    out["dsp_cost_per_wi"] = _log1p(info.dsp_cost_per_wi)
    out["dsp_static_cost"] = _log1p(info.dsp_static_cost)

    out["log2_work_group_size"] = _log2(info.work_group_size)
    out["total_work_items"] = _log1p(info.total_work_items)
    out["num_work_groups"] = _log1p(info.num_work_groups)
    return out


def design_features(info, design) -> Dict[str, float]:
    """The design-knob feature map for one design point, including the
    kernel x design interactions the ridge model cannot form itself."""
    slots = design.effective_pe_slots
    parallelism = slots * design.num_cu
    traces = info.traces
    mem_per_wi = traces.global_reads_per_wi + traces.global_writes_per_wi
    return {
        "design_log2_wg": _log2(design.work_group_size),
        "design_work_item_pipeline":
            1.0 if design.work_item_pipeline else 0.0,
        "design_work_group_pipeline":
            1.0 if design.work_group_pipeline else 0.0,
        "design_log2_pe": _log2(design.num_pe),
        "design_log2_cu": _log2(design.num_cu),
        "design_log2_vector_width": _log2(design.vector_width),
        "design_comm_pipeline":
            1.0 if design.comm_mode == "pipeline" else 0.0,
        "design_log2_pe_slots": _log2(slots),
        "design_log2_parallelism": _log2(parallelism),
        "design_work_per_slot":
            _log1p(info.total_work_items / max(parallelism, 1)),
        "design_wg_over_slots":
            _log2(design.work_group_size) - _log2(slots),
        "design_parallel_mem_pressure":
            _log2(parallelism) * _log1p(mem_per_wi),
    }


def feature_vector(info, design) -> np.ndarray:
    """The full (kernel, design) feature vector in
    :data:`FEATURE_NAMES` order, as float64."""
    kernel = kernel_features(info)
    knobs = design_features(info, design)
    values: List[float] = []
    for name in KERNEL_FEATURE_NAMES:
        values.append(float(kernel[name]))
    for name in DESIGN_FEATURE_NAMES:
        values.append(float(knobs[name]))
    return np.asarray(values, dtype=np.float64)
