"""Global-memory model (paper §3.4, Table 1, Eq. 9).

Takes the profiled per-work-item global access traces, reconstructs the
access stream the memory subsystem observes under the design's execution
order, applies SDAccel's automatic coalescing, routes the coalesced
requests to banks under the byte-interleaved mapping, classifies each
into one of Table 1's eight patterns, and prices the per-work-item
latency:

    L_mem^wi = Σ_patterns ΔT_p · N_p        (Eq. 9, per work-item)

The streams come from the one reconstruction the System Run simulator
also executes (:class:`~repro.analysis.GroupStreamExtrapolator`), read
as its plan: every group of the window is a profiled stand-in plus a
shift.  The model does its work once per distinct stream.  Each
stand-in is coalesced once; a shifted copy reuses the stand-in's
request starts whenever the shift leaves its runs intact (always, for
one address delta), and only its request addresses move; copies that
break their runs elsewhere are coalesced once per distinct set of
breaks.  Groups that replay a stand-in unchanged are classified once,
with their pattern counts weighted by how many groups replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.kernel_info import KernelInfo
from repro.analysis.packed import PackedStream
from repro.analysis.streams import GroupStreamExtrapolator, Shift
from repro.dram.coalesce import request_starts
from repro.dram.mapping import BankMapping
from repro.dram.microbench import (
    PatternLatencyTable,
    profile_pattern_latencies,
)
from repro.dram.patterns import PatternCounts, classify_packed

#: memoised per-device pattern tables (profiling is deterministic),
#: keyed on the full device identity — never on ``device.name``, which
#: would alias two boards that share a name but differ in DRAM timing
#: or clock configuration
_PATTERN_CACHE: Dict[str, PatternLatencyTable] = {}


def pattern_table_for(device, cache=None) -> PatternLatencyTable:
    """The (cached) profiled Table 1 latencies for *device*.

    Memoised in-process on the device's content fingerprint; with a
    persistent *cache* (:class:`repro.cache.ArtifactCache`) the profiled
    table is also stored on disk so later processes skip the DRAM
    micro-benchmarks entirely.
    """
    from repro.cache import device_fingerprint, table1_key
    key = device_fingerprint(device)
    if key not in _PATTERN_CACHE:
        if cache is not None:
            _PATTERN_CACHE[key] = cache.get_or_compute(
                "table1", table1_key(device),
                lambda: profile_pattern_latencies(device))
        else:
            _PATTERN_CACHE[key] = profile_pattern_latencies(device)
    return _PATTERN_CACHE[key]


@dataclass
class MemoryModelResult:
    """Eq. 9's output plus its ingredients, for diagnostics/ablation."""

    latency_per_wi: float          # L_mem^wi
    pattern_counts: Optional[PatternCounts] = None
    requests_per_group: int = 0
    accesses_per_group: int = 0

    @property
    def coalescing_ratio(self) -> float:
        if self.requests_per_group == 0:
            return 1.0
        return self.accesses_per_group / self.requests_per_group


def memory_model(info: KernelInfo, device,
                 pipelined: bool = True,
                 coalescing: bool = True,
                 table: Optional[PatternLatencyTable] = None
                 ) -> MemoryModelResult:
    """Price one work-item's global-memory time for a design.

    *pipelined* selects the access interleaving order (work-item
    pipelining makes same-site accesses of successive work-items
    adjacent, which is what makes them coalescible).  *coalescing* can
    be disabled for ablation studies.
    """
    if table is None:
        table = pattern_table_for(device)
    mapping = BankMapping.for_device(device)

    # Price Eq. 9 over a window of reconstructed work-group streams —
    # the SAME reconstruction the System Run simulator executes
    # (repro.analysis.GroupStreamExtrapolator), so the model and the
    # ground truth disagree only on timing, never on traffic.
    extrapolator = GroupStreamExtrapolator(info.traces.global_traces,
                                           pipelined=pipelined)
    # The window spans the NDRange (capped like the simulator's
    # per-group cap) so data-sparse kernels — where only a few groups
    # touch memory at all — average correctly over their idle groups.
    window = min(info.num_work_groups, 96)
    plan = extrapolator.plan(window)
    if not plan:
        return MemoryModelResult(latency_per_wi=0.0,
                                 pattern_counts=PatternCounts())

    unit = device.mem_access_unit_bits if coalescing else 8
    streams, total_requests, total_accesses = _window_streams(
        extrapolator, plan, unit)
    # Classify the distinct streams, a batch of whole streams at a time.
    # Bank state is per (stream, bank) and Eq. 9 is linear in the
    # pattern counts, so the summed window latency is the weighted
    # latency of the merged counts, each stream's counts weighted by the
    # groups it stands for.
    counts = PatternCounts()
    for kind, addr, nbytes, group, weight in _batches(streams):
        batch = classify_packed(kind, addr, nbytes, mapping, group=group,
                                weight=weight)
        for p, n in batch.counts.items():
            counts.add(p, n)
    return MemoryModelResult(
        latency_per_wi=(table.weighted_latency(counts)
                        / (window * info.work_group_size)),
        pattern_counts=counts,
        requests_per_group=round(total_requests / window),
        accesses_per_group=round(total_accesses / window),
    )


def _window_streams(extrapolator: GroupStreamExtrapolator,
                    plan: List[Tuple[int, Shift]], unit_bits: int):
    """The coalesced requests of the window's distinct streams.

    Returns ``(kind, addr, nbytes, weight)`` per distinct stream, with
    *weight* the work-groups it stands for, plus the window's request
    and access totals.  Groups replaying a stand-in unchanged are one
    stream.  Each stand-in is coalesced once for its own runs, and its
    shifted copies reuse those request starts and sizes at shifted
    addresses whenever they break their runs at the same places
    (:func:`_split_by_runs`); copies that break elsewhere are coalesced
    once per distinct set of breaks.
    """
    replays: Dict[int, int] = {}
    shifted: Dict[int, List[int]] = {}
    delta = 0
    for index, shift in plan:
        if shift is None:
            replays[index] = replays.get(index, 0) + 1
        else:
            delta = shift[0]         # one delta per reconstruction
            shifted.setdefault(index, []).append(shift[1])

    own_runs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def coalesced(index: int, steps: Optional[int]):
        s = extrapolator.stand_in(index)
        if steps is not None:
            return request_starts(s.kind, s.addr + delta * steps,
                                  s.nbytes, unit_bits)
        if index not in own_runs:
            own_runs[index] = request_starts(s.kind, s.addr, s.nbytes,
                                             unit_bits)
        return own_runs[index]

    streams = []
    total_requests = total_accesses = 0
    for index, count in replays.items():
        s = extrapolator.stand_in(index)
        starts, nbytes = coalesced(index, None)
        streams.append((s.kind[starts], s.addr[starts], nbytes, count))
        total_requests += count * int(starts.shape[0])
        total_accesses += count * len(s)
    for index, steps in shifted.items():
        s = extrapolator.stand_in(index)
        for copies, sample in _split_by_runs(s, delta, np.array(steps)):
            starts, nbytes = coalesced(index, sample)
            moved = delta if np.ndim(delta) == 0 else delta[starts]
            kind = s.kind[starts]
            streams += [(kind, addr, nbytes, 1) for addr in
                        s.addr[starts] + moved * copies[:, None]]
            total_requests += copies.shape[0] * int(starts.shape[0])
            total_accesses += copies.shape[0] * len(s)
    return streams, total_requests, total_accesses


#: requests per classifier call: whole streams up to about this many,
#: so that the classifier's temporaries stay cache-sized
_BATCH_REQUESTS = 1 << 16


def _batches(streams):
    """``classify_packed`` columns ``(kind, addr, nbytes, group,
    weight)`` for consecutive whole *streams*, about
    :data:`_BATCH_REQUESTS` requests at a time."""
    batch, size = [], 0
    for stream in streams:
        batch.append(stream)
        size += stream[0].shape[0]
        if size >= _BATCH_REQUESTS:
            yield _columns(batch)
            batch, size = [], 0
    if batch:
        yield _columns(batch)


def _columns(batch):
    group = np.repeat(
        np.arange(len(batch), dtype=np.min_scalar_type(len(batch) - 1)),
        [s[0].shape[0] for s in batch])
    return (np.concatenate([s[0] for s in batch]),
            np.concatenate([s[1] for s in batch]),
            np.concatenate([s[2] for s in batch]), group,
            np.array([s[3] for s in batch], np.int64))


def _split_by_runs(stand_in: PackedStream, delta, steps: np.ndarray):
    """Split the steps of *stand_in*'s shifted copies by where their
    contiguous same-kind runs break.  Yields ``(steps, sample)``:
    *sample* is None for copies that break where the stand-in does, else
    one of the steps, whose copy breaks like every copy in the split.

    Only address differences decide breaks, so a scalar delta moves
    none, and per-access deltas can change contiguity only at the
    adjacent same-kind pairs whose deltas differ."""
    if np.ndim(delta) == 0:
        yield steps, None
        return
    kind, addr, nbytes = stand_in.kind, stand_in.addr, stand_in.nbytes
    at = np.flatnonzero((kind[1:] == kind[:-1])
                        & (delta[1:] != delta[:-1]))
    gap = addr[at + 1] - addr[at] - nbytes[at]
    contiguous = gap + (delta[at + 1] - delta[at]) * steps[:, None] == 0
    keeps = (contiguous == (gap == 0)).all(axis=1)
    if keeps.any():
        yield steps[keeps], None
    splits: Dict[bytes, List[int]] = {}
    for step, row in zip(steps[~keeps].tolist(), contiguous[~keeps]):
        splits.setdefault(row.tobytes(), []).append(step)
    for copies in splits.values():
        yield np.array(copies), copies[0]
