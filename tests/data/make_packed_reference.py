"""Regenerate ``packed_reference.json``, the golden that
``tests/test_packed_model.py`` holds the columnar trace pipeline to.

The scalar interpreter (:class:`repro.interp.KernelExecutor`, the
semantics reference) profiles three work-groups of each sample kernel.
Plain-Python reference code over its per-work-item ``MemAccess`` lists
then derives, per kernel:

- per-site statistics, per-work-item access counts and recurrences;
- per-group stream lengths and digests, pipelined on and off, for the
  profiled groups and three extrapolated ones;
- coalesced-request and Table 1 pattern counts of groups 0 and 1;
- the memory model's full-window row of the global accesses, per mode
  (pipelined or sequential, coalescing on or off): the window, its
  summed requests and accesses, and its Table 1 pattern counts.

The reference works access by access, sharing no code with the
columnar pipeline, so the golden pins the columnar results to an
independent computation rather than to themselves.  Usage::

    PYTHONPATH=src python tests/data/make_packed_reference.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.dram.coalesce import CoalescedRequest
from repro.dram.mapping import BankMapping
from repro.dram.patterns import classify_bank_stream
from repro.interp import KernelExecutor
from repro.workloads import registry

SAMPLE = ["rodinia/nn/nn", "rodinia/hotspot/hotspot",
          "rodinia/srad/srad", "polybench/gemm/gemm",
          "polybench/atax/atax"]
MAX_GROUPS = 3
EXTRA_GROUPS = 3            # extrapolated groups past the profiled ones
COALESCED_GROUPS = 2
MAPPING = BankMapping(num_banks=8, row_bytes=1024, interleave_bytes=64)
OUT = Path(__file__).with_name("packed_reference.json")


WINDOW_CAP = 96             # groups the memory model prices at most
UNIT_BYTES = 64             # the 512-bit memory access unit


def object_traces(name: str):
    """Per-work-item ``MemAccess`` traces, the work-group size and the
    NDRange's work-group count."""
    w = {w.qualified_name: w for w in registry.all_workloads()}[name]
    fn = w.function()
    for i, inst in enumerate(fn.instructions()):
        inst.site_id = i
    ndrange = w.ndrange()
    launch = KernelExecutor(fn, w.make_buffers(), dict(w.scalars)).run(
        ndrange, max_groups=MAX_GROUPS)
    return launch.traces, ndrange.work_group_size, ndrange.num_work_groups


def stream_digest(kinds, addrs, sizes) -> str:
    """Short digest of a stream's (kind, addr, nbytes) sequence; kinds
    are 0 for read and 1 for write."""
    text = ";".join(f"{k},{a},{n}" for k, a, n in zip(kinds, addrs, sizes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- site statistics and recurrences -------------------------------------

def _constant(diffs):
    diffs = set(diffs)
    return diffs.pop() if len(diffs) == 1 else None


def site_table(traces):
    n = len(traces)
    addrs, proto = {}, {}
    for wi, trace in enumerate(traces):
        for a in trace:
            addrs.setdefault(a.site, [[] for _ in range(n)])[wi].append(
                a.addr)
            proto.setdefault(a.site, a)
    sites = {}
    for s, per_wi in addrs.items():
        p = proto[s]
        sites[str(s)] = {
            "kind": p.kind, "space": p.space, "buffer": p.buffer,
            "nbytes": p.nbytes,
            "per_wi_count": sum(map(len, per_wi)) / n,
            "wi_stride": _constant(
                b[j] - a[j] for a, b in zip(per_wi, per_wi[1:])
                for j in range(min(len(a), len(b)))),
            "inner_stride": _constant(
                a[j + 1] - a[j] for a in per_wi
                for j in range(len(a) - 1)),
        }
    return sites, addrs, proto


def recurrence_distance(loads, stores, n):
    for d in range(1, min(8, n - 1) + 1):
        pairs = [(set(loads[i]), set(stores[i - d])) for i in range(d, n)
                 if loads[i] and stores[i - d]]
        if all(r & w for r, w in pairs) \
                and len(pairs) >= max(2, (n - d) // 2):
            return d
    return None


def recurrences(addrs, proto, n):
    out = []
    for ls, l_addrs in addrs.items():
        for ss, s_addrs in addrs.items():
            lp, sp = proto[ls], proto[ss]
            if lp.kind != "read" or sp.kind != "write" \
                    or (lp.buffer, lp.space) != (sp.buffer, sp.space):
                continue
            d = recurrence_distance(l_addrs, s_addrs, n)
            if d is not None:
                out.append([ls, ss, lp.space, lp.buffer, d])
    return out


# -- streams, coalescing, bank patterns ----------------------------------

def interleave(traces, pipelined):
    if not pipelined:
        return [a for t in traces for a in t]
    depth = max(map(len, traces), default=0)
    return [t[j] for j in range(depth) for t in traces if j < len(t)]


def extrapolated_streams(traces, wg, pipelined, count):
    """Streams of groups ``0..count-1``: profiled groups verbatim, later
    groups from the first periodic pair of profiled groups (shifted by
    the pair's per-period address delta) or the median-length group."""
    groups = [[(a.kind, a.addr, a.nbytes) for a in
               interleave(traces[g * wg:(g + 1) * wg], pipelined)]
              for g in range(len(traces) // wg)]
    n = len(groups)
    period = base = deltas = None
    for d in range(1, max(n, 1)):
        for i in range(n - d - 1, -1, -1):
            a, b = groups[i], groups[i + d]
            if a and len(a) == len(b):
                period, base = d, i
                deltas = [y[1] - x[1] for x, y in zip(a, b)]
                break
        if period is not None:
            break
    fallback = sorted(range(n), key=lambda k: len(groups[k]))[n // 2]
    out = []
    for g in range(count):
        if g < n:
            out.append(groups[g])
            continue
        if period is None:
            out.append(groups[fallback])
            continue
        p = base + (g - base) % period
        if p >= n:
            p = fallback
        steps = (g - p) // period
        stand_in = groups[p]
        if len(set(deltas)) == 1:       # one delta shifts any stand-in
            stand_in = [(k, a + deltas[0] * steps, nb)
                        for k, a, nb in stand_in]
        elif len(stand_in) == len(deltas):
            stand_in = [(k, a + dl * steps, nb)
                        for (k, a, nb), dl in zip(stand_in, deltas)]
        out.append(stand_in)
    return out


def coalesce(stream, unit_bytes=UNIT_BYTES):
    """Greedy merge of same-kind contiguous accesses up to one unit."""
    reqs = []
    for kind, addr, nbytes in stream:
        last = reqs[-1] if reqs else None
        if last and last[0] == kind and last[1] + last[2] == addr \
                and last[2] + nbytes <= unit_bytes:
            last[2] += nbytes
        else:
            reqs.append([kind, addr, nbytes])
    return [CoalescedRequest(*r) for r in reqs]


def window_row(traces, wg, num_groups, pipelined, unit_bytes) -> dict:
    """Eq. 9's ingredients over the first ``min(num_groups, 96)`` groups
    of the global accesses: the object-per-access reconstruction,
    coalesced and classified group by group."""
    gtraces = [[a for a in t if a.space == "global"] for t in traces]
    window = min(num_groups, WINDOW_CAP)
    patterns = {}
    requests = accesses = 0
    for stream in extrapolated_streams(gtraces, wg, pipelined, window):
        reqs = coalesce(stream, unit_bytes)
        for p, c in classify_bank_stream(reqs, MAPPING).counts.items():
            patterns[p.name] = patterns.get(p.name, 0) + c
        requests += len(reqs)
        accesses += len(stream)
    return {"window": window, "requests": requests, "accesses": accesses,
            "patterns": {p: c for p, c in patterns.items() if c}}


def kernel_reference(name: str) -> dict:
    traces, wg, num_groups = object_traces(name)
    n = len(traces)
    sites, addrs, proto = site_table(traces)
    counts = {f"{sp}_{k}s": sum(a.space == sp and a.kind == k
                                for t in traces for a in t) / n
              for sp in ("global", "local") for k in ("read", "write")}
    ref = {"wg_size": wg, "work_items": n, "sites": sites,
           "recurrences": recurrences(addrs, proto, n),
           "per_wi": counts, "streams": {}, "requests": {},
           "patterns": {}, "rows": {}}
    for mode, pipelined in (("pipelined", True), ("sequential", False)):
        streams = extrapolated_streams(traces, wg, pipelined,
                                       n // wg + EXTRA_GROUPS)
        ref["streams"][mode] = [
            [len(s), stream_digest(
                [int(k == "write") for k, _, _ in s],
                [a for _, a, _ in s], [nb for _, _, nb in s])]
            for s in streams]
        reqs = [coalesce(s) for s in streams[:COALESCED_GROUPS]]
        ref["requests"][mode] = [len(r) for r in reqs]
        ref["patterns"][mode] = [
            {p.name: c for p, c in classify_bank_stream(r, MAPPING)
             .counts.items() if c}
            for r in reqs]
        for suffix, unit_bytes in (("", UNIT_BYTES), ("/uncoalesced", 1)):
            ref["rows"][mode + suffix] = window_row(
                traces, wg, num_groups, pipelined, unit_bytes)
    return ref


def main() -> None:
    golden = {name: kernel_reference(name) for name in SAMPLE}
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
