"""Property-based tests for the DRAM substrate and the memory model's
window pipeline."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.packed import PackedStream, PackedTraces, pack_group
from repro.analysis.streams import GroupStreamExtrapolator
from repro.devices import KU060, VIRTEX7
from repro.dram import BankMapping, classify_bank_stream
from repro.dram.coalesce import (
    CoalescedRequest,
    coalesce_packed,
    coalesce_stream,
    coalescing_factor,
)
from repro.dram.controller import DRAMController
from repro.dram.patterns import PATTERNS, PatternCounts, classify_packed
from repro.devices.device import DRAMTiming
from repro.interp.executor import MemAccess
from repro.model.memory import memory_model, pattern_table_for

MAPPING = BankMapping(num_banks=8, row_bytes=1024, interleave_bytes=64)


def coalesce(accesses, unit_bits):
    """Coalesce an access list, in order, through the columnar path."""
    return coalesce_stream(
        PackedStream.from_group(pack_group([accesses])), unit_bits)


addresses = st.integers(min_value=0, max_value=1 << 24)
kinds = st.sampled_from(["read", "write"])
sizes = st.sampled_from([1, 2, 4, 8])


@st.composite
def access_streams(draw, max_len=60):
    n = draw(st.integers(0, max_len))
    return [
        MemAccess(draw(kinds), draw(addresses), draw(sizes), "buf")
        for _ in range(n)
    ]


class TestMappingProperties:
    @given(addresses)
    def test_bank_in_range(self, addr):
        assert 0 <= MAPPING.bank_of(addr) < MAPPING.num_banks

    @given(addresses)
    def test_same_interleave_block_same_location(self, addr):
        base = (addr // 64) * 64
        assert MAPPING.locate(addr) == MAPPING.locate(base)

    @given(addresses, st.integers(0, 63))
    def test_locate_deterministic(self, addr, offset):
        assert MAPPING.locate(addr) == MAPPING.locate(addr)


class TestCoalescingProperties:
    @given(access_streams())
    def test_total_bytes_preserved(self, stream):
        reqs = coalesce(stream, 512)
        assert sum(r.nbytes for r in reqs) \
            == sum(a.nbytes for a in stream)

    @given(access_streams())
    def test_never_more_requests_than_accesses(self, stream):
        assert len(coalesce(stream, 512)) <= len(stream)

    @given(access_streams())
    def test_requests_within_unit(self, stream):
        for r in coalesce(stream, 512):
            assert 0 < r.nbytes <= 64

    @given(st.integers(1, 4096), st.integers(1, 1024))
    def test_factor_at_least_one(self, unit, width):
        assert coalescing_factor(unit, width) >= 1

    @given(st.integers(2, 64).map(lambda k: 2 ** (k % 6 + 4)))
    def test_unit_stride_reads_coalesce_fully(self, count):
        stream = [MemAccess("read", 4 * i, 4, "a") for i in range(count)]
        reqs = coalesce(stream, 512)
        f = coalescing_factor(512, 32)
        assert len(reqs) == -(-count // f)


class TestClassificationProperties:
    @given(access_streams())
    @settings(max_examples=50)
    def test_total_counts_match_requests(self, stream):
        """Eq. 9 prices one pattern per post-coalescing request."""
        reqs = coalesce(stream, 512)
        counts = classify_bank_stream(reqs, MAPPING)
        assert counts.total() == len(reqs)


@st.composite
def packed_columns(draw, sizes, max_len=80, max_groups=4,
                   contiguous_groups=False):
    """``(kind, addr, nbytes, group)`` columns.  Each entry mostly
    starts where the previous one ended, so runs coalesce, requests
    share rows and larger sizes cross interleave blocks."""
    n = draw(st.integers(0, max_len))
    kind, addr, nbytes, group = [], [], [], []
    nxt = draw(st.integers(0, 1 << 14))
    for _ in range(n):
        if draw(st.integers(0, 3)) == 0:
            nxt = draw(st.integers(0, 1 << 14))
        nb = draw(sizes)
        kind.append(draw(st.integers(0, 1)))
        addr.append(nxt)
        nbytes.append(nb)
        group.append(draw(st.integers(0, max_groups - 1)))
        nxt += nb
    if contiguous_groups:
        group.sort()
    return (np.array(kind, np.uint8), np.array(addr, np.int64),
            np.array(nbytes, np.int64), np.array(group, np.int64))


def _requests(kind, addr, nbytes):
    return [CoalescedRequest("read" if k == 0 else "write", a, n)
            for k, a, n in zip(kind.tolist(), addr.tolist(),
                               nbytes.tolist())]


def _as_dict(counts):
    return {p: counts[p] for p in PATTERNS}


#: request sizes: empty, within one 64-byte block, and block-crossing
request_sizes = st.sampled_from([0, 1, 4, 8, 48, 64, 100, 200])
#: power-of-two geometry (shift arithmetic) and one that is not
mappings = st.sampled_from([
    MAPPING, BankMapping(num_banks=6, row_bytes=960, interleave_bytes=48)])


def _per_group_counts(kind, addr, nbytes, group, mapping):
    expect = {p: 0 for p in PATTERNS}
    for g in np.unique(group).tolist():
        sel = group == g
        counts = classify_bank_stream(
            _requests(kind[sel], addr[sel], nbytes[sel]), mapping)
        for p in PATTERNS:
            expect[p] += counts[p]
    return expect


def _classify_group_major(kind, addr, nbytes, group, mapping):
    """``classify_packed`` with each group's requests made contiguous
    (its input order); a stable sort keeps each group's own order."""
    order = np.argsort(group, kind="stable")
    return classify_packed(kind[order], addr[order], nbytes[order],
                           mapping, group=group[order])


class TestPackedClassificationProperties:
    """``classify_packed`` against the per-request bank state machine."""

    @given(packed_columns(request_sizes), mappings)
    @settings(max_examples=80)
    def test_groups_classify_independently(self, cols, mapping):
        got = _classify_group_major(*cols, mapping)
        assert _as_dict(got) == _per_group_counts(*cols, mapping)

    @given(packed_columns(request_sizes, contiguous_groups=True),
           mappings, st.lists(st.integers(1, 5), min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_weights_multiply_group_counts(self, cols, mapping, weight):
        got = classify_packed(*cols[:3], mapping, group=cols[3],
                              weight=np.array(weight, np.int64))
        expect = {p: 0 for p in PATTERNS}
        for g in np.unique(cols[3]).tolist():
            sel = cols[3] == g
            one = classify_bank_stream(
                _requests(*(c[sel] for c in cols[:3])), mapping)
            for p in PATTERNS:
                expect[p] += weight[g] * one[p]
        assert _as_dict(got) == expect
        assert all(type(n) is int for n in got.counts.values())

    @given(packed_columns(request_sizes), mappings)
    @settings(max_examples=80)
    def test_ungrouped_is_one_stream(self, cols, mapping):
        kind, addr, nbytes, _ = cols
        expect = classify_bank_stream(_requests(kind, addr, nbytes),
                                      mapping)
        got = classify_packed(kind, addr, nbytes, mapping)
        assert _as_dict(got) == _as_dict(expect)

    @given(packed_columns(st.sampled_from([1, 4, 8])), mappings)
    @settings(max_examples=40)
    def test_single_block_requests(self, cols, mapping):
        """The common case: no request leaves its interleave block."""
        kind, addr, nbytes, group = cols
        # 8-aligned addresses keep every 1-8 byte request in its block
        addr = addr - addr % 8
        got = _classify_group_major(kind, addr, nbytes, group, mapping)
        assert _as_dict(got) == _per_group_counts(kind, addr, nbytes,
                                                  group, mapping)

    def test_empty_stream(self):
        empty = np.empty(0, np.int64)
        for group in (None, empty):
            counts = classify_packed(empty.astype(np.uint8), empty, empty,
                                     MAPPING, group=group)
            assert counts.total() == 0


class TestPackedCoalescingProperties:
    """The columnar coalescer is the greedy access-by-access merge."""

    @staticmethod
    def _greedy(kind, addr, nbytes, unit):
        unit_bytes = max(unit // 8, 1)
        reqs = []
        for k, a, n in zip(kind.tolist(), addr.tolist(), nbytes.tolist()):
            last = reqs[-1] if reqs else None
            if last and last[0] == k and last[1] + last[2] == a \
                    and last[2] + n <= unit_bytes:
                last[2] += n
            else:
                reqs.append([k, a, n])
        return [list(c) for c in zip(*reqs)] if reqs else [[], [], []]

    @given(packed_columns(sizes), st.sampled_from([8, 64, 512]))
    @settings(max_examples=80)
    def test_mixed_sizes(self, cols, unit):
        got = coalesce_packed(*cols[:3], unit)
        assert [c.tolist() for c in got] == self._greedy(*cols[:3], unit)

    @given(sizes.flatmap(lambda nb: packed_columns(st.just(nb))),
           st.sampled_from([8, 64, 512]))
    @settings(max_examples=80)
    def test_uniform_size(self, cols, unit):
        got = coalesce_packed(*cols[:3], unit)
        assert [c.tolist() for c in got] == self._greedy(*cols[:3], unit)


#: Virtex-7 (8 banks), KU060 (16 banks) and a geometry whose bank count
#: and interleave block are not powers of two
DEVICES = [VIRTEX7, KU060, dataclasses.replace(
    VIRTEX7, name="six-bank", dram_banks=6, dram_row_bytes=960,
    dram_interleave_bytes=48)]
TABLE = pattern_table_for(VIRTEX7)


@st.composite
def window_traces(draw):
    """Profiled work-groups that drive every branch of the window plan.

    Each site's address moves by a per-group delta: one delta for all
    sites shifts whole groups by a scalar, distinct ones by per-access
    deltas, which may or may not keep the stand-in's contiguous runs.
    Groups may be empty, shortened (so no pair matches, or the stand-in
    for a congruence class has another length: replays) or scrambled;
    sizes may be mixed and unaligned addresses make requests cross
    interleave blocks."""
    wg = draw(st.integers(1, 4))
    scalar = draw(st.booleans())
    shared_delta = draw(st.sampled_from([0, 4, 60, 64, 4096, -128]))
    sites = []
    base = draw(st.integers(0, 1 << 12))
    for _ in range(draw(st.integers(1, 4))):
        nb = draw(st.sampled_from([4, 4, 4, 8, 2, 48]))
        sites.append((
            draw(st.integers(0, 1)),                  # kind
            base, nb,
            draw(st.sampled_from([nb, nb, 0, 2 * nb, 256])),  # lane stride
            shared_delta if scalar else draw(
                st.sampled_from([0, 4, 8, 16, 64, 4096, -64]))))
        # the next site may start where this one ends (runs that a
        # per-access shift can break) or a little past it
        base += draw(st.sampled_from([0, nb, 4, wg * nb, 512, 100]))
    groups = []
    for g in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(
            ["same", "same", "same", "empty", "short", "scrambled"]))
        lanes = []
        for lane in range(wg):
            trace = []
            if shape != "empty":
                for kind, site_base, nb, stride, delta in sites:
                    addr = site_base + lane * stride + g * delta
                    if shape == "scrambled":
                        addr = draw(st.integers(0, 1 << 12))
                    trace.append(MemAccess("read" if kind == 0 else "write",
                                           addr, nb, "buf"))
            if shape == "short" and lane == wg - 1:
                trace = trace[:-1]
            lanes.append(trace)
        groups.append(pack_group(lanes))
    return SimpleNamespace(
        traces=SimpleNamespace(global_traces=PackedTraces(groups, wg)),
        num_work_groups=draw(st.integers(1, 40)), work_group_size=wg)


def per_group_row(info, device, pipelined, coalescing):
    """Eq. 9's ingredients summed group by group over ``stream(g)``."""
    extrapolator = GroupStreamExtrapolator(info.traces.global_traces,
                                           pipelined=pipelined)
    mapping = BankMapping.for_device(device)
    unit = device.mem_access_unit_bits if coalescing else 8
    window = min(info.num_work_groups, 96)
    counts = PatternCounts()
    requests = accesses = 0
    for g in range(window):
        stream = extrapolator.stream(g)
        rk, ra, rn = coalesce_packed(stream.kind, stream.addr,
                                     stream.nbytes, unit)
        for p, n in classify_packed(rk, ra, rn, mapping).counts.items():
            counts.add(p, n)
        requests += rk.shape[0]
        accesses += len(stream)
    return counts, round(requests / window), round(accesses / window), \
        TABLE.weighted_latency(counts) / (window * info.work_group_size)


def assert_row_is_per_group_sum(info, device, pipelined, coalescing):
    got = memory_model(info, device, pipelined=pipelined,
                       coalescing=coalescing, table=TABLE)
    counts, requests, accesses, latency = per_group_row(
        info, device, pipelined, coalescing)
    assert got.pattern_counts.counts == counts.counts
    assert all(type(n) is int for n in got.pattern_counts.counts.values())
    assert (got.requests_per_group, got.accesses_per_group,
            got.latency_per_wi) == (requests, accesses, latency)


class TestWindowModelProperties:
    """``memory_model`` does its work once per distinct stream; the
    result must be the per-group sum over the reconstructed streams."""

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @given(info=window_traces(), pipelined=st.booleans(),
           coalescing=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_row_is_per_group_sum(self, device, info, pipelined,
                                  coalescing):
        assert_row_is_per_group_sum(info, device, pipelined, coalescing)


#: catalog kernels and work-group sizes whose windows between them take
#: every branch of the plan: scalar shift, per-access shift that keeps
#: or breaks the stand-in's runs, periodic and fallback replay, empty
#: profiled groups and block-crossing requests (no catalog kernel mixes
#: access sizes; the property test above covers that)
CATALOG_SAMPLE = [("rodinia/gaussian/fan2", 256),
                  ("polybench/jacobi-2d/jacobi2d", 32),
                  ("rodinia/bfs/bfs_2", 64)]


@pytest.fixture(scope="module")
def catalog_infos():
    from repro.evaluation import make_analyzer
    from repro.workloads import registry
    by_name = {w.qualified_name: w for w in registry.all_workloads()}
    return {name: make_analyzer(by_name[name], VIRTEX7)(wg)
            for name, wg in CATALOG_SAMPLE}


def _runs(stream):
    """Where the stream's contiguous same-kind runs break."""
    kind, addr, nbytes = stream.kind, stream.addr, stream.nbytes
    return ((kind[1:] != kind[:-1])
            | (addr[1:] != addr[:-1] + nbytes[:-1])).tolist()


def plan_branches(info, pipelined):
    """The plan branches the window of *info* takes."""
    extrapolator = GroupStreamExtrapolator(info.traces.global_traces,
                                           pipelined=pipelined)
    n = extrapolator.profiled_groups
    taken = {"empty"} if any(len(extrapolator.stand_in(i)) == 0
                             for i in range(n)) else set()
    for g in range(min(info.num_work_groups, 96)):
        index, shift = extrapolator.placement(g)
        stand_in, stream = extrapolator.stand_in(index), \
            extrapolator.stream(g)
        if shift is None and g >= n:
            taken.add("fallback replay" if extrapolator.period is None
                      else "periodic replay")
        elif shift is not None and np.ndim(shift[0]) == 0:
            taken.add("scalar shift")
        elif shift is not None:
            taken.add("runs kept" if _runs(stream) == _runs(stand_in)
                      else "runs broken")
        rk, ra, rn = coalesce_packed(stream.kind, stream.addr,
                                     stream.nbytes)
        if (ra % 64 + rn > 64).any():
            taken.add("block crossing")
    return taken


class TestWindowModelCatalog:
    @pytest.mark.parametrize("name", [n for n, _ in CATALOG_SAMPLE])
    @pytest.mark.parametrize("pipelined", [True, False])
    @pytest.mark.parametrize("coalescing", [True, False])
    def test_row_is_per_group_sum(self, catalog_infos, name, pipelined,
                                  coalescing):
        for device in DEVICES:
            assert_row_is_per_group_sum(catalog_infos[name], device,
                                        pipelined, coalescing)

    def test_sample_takes_every_branch(self, catalog_infos):
        taken = set().union(*(plan_branches(info, pipelined)
                              for info in catalog_infos.values()
                              for pipelined in (True, False)))
        assert taken == {"empty", "scalar shift", "runs kept",
                         "runs broken", "periodic replay",
                         "fallback replay", "block crossing"}


def closed_loop(controller, reqs):
    """Service *reqs* back to back, each arriving when the previous one
    finishes; ``(arrival, finish)`` of every interleave-block access."""
    first, bank, row = MAPPING.locate_blocks(
        np.array([r.addr for r in reqs], np.int64),
        np.array([r.nbytes for r in reqs], np.int64))
    out = []
    clock = 0.0
    for i, req in enumerate(reqs):
        kind = 0 if req.kind == "read" else 1
        arrival = clock
        for j in range(first[i], first[i + 1]):
            clock = controller.access(kind, int(bank[j]), int(row[j]),
                                      arrival)
            out.append((arrival, clock))
    return out


class TestControllerProperties:
    @given(access_streams(max_len=40))
    @settings(max_examples=50)
    def test_finish_after_arrival(self, stream):
        controller = DRAMController(MAPPING, DRAMTiming())
        for arrival, finish in closed_loop(controller,
                                           coalesce(stream, 512)):
            assert finish > arrival

    @given(access_streams(max_len=30))
    @settings(max_examples=30)
    def test_deterministic(self, stream):
        reqs = coalesce(stream, 512)
        results = [closed_loop(DRAMController(MAPPING, DRAMTiming()), reqs)
                   for _ in range(2)]
        assert results[0] == results[1]
