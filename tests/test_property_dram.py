"""Property-based tests for the DRAM substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.packed import PackedStream, pack_group
from repro.dram import BankMapping, classify_bank_stream
from repro.dram.coalesce import (
    CoalescedRequest,
    coalesce_packed,
    coalesce_packed_groups,
    coalesce_stream,
    coalescing_factor,
)
from repro.dram.controller import DRAMController
from repro.dram.patterns import PATTERNS, classify_packed
from repro.devices.device import DRAMTiming
from repro.interp.executor import MemAccess

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


class TestPackedClassificationProperties:
    """``classify_packed`` against the per-request bank state machine."""

    @given(packed_columns(request_sizes), mappings)
    @settings(max_examples=80)
    def test_groups_classify_independently(self, cols, mapping):
        got = classify_packed(*cols[:3], mapping, group=cols[3])
        assert _as_dict(got) == _per_group_counts(*cols, mapping)

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
        got = classify_packed(kind, addr, nbytes, mapping, group=group)
        assert _as_dict(got) == _per_group_counts(kind, addr, nbytes,
                                                  group, mapping)

    def test_empty_stream(self):
        empty = np.empty(0, np.int64)
        for group in (None, empty):
            counts = classify_packed(empty.astype(np.uint8), empty, empty,
                                     MAPPING, group=group)
            assert counts.total() == 0


class TestPackedCoalescingProperties:
    """The batched coalescer is the per-group coalescer, concatenated."""

    @staticmethod
    def _per_group(kind, addr, nbytes, group, unit):
        out = [[], [], [], []]
        if group.shape[0] == 0:
            return out
        bounds = np.flatnonzero(np.diff(group)) + 1
        for lo, hi in zip([0, *bounds.tolist()],
                          [*bounds.tolist(), group.shape[0]]):
            rk, ra, rn = coalesce_packed(kind[lo:hi], addr[lo:hi],
                                         nbytes[lo:hi], unit)
            out[0] += rk.tolist()
            out[1] += ra.tolist()
            out[2] += rn.tolist()
            out[3] += [int(group[lo])] * rk.shape[0]
        return out

    @given(packed_columns(sizes, contiguous_groups=True),
           st.sampled_from([8, 64, 512]))
    @settings(max_examples=80)
    def test_mixed_sizes(self, cols, unit):
        got = coalesce_packed_groups(*cols, unit)
        assert [c.tolist() for c in got] == self._per_group(*cols, unit)

    @given(sizes.flatmap(lambda nb: packed_columns(
               st.just(nb), contiguous_groups=True)),
           st.sampled_from([8, 64, 512]))
    @settings(max_examples=80)
    def test_uniform_size(self, cols, unit):
        got = coalesce_packed_groups(*cols, unit)
        assert [c.tolist() for c in got] == self._per_group(*cols, unit)


class TestControllerProperties:
    @given(access_streams(max_len=40))
    @settings(max_examples=50)
    def test_finish_after_arrival(self, stream):
        controller = DRAMController(MAPPING, DRAMTiming())
        reqs = coalesce(stream, 512)
        clock = 0.0
        for req in reqs:
            record = controller.access(req, arrival=clock)
            assert record.finish_time > record.issue_time
            clock = record.finish_time

    @given(access_streams(max_len=30))
    @settings(max_examples=30)
    def test_deterministic(self, stream):
        reqs = coalesce(stream, 512)
        results = []
        for _ in range(2):
            controller = DRAMController(MAPPING, DRAMTiming())
            records = controller.run_stream(reqs, closed_loop=True)
            results.append([r.finish_time for r in records])
        assert results[0] == results[1]
