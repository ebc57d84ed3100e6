"""Unit tests for the DRAM substrate: mapping, coalescing, patterns,
controller timing, and the Table 1 micro-benchmarks."""

import pytest

from repro.analysis.packed import PackedStream, pack_group, pack_traces
from repro.analysis.streams import GroupStreamExtrapolator
from repro.devices import KU060, VIRTEX7
from repro.devices.device import DRAMTiming
from repro.dram import (
    AccessPattern,
    BankMapping,
    DRAMController,
    PATTERNS,
    PatternCounts,
    profile_pattern_latencies,
)
from repro.interp.executor import MemAccess

from dram_reference import (
    CoalescedRequest,
    classify_bank_stream,
    coalesce_stream,
    coalescing_factor,
    pattern_for,
)

MAPPING = BankMapping(num_banks=8, row_bytes=1024, interleave_bytes=64)


def packed(accesses):
    """One access stream, in the given order, as columns."""
    return PackedStream.from_group(pack_group([accesses]))


def interleave_work_items(traces, pipelined):
    """The access order one work-group of *traces* presents to memory."""
    return GroupStreamExtrapolator(pack_traces(traces, len(traces)),
                                   pipelined=pipelined).stream(0)


class TestBankMapping:
    def test_bank_in_range(self):
        for addr in range(0, 1 << 16, 64):
            assert 0 <= MAPPING.bank_of(addr) < 8

    def test_same_block_same_bank(self):
        assert MAPPING.bank_of(128) == MAPPING.bank_of(129)
        assert MAPPING.bank_of(128) == MAPPING.bank_of(191)

    def test_swizzle_breaks_page_alignment(self):
        # Element 0 of two 4KB-aligned buffers should often land on
        # different banks thanks to the XOR swizzle.
        banks = {MAPPING.bank_of(4096 * i) for i in range(1, 9)}
        assert len(banks) > 1

    def test_row_of_advances(self):
        # within one bank, higher addresses reach higher rows
        r0 = MAPPING.row_of(0)
        r1 = MAPPING.row_of(8 * 1024 * 16)
        assert r1 > r0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BankMapping(num_banks=0, row_bytes=1024, interleave_bytes=64)
        with pytest.raises(ValueError):
            BankMapping(num_banks=8, row_bytes=100, interleave_bytes=64)

    def test_for_device(self):
        m = BankMapping.for_device(VIRTEX7)
        assert m.num_banks == 8 and m.row_bytes == 1024


class TestCoalescing:
    def test_paper_example_1024_reads(self):
        """§3.4: 1024 consecutive 32-bit reads, 512-bit unit -> 64."""
        stream = packed([MemAccess("read", 4096 + 4 * i, 4, "a")
                         for i in range(1024)])
        assert len(coalesce_stream(stream, 512)) == 64

    def test_factor_formula(self):
        assert coalescing_factor(512, 32) == 16
        assert coalescing_factor(512, 64) == 8
        assert coalescing_factor(512, 1024) == 1

    def test_kind_change_breaks_run(self):
        stream = packed([MemAccess("read", 0, 4, "a"),
                         MemAccess("write", 4, 4, "a"),
                         MemAccess("read", 8, 4, "a")])
        assert len(coalesce_stream(stream, 512)) == 3

    def test_noncontiguous_not_merged(self):
        stream = packed([MemAccess("read", 0, 4, "a"),
                         MemAccess("read", 64, 4, "a")])
        assert len(coalesce_stream(stream, 512)) == 2

    def test_total_bytes_preserved(self):
        stream = packed([MemAccess("read", 4 * i, 4, "a")
                         for i in range(100)])
        reqs = coalesce_stream(stream, 512)
        assert sum(r.nbytes for r in reqs) == 400

    def test_interleave_pipelined_groups_same_site(self):
        # two WIs, each read-a then read-b: pipelined order puts the two
        # a-reads adjacent.
        t0 = [MemAccess("read", 0, 4, "a"), MemAccess("read", 100, 4, "b")]
        t1 = [MemAccess("read", 4, 4, "a"), MemAccess("read", 104, 4, "b")]
        stream = interleave_work_items([t0, t1], pipelined=True)
        assert stream.addr.tolist() == [0, 4, 100, 104]

    def test_interleave_sequential(self):
        t0 = [MemAccess("read", 0, 4, "a"), MemAccess("read", 100, 4, "b")]
        t1 = [MemAccess("read", 4, 4, "a"), MemAccess("read", 104, 4, "b")]
        stream = interleave_work_items([t0, t1], pipelined=False)
        assert stream.addr.tolist() == [0, 100, 4, 104]


class TestPatternClassification:
    def test_first_access_is_miss_after_read(self):
        counts = classify_bank_stream(
            [CoalescedRequest("read", 0, 64)], MAPPING)
        assert counts[AccessPattern.RAR_MISS] == 1

    def test_repeat_same_row_hits(self):
        reqs = [CoalescedRequest("read", 0, 64),
                CoalescedRequest("read", 0, 64)]
        counts = classify_bank_stream(reqs, MAPPING)
        assert counts[AccessPattern.RAR_HIT] == 1

    def test_write_after_read_tracked(self):
        reqs = [CoalescedRequest("read", 0, 64),
                CoalescedRequest("write", 0, 64)]
        counts = classify_bank_stream(reqs, MAPPING)
        assert counts[AccessPattern.WAR_HIT] == 1

    def test_all_eight_patterns_exist(self):
        assert len(PATTERNS) == 8
        kinds = {(p.kind, p.previous_kind, p.is_hit) for p in PATTERNS}
        assert len(kinds) == 8

    def test_pattern_for_lookup(self):
        assert pattern_for("read", "write", True) \
            == AccessPattern.RAW_HIT
        assert pattern_for("write", "write", False) \
            == AccessPattern.WAW_MISS

    def test_counts_total(self):
        reqs = [CoalescedRequest("read", i * 64, 64) for i in range(10)]
        counts = classify_bank_stream(reqs, MAPPING)
        assert counts.total() == 10

    def test_counts_are_per_coalesced_request(self):
        """Table 1's N is the count *after coalescing*: a burst crossing
        an interleave boundary is still one priced access."""
        reqs = [CoalescedRequest("read", 0, 128)]
        counts = classify_bank_stream(reqs, MAPPING)
        assert counts.total() == 1

    def test_boundary_burst_still_warms_both_banks(self):
        # The second block's row is opened by the first request, so a
        # later read of it must classify as a hit.
        reqs = [CoalescedRequest("read", 0, 128),
                CoalescedRequest("read", 64, 64)]
        counts = classify_bank_stream(reqs, MAPPING)
        assert counts.hits() == 1


class TestController:
    def _controller(self):
        return DRAMController(MAPPING, DRAMTiming())

    @staticmethod
    def _access(c, kind, addr, arrival):
        """``(latency, pattern)`` of one single-block access (kind 0 =
        read, 1 = write) arriving at *arrival*."""
        bank, row = MAPPING.locate(addr)
        pattern = PATTERNS[c.pattern(kind, bank, row)]
        return c.access(kind, bank, row, arrival) - arrival, pattern

    def test_hit_faster_than_miss(self):
        c = self._controller()
        miss, _ = self._access(c, 0, 0, 0.0)
        hit, _ = self._access(c, 0, 0, miss)
        assert hit < miss

    def test_row_change_misses(self):
        c = self._controller()
        first, _ = self._access(c, 0, 0, 0.0)
        far = 8 * 1024 * 64   # same bank after swizzle may differ; use
        # three distinct rows to evict the 2-entry window
        _, pattern = self._access(c, 0, far, first)
        assert not pattern.is_hit or MAPPING.bank_of(far) != MAPPING.bank_of(0)

    def test_write_to_read_turnaround(self):
        t = DRAMTiming()
        c = self._controller()
        w, _ = self._access(c, 1, 0, 0.0)
        r, _ = self._access(c, 0, 0, w)
        rr, _ = self._access(c, 0, 0, w + r)
        assert r == rr + t.t_wtr

    def test_monotonic_finish_times(self):
        c = self._controller()
        finishes = []
        clock = 0.0
        for i in range(32):
            clock = c.access(0, *MAPPING.locate(i * 64), clock)
            finishes.append(clock)
        assert finishes == sorted(finishes)

    def test_reset_clears_state(self):
        c = self._controller()
        first = self._access(c, 0, 0, 0.0)
        c.reset()
        again = self._access(c, 0, 0, 0.0)
        assert again == first


class TestMicrobench:
    @pytest.mark.parametrize("device, delta_t", [
        (VIRTEX7, [24, 27, 25, 23, 30, 37, 31, 33]),
        (KU060, [20, 22, 22, 20, 26, 32, 28, 30]),
    ])
    def test_table1_values_pinned(self, device, delta_t):
        """E1's eight ΔT values, in PATTERNS (= EXPERIMENTS.md) order:
        any change to the DRAM controller that moves one fails here."""
        table = profile_pattern_latencies(device)
        assert [table.of(p) for p in PATTERNS] == delta_t

    def test_table_has_all_patterns(self):
        table = profile_pattern_latencies(VIRTEX7)
        assert set(table.latencies) == set(PATTERNS)

    def test_hits_cheaper_than_misses(self):
        table = profile_pattern_latencies(VIRTEX7)
        for hit, miss in [
            (AccessPattern.RAR_HIT, AccessPattern.RAR_MISS),
            (AccessPattern.WAW_HIT, AccessPattern.WAW_MISS),
        ]:
            assert table.of(hit) < table.of(miss)

    def test_after_write_costs_more(self):
        table = profile_pattern_latencies(VIRTEX7)
        assert table.of(AccessPattern.RAW_HIT) \
            > table.of(AccessPattern.RAR_HIT)

    def test_ultrascale_is_faster(self):
        v7 = profile_pattern_latencies(VIRTEX7)
        ku = profile_pattern_latencies(KU060)
        assert ku.of(AccessPattern.RAR_HIT) < v7.of(AccessPattern.RAR_HIT)

    def test_weighted_latency_eq9(self):
        table = profile_pattern_latencies(VIRTEX7)
        counts = PatternCounts()
        counts.add(AccessPattern.RAR_HIT, 10)
        counts.add(AccessPattern.RAW_MISS, 2)
        expected = (10 * table.of(AccessPattern.RAR_HIT)
                    + 2 * table.of(AccessPattern.RAW_MISS))
        assert table.weighted_latency(counts) == pytest.approx(expected)
