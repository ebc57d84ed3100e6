"""Property-based tests for the DRAM substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.packed import PackedStream, pack_group
from repro.dram import BankMapping, classify_bank_stream
from repro.dram.coalesce import coalesce_stream, coalescing_factor
from repro.dram.controller import DRAMController
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
