"""Unit tests for memory-trace analysis."""

from repro.analysis.memtrace import analyze_traces
from repro.analysis.packed import pack_traces
from repro.interp.executor import MemAccess


def analyze(traces):
    """Analyse per-work-item object traces packed as one work-group."""
    return analyze_traces(pack_traces(traces))


def make_traces(per_wi):
    """per_wi: list (per WI) of (kind, addr, site) tuples."""
    return [
        [MemAccess(kind, addr, 4, "buf", space="global", site=site)
         for kind, addr, site in wi]
        for wi in per_wi
    ]


class TestSiteStats:
    def test_unit_stride_detected(self):
        traces = make_traces([
            [("read", 4 * i, 0)] for i in range(8)
        ])
        result = analyze(traces)
        stats = result.site_stats(0)
        assert stats.wi_stride == 4
        assert stats.coalescible

    def test_large_stride_not_coalescible(self):
        traces = make_traces([
            [("read", 64 * i, 0)] for i in range(8)
        ])
        stats = analyze(traces).site_stats(0)
        assert stats.wi_stride == 64
        assert not stats.coalescible

    def test_irregular_stride_is_none(self):
        addrs = [0, 4, 12, 40, 44, 80, 100, 104]
        traces = make_traces([[("read", a, 0)] for a in addrs])
        stats = analyze(traces).site_stats(0)
        assert stats.wi_stride is None

    def test_inner_stride(self):
        traces = make_traces([
            [("read", base + 4 * j, 0) for j in range(4)]
            for base in (0, 1000)
        ])
        stats = analyze(traces).site_stats(0)
        assert stats.inner_stride == 4

    def test_per_wi_count(self):
        traces = make_traces([
            [("read", 0, 0), ("read", 4, 0)],
            [("read", 8, 0), ("read", 12, 0)],
        ])
        stats = analyze(traces).site_stats(0)
        assert stats.per_wi_count == 2.0


class TestAggregates:
    def test_read_write_counts(self):
        traces = make_traces([
            [("read", 0, 0), ("read", 4, 1), ("write", 8, 2)],
            [("read", 12, 0), ("read", 16, 1), ("write", 20, 2)],
        ])
        result = analyze(traces)
        assert result.global_reads_per_wi == 2.0
        assert result.global_writes_per_wi == 1.0

    def test_local_counts_separate(self):
        traces = [[
            MemAccess("read", 0, 4, "__local", space="local", site=0),
            MemAccess("write", 0, 4, "__local", space="local", site=1),
            MemAccess("read", 0, 4, "g", space="global", site=2),
        ]]
        result = analyze(traces)
        assert result.local_reads_per_wi == 1.0
        assert result.local_writes_per_wi == 1.0
        assert result.global_reads_per_wi == 1.0

    def test_global_traces_filter_local(self):
        traces = [[
            MemAccess("read", 0, 4, "__local", space="local", site=0),
            MemAccess("read", 0, 4, "g", space="global", site=1),
        ]]
        result = analyze(traces)
        assert len(result.global_traces[0]) == 1

    def test_empty(self):
        result = analyze([])
        assert result.global_reads_per_wi == 0.0
        assert result.recurrences == []


class TestRecurrences:
    def test_distance_one_detected(self):
        # WI i reads address that WI i-1 wrote (site 1 writes, site 0
        # reads the previous item's slot).
        traces = []
        for i in range(8):
            traces.append([
                MemAccess("read", 4 * (i - 1), 4, "b",
                          space="global", site=0),
                MemAccess("write", 4 * i, 4, "b",
                          space="global", site=1),
            ])
        result = analyze(traces)
        assert any(r.distance == 1 and r.load_site == 0
                   and r.store_site == 1 for r in result.recurrences)

    def test_distance_two(self):
        traces = []
        for i in range(10):
            traces.append([
                MemAccess("read", 4 * (i - 2), 4, "b",
                          space="global", site=0),
                MemAccess("write", 4 * i, 4, "b",
                          space="global", site=1),
            ])
        result = analyze(traces)
        distances = {r.distance for r in result.recurrences}
        assert 2 in distances

    def test_independent_accesses_no_recurrence(self):
        traces = make_traces([
            [("read", 4 * i, 0), ("write", 1000 + 4 * i, 1)]
            for i in range(8)
        ])
        result = analyze(traces)
        assert result.recurrences == []

    def test_different_buffers_no_recurrence(self):
        traces = []
        for i in range(8):
            traces.append([
                MemAccess("read", 4 * (i - 1), 4, "a",
                          space="global", site=0),
                MemAccess("write", 4 * i, 4, "b",
                          space="global", site=1),
            ])
        result = analyze(traces)
        assert result.recurrences == []
