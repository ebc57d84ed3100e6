"""What a per-size analysis holds: trace groups sliced from a shared run
are views with lane offsets, trace statistics take memory linear in the
rows, and analyses without recurrences share one function DFG."""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.kernel_info import SharedProfile, _table_key
from repro.analysis.memtrace import analyze_traces
from repro.analysis.packed import PackedGroup, PackedTraces
from repro.devices import VIRTEX7
from repro.evaluation import make_analyzer
from repro.lint.summary import VERDICT_STATIC, summarize_kernel
from repro.workloads import all_workloads

WORKLOADS = {w.qualified_name: w for w in all_workloads()}
COLUMNS = ("site", "kind", "nbytes", "space", "buf", "addr")


class TestSlices:
    def test_lanes_are_offsets_not_a_column(self):
        assert "lane" not in PackedGroup.__slots__
        assert "lane_starts" in PackedGroup.__slots__

    @pytest.mark.parametrize("name", ["rodinia/nn/nn",
                                      "polybench/atax/atax"])
    def test_every_sliced_column_is_a_view_of_the_wide_run(self, name):
        workload = WORKLOADS[name]
        fn = workload.function()
        static = summarize_kernel(fn).verdict == VERDICT_STATIC
        sizes = workload.valid_work_group_sizes()
        shared = SharedProfile(
            lambda: (workload.make_buffers(), workload.scalars), sizes)
        for wg in sizes:
            launch, _ = shared.launch(fn, workload.ndrange(wg), static)
            for group in launch.traces.groups:
                # Every per-row array the group stores is a column view.
                stored = {slot for slot in PackedGroup.__slots__
                          if np.shape(getattr(group, slot, None))
                          == (len(group),)}
                assert len(group) and stored == set(COLUMNS)
                assert any(
                    all(np.shares_memory(getattr(group, col),
                                         getattr(wide, col))
                        for col in COLUMNS)
                    for wide in shared._wide), (wg, group)
                assert group.lane_starts.shape == (wg + 1,)


def _one_site(work_items: int, occurrences: int) -> PackedTraces:
    """One read site, every work-item *occurrences* times: unit stride
    across work-items, one page apart within a work-item."""
    rows = work_items * occurrences
    addr = np.arange(rows, dtype=np.int64)
    addr = (addr // occurrences) * 4 + (addr % occurrences) * 4096
    group = PackedGroup(
        np.zeros(rows, np.int32), np.zeros(rows, np.uint8),
        np.full(rows, 4, np.int32), np.zeros(rows, np.uint8),
        np.zeros(rows, np.int16),
        np.arange(work_items + 1, dtype=np.int64) * occurrences, addr,
        ("a",), work_items)
    return PackedTraces([group], work_items)


def test_trace_statistics_take_memory_linear_in_rows():
    packed = _one_site(1024, 1024)
    rows = packed.n_rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = analyze_traces(packed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stats = result.sites[0]
    assert (stats.wi_stride, stats.inner_stride) == (4, 4096)
    assert stats.per_wi_count == 1024
    assert (peak - before) / rows <= 80


class TestFunctionDFG:
    def test_sizes_without_recurrences_share_one_graph(self):
        workload = WORKLOADS["rodinia/bfs/bfs_1"]
        analyze = make_analyzer(workload, VIRTEX7)
        infos = [analyze(wg) for wg in workload.valid_work_group_sizes()]
        assert len(infos) > 1
        assert all(not info.traces.recurrences for info in infos)
        graph = infos[0].function_dfg
        assert all(info.function_dfg is graph for info in infos)
        assert graph is infos[0].fn._derived[
            ("function_dfg", _table_key(infos[0].table))]
        # The weights differ per size; the graph carries none.
        assert len({tuple(sorted(info.block_weights.items()))
                    for info in infos}) > 1

    def test_recurrences_keep_their_own_edges(self):
        workload = WORKLOADS["rodinia/hybridsort/prefix"]
        analyze = make_analyzer(workload, VIRTEX7)
        graphs = []
        for wg in workload.valid_work_group_sizes():
            info = analyze(wg)
            assert info.traces.recurrences
            graph = info.function_dfg
            site_of = {getattr(node.inst, "site_id", None): node
                       for node in graph.nodes}
            for rec in info.traces.recurrences:
                store = site_of[rec.store_site]
                load = site_of[rec.load_site]
                assert (load.index, rec.distance) in store.succs
            graphs.append(graph)
        assert len({id(g) for g in graphs}) == len(graphs)
        key = ("function_dfg", _table_key(info.table))
        assert info.fn._derived.get(key) not in graphs
