"""Trace statistics against their dense reference.

:func:`repro.analysis.memtrace.analyze_traces` must give what the dense
(work-item x occurrence) form in ``tests/memtrace_reference.py`` gives:
every site statistic, every recurrence and the four per-work-item
counts, on random packed traces and on the bundled kernels whose traces
are the largest or carry recurrences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.kernel_info as kernel_info
from repro.analysis.memtrace import analyze_traces
from repro.analysis.packed import pack_traces
from repro.devices import VIRTEX7
from repro.dse import DesignSpace
from repro.evaluation import make_analyzer
from repro.interp.executor import MemAccess
from repro.workloads import all_workloads

from memtrace_reference import analyze_traces as dense_analyze_traces

COUNTS = ("global_reads_per_wi", "global_writes_per_wi",
          "local_reads_per_wi", "local_writes_per_wi")


def assert_same_analysis(got, want):
    assert list(got.sites) == list(want.sites)
    for site, stats in want.sites.items():
        assert got.sites[site] == stats, site
    assert got.recurrences == want.recurrences
    for name in COUNTS:
        assert getattr(got, name) == getattr(want, name), name


@st.composite
def packed_traces(draw):
    """Several work-groups of per-lane traces.  Each site has a fixed
    kind, space, buffer and width; its addresses follow a work-item and
    an occurrence stride, or come from a few values so that one
    work-item reads what another wrote."""
    wg = draw(st.integers(1, 6))
    n_groups = draw(st.integers(1, 3))
    sites = []
    for site in range(draw(st.integers(1, 4))):
        local = draw(st.booleans())
        sites.append((
            site,
            draw(st.sampled_from(["read", "write"])),
            "local" if local else "global",
            "__local" if local else draw(st.sampled_from(["a", "b"])),
            draw(st.sampled_from([1, 4, 8])),
            draw(st.sampled_from(["affine", "affine", "repeat"])),
            draw(st.sampled_from([0, 4, 8, -4, 64])),      # wi stride
            draw(st.sampled_from([0, 4, 16, 4096])),       # inner stride
        ))
    traces = []
    for wi in range(n_groups * wg):
        trace = []
        seen = {}
        for _ in range(draw(st.integers(0, 5))):
            site, kind, space, buf, nb, mode, s_wi, s_in = \
                draw(st.sampled_from(sites))
            k = seen[site] = seen.get(site, -1) + 1
            if mode == "affine":
                addr = 1024 + wi * s_wi + k * s_in
            else:
                addr = 4 * draw(st.integers(0, 3))
            trace.append(MemAccess(kind, addr, nb, buf, space=space,
                                   site=site))
        traces.append(trace)
    return pack_traces(traces, wg)


@settings(max_examples=300, deadline=None)
@given(packed_traces())
def test_random_traces_match_the_dense_form(packed):
    assert_same_analysis(analyze_traces(packed),
                         dense_analyze_traces(packed))


WORKLOADS = {w.qualified_name: w for w in all_workloads()}


@pytest.mark.parametrize("name", [
    "rodinia/particlefilter/find_index",
    "polybench/correlation/correlation",
    "rodinia/hybridsort/prefix",
    "rodinia/lud/diagonal",
])
def test_kernels_match_the_dense_form(name, monkeypatch):
    workload = WORKLOADS[name]
    seen = []

    def checked(packed):
        got = analyze_traces(packed)
        assert_same_analysis(got, dense_analyze_traces(packed))
        seen.append(packed.wg_size)
        return got

    monkeypatch.setattr(kernel_info, "analyze_traces", checked)
    analyze = make_analyzer(workload, VIRTEX7)
    sizes = DesignSpace.default_for(workload.global_size).work_group_sizes
    for wg in sizes:
        analyze(wg)
    assert sorted(seen) == sorted(sizes)
