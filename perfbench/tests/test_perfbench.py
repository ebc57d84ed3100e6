"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import plans  # noqa: E402
import spans  # noqa: E402
from golden import Golden  # noqa: E402
from quantiles import (  # noqa: E402
    TAIL_LADDER,
    median_and_tail,
    percentile,
    samples_beyond,
    tail_percentile,
)


@pytest.fixture(scope="module")
def golden():
    return Golden.load()


# -- golden checker ----------------------------------------------------

def test_golden_accepts_exact_cycles(golden):
    kernel = golden.names()[0]
    signature, cycles = next(iter(golden.feasible(kernel).items()))
    assert golden.check(kernel, signature, cycles) is None


def test_golden_flags_perturbed_cycles(golden):
    kernel = golden.names()[-1]
    signature, cycles = next(iter(golden.feasible(kernel).items()))
    for wrong in (cycles + 1.0, cycles * (1 + 1e-12), cycles - 1e-9):
        reason = golden.check(kernel, signature, wrong)
        assert reason is not None and kernel in reason


def test_golden_flags_unknown_points(golden):
    kernel = golden.names()[0]
    assert golden.check("rodinia/none/none", "wg16", 1.0) is not None
    assert golden.check(kernel, "wg3-not-a-design", 1.0) is not None


def test_perturbed_cycles_count_as_failed_operations(golden):
    from runners import Phase

    kernel = golden.names()[0]
    points = list(golden.feasible(kernel).items())[:3]
    phase = Phase()
    for signature, cycles in points:
        phase.check(golden, kernel, signature, cycles)
    signature, cycles = points[0]
    phase.check(golden, kernel, signature, cycles * 1.01)
    assert (phase.attempted, phase.failed) == (4, 1)
    assert kernel in phase.reasons[0]


def test_error_pct_counts_each_reference_point_once(golden):
    kernel = golden.names()[0]
    signature, actual = next(iter(golden.reference(kernel).items()))
    other = golden.names()[1]
    sig2, actual2 = next(iter(golden.reference(other).items()))
    once = [(kernel, signature, actual * 1.1), (other, sig2, actual2)]
    assert golden.error_pct(once) == pytest.approx(5.0)
    assert golden.error_pct(once + once[:1] * 5) == pytest.approx(5.0)


# -- span self-time arithmetic -------------------------------------------

def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] > middle [1, 6] > inner [2, 5]; outer > leaf [7, 8]
    recorder = spans.SpanRecorder(clock=_clock([0, 1, 2, 5, 6, 7, 8, 10]))

    def outer():
        recorder.call("middle", recorder.call, ("inner", lambda: None,
                                                (), {}), {})
        recorder.call("leaf", lambda: None, (), {})

    recorder.call("outer", outer, (), {})
    records = recorder.records()
    times = spans.layer_times(records)
    assert times["outer"]["total_s"] == 10
    assert times["outer"]["self_s"] == 10 - 5 - 1
    assert times["middle"]["self_s"] == 5 - 3
    assert times["inner"]["self_s"] == 3
    assert times["leaf"]["self_s"] == 1
    assert sum(t["self_s"] for t in times.values()) == 10
    assert spans.covered_seconds(records) == 10
    parents = {s[0]: s[3] for s in records}
    assert parents == {"outer": -1, "middle": 0, "inner": 1, "leaf": 0}


def test_self_time_sums_repeated_calls_and_counts_them():
    records = [("a", 0.0, 4.0, -1, "k"), ("b", 1.0, 2.0, 0, "k"),
               ("b", 2.5, 3.0, 0, "k"), ("a", 5.0, 6.0, -1, "j")]
    times = spans.layer_times(records)
    assert times["a"] == {"calls": 2, "total_s": 5.0, "self_s": 3.5}
    assert times["b"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}


def test_covered_seconds_merges_overlapping_top_level_spans():
    records = [("r", 0.0, 2.0, -1, None), ("r", 1.0, 3.0, -1, None),
               ("r", 5.0, 6.0, -1, None), ("c", 0.5, 0.7, 0, None)]
    assert spans.covered_seconds(records) == 4.0


def test_install_wraps_and_restores_bindings(tmp_path):
    recorder = spans.SpanRecorder()
    original = json.dumps
    uninstall = spans.install(recorder, [("json", "dumps", "json.dumps")])
    try:
        recorder.set_kernel("k1")
        assert json.dumps([1]) == "[1]"
        recorder.call("other", len, ([],), {}, kernel="k2")
    finally:
        uninstall()
    assert json.dumps is original
    assert [(s[0], s[3], s[4]) for s in recorder.records()] == [
        ("json.dumps", -1, "k1"), ("other", -1, "k2")]
    recorder.dump(tmp_path / "spans.json.gz")
    assert (tmp_path / "spans.json.gz").stat().st_size > 0


# -- seeded generators ---------------------------------------------------

def test_one_seed_always_yields_identical_inputs(golden):
    assert plans.catalog_plan(7, golden) == plans.catalog_plan(7, golden)
    assert plans.dse_order(7, golden) == plans.dse_order(7, golden)
    assert plans.serve_plan(7, golden) == plans.serve_plan(7, golden)
    assert plans.catalog_plan(7, golden) != plans.catalog_plan(8, golden)
    assert plans.dse_order(7, golden) != plans.dse_order(8, golden)
    assert plans.serve_plan(7, golden) != plans.serve_plan(8, golden)


def test_catalog_plan_covers_every_kernel_and_reference_point(golden):
    plan = plans.catalog_plan(3, golden)
    assert sorted(name for name, _ in plan) == golden.names()
    for name, signatures in plan:
        feasible = golden.feasible(name)
        assert len(signatures) == len(set(signatures)) == min(
            plans.DESIGNS_PER_KERNEL, len(feasible))
        assert set(golden.reference(name)) <= set(signatures)
        assert set(signatures) <= set(feasible)


def test_serve_plan_repeats_and_coverage(golden):
    requests, sequence = plans.serve_plan(3, golden)
    assert len(set(requests)) == len(requests)
    assert {name for name, _ in requests} == set(golden.names())
    assert len(sequence) == plans.SERVE_REPEAT_FACTOR * len(requests)
    assert sequence[0] == 0
    seen, repeats = set(), 0
    for index in sequence:
        assert index <= len(seen)      # never ahead of introductions
        repeats += index in seen
        seen.add(index)
    assert seen == set(range(len(requests)))
    assert repeats / len(sequence) == pytest.approx(0.8)


# -- tail percentile rule ------------------------------------------------

def _check_tail(n, expected):
    p = tail_percentile(n)
    assert p == expected
    assert samples_beyond(p, n) >= 10
    higher = TAIL_LADDER[TAIL_LADDER.index(p) + 1:]
    assert all(samples_beyond(q, n) < 10 for q in higher)


def test_tail_for_the_67_kernels():
    _check_tail(67, "85")
    assert samples_beyond("85", 67) == 10


def test_tail_for_the_serve_sequence(golden):
    requests, sequence = plans.serve_plan(1, golden)
    assert len(sequence) == 2185
    _check_tail(len(sequence), "99")


def test_tail_for_other_sample_counts():
    _check_tail(536, "95")
    _check_tail(35183, "99.9")
    _check_tail(20, "50")
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_nearest_rank_percentiles():
    values = list(range(1, 68))          # 1..67
    assert percentile(values, "50") == 34
    assert percentile(values, "85") == 57
    p50, tail, p = median_and_tail(values[::-1])
    assert (p50, tail, p) == (34, 57, "85")
