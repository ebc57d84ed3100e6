"""The work-count gate: ``benchmarks/check_work_counts.py`` compares a
seeded, traced perfbench run's call counts with a committed golden."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_work_counts", REPO / "benchmarks" / "check_work_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_output(metrics):
    return "catalog: traced phase\n" + json.dumps({
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {k: {"value": v, "unit": "count"}
                    for k, v in metrics.items()}}) + "\n"


def test_golden_records_its_provenance():
    golden = json.loads(
        (REPO / "docs" / "work_counts_golden.json").read_text())
    assert golden["seed"] == 1
    assert "--seed 1 --trace 1" in golden["command"]
    assert golden["commit"]
    counts = golden["counts"]
    # One engine run per eligible kernel (60) plus one per work-group
    # size of the 7 kernels profiled at each size alone (29).
    assert counts["catalog/interp.synth_calls"] == 73
    assert counts["catalog/interp.vexec_calls"] == 16
    assert counts["dse-sweep/model.memo_lookups"] == 281464
    assert all(isinstance(v, int) for v in counts.values())


def test_only_call_and_lookup_counters_are_gated():
    checker = _checker()
    counts = checker.run_counts(_run_output({
        "catalog/model.pe_calls": 397, "catalog/analysis.calls": 1212,
        "catalog/model.memo_lookups": 4288,
        "catalog/cache.evictions": 0, "catalog/model.pe_ms": 5.0}))
    assert counts == {"catalog/analysis.calls": 1212,
                      "catalog/model.memo_lookups": 4288,
                      "catalog/model.pe_calls": 397}


def test_a_changed_or_missing_count_fails(tmp_path):
    checker = _checker()
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"counts": {
        "catalog/model.pe_calls": 397, "catalog/cache.put_calls": 1060}}))
    same = tmp_path / "same.out"
    same.write_text(_run_output({"catalog/model.pe_calls": 397,
                                 "catalog/cache.put_calls": 1060}))
    assert checker.main([str(same), "--golden", str(golden)]) == 0
    moved = tmp_path / "moved.out"
    moved.write_text(_run_output({"catalog/model.pe_calls": 398}))
    assert checker.compare(
        json.loads(golden.read_text())["counts"],
        checker.run_counts(moved.read_text())) == [
        "catalog/cache.put_calls: golden 1060, run None",
        "catalog/model.pe_calls: golden 397, run 398"]
    assert checker.main([str(moved), "--golden", str(golden)]) == 1
