"""Integration tests: warm-start pipeline, batch evaluator, cache CLI."""

import json
import re

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.cli import main
from repro.devices import VIRTEX7
from repro.evaluation import default_suite_workloads, run_suite
from repro.model import FlexCL

SAXPY = """
__kernel void saxpy(__global const float* x, __global float* y,
                    float a, int n) {
    int i = get_global_id(0);
    if (i < n) y[i] = a * x[i] + y[i];
}
"""


@pytest.fixture
def saxpy_file(tmp_path):
    path = tmp_path / "saxpy.cl"
    path.write_text(SAXPY)
    return str(path)


@pytest.fixture
def workloads():
    return default_suite_workloads("rodinia", limit=3)


def _fresh_memos():
    import repro.model.memory as model_memory
    model_memory._PATTERN_CACHE.clear()


class TestFlexCLPersistence:
    def test_submodels_reused_across_model_instances(self, tmp_path):
        from repro.analysis import analyze_kernel
        from repro.dse.space import Design
        from repro.frontend import compile_opencl
        from repro.interp import Buffer, NDRange

        cache = ArtifactCache(tmp_path)
        rng = np.random.default_rng(0)
        fn = compile_opencl(SAXPY).get("saxpy")
        buffers = {"x": Buffer("x", rng.random(256).astype(np.float32)),
                   "y": Buffer("y", rng.random(256).astype(np.float32))}
        info = analyze_kernel(fn, buffers, {"a": 2.0, "n": 256},
                              NDRange(256, 64), VIRTEX7, cache=cache)
        design = Design(work_group_size=64, num_pe=2)
        cold = FlexCL(VIRTEX7, cache=cache).predict(info, design)
        baseline = cache.stats.copy()
        # A brand-new model instance (fresh in-memory memo) must pull
        # its PE schedule and memory result from the disk store.
        warm = FlexCL(VIRTEX7, cache=cache).predict(info, design)
        delta = cache.stats - baseline
        assert warm.cycles == cold.cycles
        assert delta.hits.get("pe", 0) >= 1
        assert delta.hits.get("memory", 0) >= 1
        assert not any(delta.misses.values())


class TestRunSuite:
    def test_cold_then_warm_identical_and_hot(self, tmp_path, workloads):
        root = tmp_path / "store"
        _fresh_memos()
        cold = run_suite(workloads, VIRTEX7,
                         cache=ArtifactCache(root), designs_per_kernel=3)
        _fresh_memos()
        warm = run_suite(workloads, VIRTEX7,
                         cache=ArtifactCache(root), designs_per_kernel=3)
        assert cold.rows() == warm.rows()
        assert len(warm.rows()) == len(workloads) * 3
        assert warm.store_stats.hit_rate > 0.9
        assert warm.store_stats.misses == {}

    def test_uncached_matches_cached(self, tmp_path, workloads):
        _fresh_memos()
        plain = run_suite(workloads, VIRTEX7, cache=None,
                          designs_per_kernel=3)
        assert plain.store_stats is None
        _fresh_memos()
        cached = run_suite(workloads, VIRTEX7,
                           cache=ArtifactCache(tmp_path),
                           designs_per_kernel=3)
        assert plain.rows() == cached.rows()

    def test_parallel_matches_serial(self, tmp_path, capsys):
        """``suite --jobs 2`` runs one ``suite-shard`` pool task per
        workload: the same rows as serial, and the workers' store
        counters reach the parent's store line."""
        argv = ["suite", "--suite", "rodinia", "--limit", "3",
                "--designs", "3"]
        runs = {}
        for name, extra in (("serial", []), ("parallel", ["--jobs", "2"])):
            _fresh_memos()
            assert main(argv + ["--json", "--no-cache"] + extra) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            _fresh_memos()
            assert main(argv + ["--cache-dir", str(tmp_path / name)]
                        + extra) == 0
            store = re.search(r"analysis 0/\d+",
                              capsys.readouterr().out).group()
            runs[name] = rows, store
        assert runs["parallel"] == runs["serial"]
        assert len(runs["serial"][0]) == 9

    def test_by_workload_grouping(self, workloads):
        _fresh_memos()
        result = run_suite(workloads, VIRTEX7,
                           designs_per_kernel=2)
        grouped = result.by_workload()
        assert len(grouped) == len(workloads)
        assert all(len(v) == 2 for v in grouped.values())

    def test_default_catalog_spans_both_suites(self):
        names = {w.suite for w in default_suite_workloads()}
        assert names == {"rodinia", "polybench"}
        assert len(default_suite_workloads(limit=4)) == 4


class TestCLICache:
    def test_predict_twice_hits(self, saxpy_file, tmp_path, capsys):
        argv = ["predict", saxpy_file, "--global-size", "256",
                "--wg", "64", "--pe", "2",
                "--cache-dir", str(tmp_path / "c")]
        _fresh_memos()
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        _fresh_memos()
        assert main(argv) == 0
        warm_out = capsys.readouterr().out

        def cycles_line(out):
            return [ln for ln in out.splitlines() if "cycles" in ln]
        assert cycles_line(cold_out) == cycles_line(warm_out)
        assert "disk cache:" in warm_out
        assert "(100%)" in warm_out

    def test_no_cache_flag(self, saxpy_file, tmp_path, capsys):
        rc = main(["predict", saxpy_file, "--global-size", "256",
                   "--wg", "64", "--no-cache"])
        assert rc == 0
        assert "cache:" not in capsys.readouterr().out

    def test_cache_path_stats_clear(self, saxpy_file, tmp_path, capsys):
        cdir = str(tmp_path / "c")
        assert main(["cache", "path", "--cache-dir", cdir]) == 0
        assert cdir in capsys.readouterr().out

        main(["predict", saxpy_file, "--global-size", "256",
              "--wg", "64", "--cache-dir", cdir])
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cdir]) == 0
        out = capsys.readouterr().out
        assert "analysis" in out and "entries" in out

        assert main(["cache", "clear", "--cache-dir", cdir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cdir]) == 0
        assert "entries   : 0" in capsys.readouterr().out

    def test_cache_disabled_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert main(["cache", "stats"]) == 1
        assert "disabled" in capsys.readouterr().out

    def test_explore_reports_store_stats(self, saxpy_file, tmp_path,
                                         capsys):
        argv = ["explore", saxpy_file, "--global-size", "256",
                "--top", "2", "--cache-dir", str(tmp_path / "c")]
        _fresh_memos()
        assert main(argv) == 0
        capsys.readouterr()
        _fresh_memos()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "disk cache:" in out
        assert "(100%)" in out

    def test_suite_command(self, tmp_path, capsys):
        argv = ["suite", "--suite", "rodinia", "--limit", "2",
                "--jobs", "1", "--designs", "2",
                "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "workloads" in out
        assert "disk cache:" in out
