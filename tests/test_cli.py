"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def saxpy_file(tmp_path):
    path = tmp_path / "saxpy.cl"
    path.write_text("""
    __kernel void saxpy(__global const float* x, __global float* y,
                        float a, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = a * x[i] + y[i];
    }
    """)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_predict_args(self):
        args = build_parser().parse_args(
            ["predict", "k.cl", "--global-size", "1024", "--pe", "4"])
        assert args.global_size == 1024
        assert args.pe == 4
        assert args.device == "virtex7"

    def test_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["predict", "k.cl", "--global-size", "64",
                 "--device", "stratix"])


class TestPredict:
    def test_predict_runs(self, saxpy_file, capsys):
        rc = main(["predict", saxpy_file, "--global-size", "512",
                   "--wg", "64", "--pe", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "bottleneck" in out
        assert "area" in out

    def test_predict_infeasible_design(self, saxpy_file, capsys):
        rc = main(["predict", saxpy_file, "--global-size", "512",
                   "--wg", "64", "--no-pipeline",
                   "--mode", "pipeline"])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().out

    def test_predict_with_simulation(self, saxpy_file, capsys):
        rc = main(["predict", saxpy_file, "--global-size", "256",
                   "--wg", "64", "--simulate"])
        assert rc == 0
        assert "simulated" in capsys.readouterr().out

    def test_scalar_override(self, saxpy_file, capsys):
        rc = main(["predict", saxpy_file, "--global-size", "256",
                   "--wg", "64", "--arg", "a=3.5", "--arg", "n=256"])
        assert rc == 0


class TestOtherCommands:
    def test_workloads_listing(self, capsys):
        rc = main(["workloads", "--suite", "rodinia"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rodinia (45 kernels)" in out
        assert "hotspot/hotspot" in out

    def test_patterns(self, capsys):
        rc = main(["patterns"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "read(hit) after read" in out

    def test_explore(self, saxpy_file, capsys):
        rc = main(["explore", saxpy_file, "--global-size", "256",
                   "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top 3" in out
        assert "feasible" in out


class TestHostileInput:
    """Bad command lines end in one ``error:`` line and exit code 2 —
    never a traceback."""

    CASES = {
        "arg-without-value": ["--global-size", "64", "--arg", "n"],
        "arg-not-a-number": ["--global-size", "64", "--arg", "n=abc"],
        "missing-file": ["--global-size", "64"],
        "unknown-kernel": ["--global-size", "64", "--kernel", "nope"],
        "missing-global-size": [],
        "global-size-huge": ["--global-size", str(1 << 21)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["predict", "explore"])
    def test_clean_usage_error(self, command, case, saxpy_file,
                               tmp_path, capsys):
        source = (str(tmp_path / "missing.cl") if case == "missing-file"
                  else saxpy_file)
        rc = main([command, source, "--no-cache"] + self.CASES[case])
        out, err = capsys.readouterr()
        assert rc == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in out + err

    def test_huge_wg_is_a_usage_error(self, saxpy_file, capsys):
        rc = main(["predict", saxpy_file, "--no-cache", "--global-size",
                   "64", "--wg", str(1 << 21)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.strip().splitlines() == [
            "error: --wg must be at most 1048576"]

    SPEC_CASES = {
        "graph-wg-does-not-divide": ["predict-graph", "srad", "--wg", "3"],
        "suite-zero-designs": ["suite", "--designs", "0"],
    }

    @pytest.mark.parametrize("case", sorted(SPEC_CASES))
    def test_text_and_json_reject_alike(self, case, capsys):
        """The text path validates through the same spec normalizer as
        ``--json``: one identical ``error:`` line, exit 2, either way."""
        errors = []
        for extra in ([], ["--json"]):
            rc = main(self.SPEC_CASES[case] + ["--no-cache"] + extra)
            out, err = capsys.readouterr()
            assert rc == 2
            assert out == ""
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            errors.append(lines[0])
        assert errors[0] == errors[1]


class TestJobsThroughApi:
    """``explore --jobs N`` and ``suite --jobs N`` submit the daemon's
    shard tasks to the one worker pool, with output byte-equal to
    serial; without ``--jobs`` (or with 1) nothing enters the pool."""

    def _json(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.fixture
    def submitted(self, monkeypatch):
        from repro.serve.pool import WorkerPool
        ops = []
        submit = WorkerPool.submit

        def spy(pool, task):
            ops.append((pool.mode, task["op"]))
            return submit(pool, task)

        monkeypatch.setattr(WorkerPool, "submit", spy)
        return ops

    def test_explore_json_fans_out(self, saxpy_file, capsys, submitted):
        argv = ["explore", saxpy_file, "--global-size", "256",
                "--json", "--no-cache"]
        serial = self._json(capsys, argv)
        assert self._json(capsys, argv + ["--jobs", "1"]) == serial
        assert submitted == []
        fanned = self._json(capsys, argv + ["--jobs", "2"])
        # one task per work-group size: 16, 32, 64, 128 and 256
        assert submitted == [("process", "explore-shard")] * 5
        assert fanned == serial

    def test_suite_json_fans_out(self, capsys, submitted):
        argv = ["suite", "--suite", "polybench", "--limit", "2",
                "--designs", "2", "--json", "--no-cache"]
        serial = self._json(capsys, argv)
        assert self._json(capsys, argv + ["--jobs", "1"]) == serial
        assert submitted == []
        fanned = self._json(capsys, argv + ["--jobs", "2"])
        assert submitted == [("process", "suite-shard")] * 2
        assert fanned == serial


class TestJobsArg:
    """``--jobs`` takes a positive worker count or ``auto``."""

    def test_bad_worker_counts_exit_2(self, capsys):
        for command in (["explore", "--workload", "polybench/atax/atax"],
                        ["suite"]):
            for value in ("0", "-3", "x"):
                with pytest.raises(SystemExit) as exc:
                    main(command + ["--jobs", value, "--no-cache"])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                errors = [line for line in err.splitlines()
                          if "error:" in line]
                assert len(errors) == 1
                assert errors[0].startswith(
                    f"repro {command[0]}: error: argument --jobs")
                assert "Traceback" not in err

    def test_auto_is_accepted(self, capsys, monkeypatch):
        """``auto`` means one worker per core, capped at the number of
        shards."""
        from repro.serve.pool import WorkerPool
        sizes = []
        submit = WorkerPool.submit

        def spy(pool, task):
            sizes.append(pool.jobs)
            return submit(pool, task)

        monkeypatch.setattr(WorkerPool, "submit", spy)
        argv = ["suite", "--suite", "polybench", "--limit", "2",
                "--designs", "1", "--json", "--no-cache"]
        assert main(argv + ["--jobs", "auto"]) == 0
        auto = capsys.readouterr().out
        assert main(argv) == 0
        assert auto == capsys.readouterr().out
        assert all(size <= 2 for size in sizes)


@pytest.fixture
def hazard_file(tmp_path):
    path = tmp_path / "hazard.cl"
    path.write_text("""
    __kernel void k(__global float *a, __global float *b, int n) {
        int gid = get_global_id(0);
        float tmp = a[gid] * 2.0f;
        b[gid] = a[gid * 8];
    }
    """)
    return str(path)


class TestLint:
    def test_text_output(self, hazard_file, capsys):
        rc = main(["lint", hazard_file])
        assert rc == 0   # warnings/notes do not fail the build
        out = capsys.readouterr().out
        assert "[global-stride]" in out
        assert "[dead-store]" in out
        assert "[unused-arg]" in out
        assert "hazard.cl:" in out
        assert "diagnostic(s)" in out

    def test_json_schema_round_trips(self, hazard_file, capsys):
        import json
        rc = main(["lint", hazard_file, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == hazard_file
        diags = payload["diagnostics"]
        assert diags
        for d in diags:
            assert set(d) >= {"check", "severity", "message",
                              "function", "line", "col"}
            assert isinstance(d["line"], int)
            assert d["severity"] in ("note", "warning", "error")
        checks = {d["check"] for d in diags}
        assert "global-stride" in checks

    def test_error_severity_sets_exit_code(self, tmp_path, capsys):
        path = tmp_path / "oob.cl"
        path.write_text("""
        __kernel void k(__global float *a) {
            __private float buf[4];
            buf[9] = 1.0f;
            a[get_global_id(0)] = buf[0];
        }
        """)
        rc = main(["lint", str(path)])
        assert rc == 1
        assert "[array-bounds]" in capsys.readouterr().out

    def test_check_filter(self, hazard_file, capsys):
        rc = main(["lint", hazard_file, "--check", "dead-store"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[dead-store]" in out
        assert "[global-stride]" not in out

    def test_unknown_check_is_usage_error(self, hazard_file, capsys):
        rc = main(["lint", hazard_file, "--check", "nope"])
        assert rc == 2
        assert "unknown lint check" in capsys.readouterr().err

    def test_syntax_error_reported_as_frontend(self, tmp_path, capsys):
        path = tmp_path / "broken.cl"
        path.write_text("__kernel void k( {")
        rc = main(["lint", str(path)])
        assert rc == 1
        assert "[frontend]" in capsys.readouterr().out

    def test_predict_prints_diagnostics(self, tmp_path, capsys):
        # In-bounds kernel (predict executes it) that still lints dirty.
        path = tmp_path / "deadtmp.cl"
        path.write_text("""
        __kernel void k(__global float *a, __global float *b, int n) {
            int gid = get_global_id(0);
            float tmp = a[gid] * 2.0f;
            b[gid] = a[gid];
        }
        """)
        rc = main(["predict", str(path), "--global-size", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "diagnostics:" in out
        assert "[dead-store]" in out
        # predictions still come out above the lint findings
        assert out.index("cycles") < out.index("diagnostics:")


class TestLintJsonContract:
    """docs/LINT.md contract: --json output is valid JSON for every
    exit path; exit 2 is reserved for tool errors."""

    def test_missing_file_json_is_valid(self, capsys):
        import json
        rc = main(["lint", "/nonexistent/kernel.cl", "--json"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]
        assert payload["diagnostics"] == []

    def test_unknown_check_json_is_valid(self, saxpy_file, capsys):
        import json
        rc = main(["lint", saxpy_file, "--json", "--check", "nope"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert "nope" in payload["error"]
        assert payload["diagnostics"] == []

    def test_missing_file_text_goes_to_stderr(self, capsys):
        rc = main(["lint", "/nonexistent/kernel.cl"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read" in captured.err

    def test_clean_file_exits_zero(self, saxpy_file, capsys):
        rc = main(["lint", saxpy_file, "--json"])
        assert rc == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert "error" not in payload


class TestLintSummaries:
    def test_text_summaries(self, saxpy_file, capsys):
        rc = main(["lint", saxpy_file, "--summaries"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "summary saxpy: static" in out
        assert "wi-stride 4B" in out

    def test_json_summaries(self, saxpy_file, capsys):
        import json
        rc = main(["lint", saxpy_file, "--json", "--summaries"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        (summary,) = payload["summaries"]
        assert summary["verdict"] == "static"
        assert summary["accesses"]

    def test_irregular_reasons_shown(self, tmp_path, capsys):
        path = tmp_path / "gather.cl"
        path.write_text("""
        __kernel void gather(__global int *idx, __global float *a,
                             __global float *out) {
            out[get_global_id(0)] = a[idx[get_global_id(0)]];
        }""")
        rc = main(["lint", str(path), "--summaries"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "summary gather: irregular" in out
        assert "data-dependent-address" in out


class TestCoverageCommand:
    def test_report_lists_catalog(self, capsys):
        rc = main(["coverage"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernels static" in out
        assert "rodinia/bfs/bfs_1" in out

    def test_check_against_golden_passes(self, capsys):
        rc = main(["coverage", "--check"])
        assert rc == 0
        assert "coverage check passed" in capsys.readouterr().out

    def test_json_report(self, capsys):
        import json
        rc = main(["coverage", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["static"] >= 40
        assert payload["total"] == len(payload["kernels"])


class TestStaticTraceFlag:
    def test_predict_reports_synthesized_traces(self, saxpy_file,
                                                capsys):
        rc = main(["predict", saxpy_file, "--global-size", "256"])
        assert rc == 0
        assert "traces   : synthesized (summary: static)" \
            in capsys.readouterr().out

    GATHER = """
    __kernel void gather(__global int *idx, __global float *out) {
        out[get_global_id(0)] = idx[idx[get_global_id(0)]];
    }"""

    def test_predict_never_interprets(self, tmp_path, capsys):
        """An irregular kernel is never synthesized: the chain hands it
        to the vectorized interpreter."""
        path = tmp_path / "gather.cl"
        path.write_text(self.GATHER)
        rc = main(["predict", str(path), "--global-size", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "synthesized" not in out
        assert "traces   : vectorized (summary: irregular)" in out

    def test_predict_always_fails_on_irregular(self, tmp_path, capsys):
        """The kernel picks its trace engine: the retired engine flags
        are unrecognized arguments on every subcommand."""
        path = tmp_path / "gather.cl"
        path.write_text(self.GATHER)
        kernel = [str(path), "--global-size", "64"]
        for command in (["predict"] + kernel, ["explore"] + kernel,
                        ["suite"]):
            for flag in (["--static-trace", "always"],
                         ["--interp", "scalar"]):
                with pytest.raises(SystemExit) as exc:
                    main(command + flag)
                assert exc.value.code == 2
                assert "unrecognized arguments" \
                    in capsys.readouterr().err

    def test_retired_tier_flag_is_a_usage_error(self):
        """The exact model is the only answer path: ``--tier`` is an
        unrecognized argument, exit 2 with no traceback."""
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "predict", "--workload",
             "polybench/atax/atax", "--tier", "instant"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "unrecognized arguments: --tier" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_module_invocation(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("repro ")


class TestMultiKernelAmbiguity:
    @pytest.fixture
    def two_kernel_file(self, tmp_path):
        path = tmp_path / "two.cl"
        path.write_text("""
        __kernel void first(__global float* x) {
            x[get_global_id(0)] = 1.0f;
        }
        __kernel void second(__global float* x) {
            x[get_global_id(0)] = 2.0f;
        }
        """)
        return str(path)

    def test_predict_requires_kernel_choice(self, two_kernel_file,
                                            capsys):
        rc = main(["predict", two_kernel_file, "--global-size", "64"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2 kernels" in err
        assert "first" in err and "second" in err
        assert "--kernel" in err

    def test_explicit_kernel_still_works(self, two_kernel_file,
                                         capsys):
        rc = main(["predict", two_kernel_file, "--global-size", "64",
                   "--kernel", "second"])
        assert rc == 0
        assert "kernel   : second" in capsys.readouterr().out


class TestPredictGraph:
    def test_list_programs(self, capsys):
        rc = main(["predict-graph", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rodinia/hybridsort" in out
        assert "streams/scale" in out
        assert "[pipes]" in out

    def test_unknown_program_is_usage_error(self, capsys):
        rc = main(["predict-graph", "nosuch"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no program" in err

    def test_pipe_program_end_to_end(self, capsys):
        rc = main(["predict-graph", "scale", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dram realization" in out
        assert "pipe realization" in out
        assert "bottleneck stage" in out

    def test_single_realization_and_depth(self, capsys):
        rc = main(["predict-graph", "scale", "--realization", "pipe",
                   "--depth", "4", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dram realization" not in out
        assert "depth    4" in out
