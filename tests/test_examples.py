"""Smoke tests: the fast example scripts must run end to end."""

import runpy
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    path = EXAMPLES / name
    assert path.exists(), path
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "predicted" in out
        assert "estimation error" in out

    def test_gpu_vs_fpga(self, capsys):
        out = run_example("gpu_vs_fpga.py", capsys)
        assert "FPGA/GPU speedup" in out
        # the recurrence-bound scan is the kernel the FPGA wins
        assert "-> FPGA favourable" in out

    def test_design_space_exploration(self, capsys):
        out = run_example("design_space_exploration.py", capsys)
        assert "top-5 designs by predicted cycles" in out
        assert "FlexCL exhaustive pick" in out

    def test_bottleneck_analysis(self, capsys):
        out = run_example("bottleneck_analysis.py", capsys)
        assert "recurrence" in out
        assert "hint" in out

    def test_stencil_timesteps(self, capsys):
        out = run_example("stencil_timesteps.py", capsys)
        assert "functional: 8 steps OK" in out
        assert "per-invocation best designs (600 feasible)" in out
        assert "launch overhead share at the optimum" in out

    def test_rodinia_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["rodinia_sweep.py"])
        out = run_example("rodinia_sweep.py", capsys)
        assert "rodinia/srad/extract" in out
        assert "mean FlexCL error" in out

    def test_examples_are_documented(self):
        for script in EXAMPLES.glob("*.py"):
            text = script.read_text()
            assert text.lstrip().startswith('"""'), \
                f"{script.name} is missing a module docstring"
            assert "Run:" in text, \
                f"{script.name} docstring lacks a Run: line"
