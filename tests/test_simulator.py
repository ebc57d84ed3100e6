"""Unit tests for the System Run simulator."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.devices import KU060, VIRTEX7
from repro.dse import Design
from repro.frontend import compile_opencl
from repro.interp import Buffer, NDRange
from repro.simulator import SystemRun, synthesize
from repro.simulator.system import _Jitter


def make_info(n=512, wg=64):
    src = r"""
    __kernel void k(__global const float* a, __global float* b, int n) {
        int i = get_global_id(0);
        if (i < n) b[i] = a[i] * 2.0f + 1.0f;
    }
    """
    fn = compile_opencl(src).get("k")
    return analyze_kernel(
        fn,
        {"a": Buffer("a", np.arange(n, dtype=np.float32)),
         "b": Buffer("b", np.zeros(n, np.float32))},
        {"n": n}, NDRange(n, wg), VIRTEX7)


class TestSynthesis:
    def test_outputs_sane(self):
        info = make_info()
        hw = synthesize(info, Design(64, True, 2, 1, 1, "pipeline"),
                        VIRTEX7)
        assert hw.ii >= 1.0
        assert hw.depth >= hw.ii
        assert 1 <= hw.n_pe_eff <= 2
        assert hw.phases == 1          # no barriers in this kernel

    def test_unpipelined_ii_is_depth(self):
        info = make_info()
        hw = synthesize(info, Design(64, False, 1, 1, 1, "barrier"),
                        VIRTEX7)
        assert hw.ii == hw.depth

    def test_deterministic(self):
        info = make_info()
        d = Design(64, True, 2, 2, 1, "pipeline")
        a = synthesize(info, d, VIRTEX7)
        b = synthesize(info, d, VIRTEX7)
        assert (a.ii, a.depth, a.n_pe_eff) == (b.ii, b.depth, b.n_pe_eff)

    def test_varies_across_designs(self):
        """Different designs may get different concrete IP cores."""
        info = make_info()
        depths = {
            synthesize(info, Design(64, True, p, c, 1, "pipeline"),
                       VIRTEX7).depth
            for p in (1, 2, 4) for c in (1, 2, 4)
        }
        assert len(depths) > 1


class TestSystemRun:
    def test_run_is_deterministic(self):
        info = make_info()
        sim = SystemRun(VIRTEX7)
        d = Design(64, True, 1, 1, 1, "pipeline")
        assert sim.run(info, d).cycles == sim.run(info, d).cycles

    def test_groups_counted(self):
        info = make_info(n=512, wg=64)
        rep = SystemRun(VIRTEX7).run(
            info, Design(64, True, 1, 1, 1, "pipeline"))
        assert rep.groups == 8

    def test_pipelining_speeds_up(self):
        info = make_info()
        sim = SystemRun(VIRTEX7)
        piped = sim.run(info, Design(64, True, 1, 1, 1, "barrier"))
        serial = sim.run(info, Design(64, False, 1, 1, 1, "barrier"))
        assert piped.cycles < serial.cycles

    def test_multiple_cus_speed_up_long_kernels(self):
        info = make_info(n=4096)
        sim = SystemRun(VIRTEX7)
        one = sim.run(info, Design(64, True, 1, 1, 1, "pipeline"))
        four = sim.run(info, Design(64, True, 1, 4, 1, "pipeline"))
        assert four.cycles < one.cycles

    def test_barrier_mode_slower_than_pipeline(self):
        info = make_info()
        sim = SystemRun(VIRTEX7)
        pipe = sim.run(info, Design(64, True, 1, 1, 1, "pipeline"))
        barrier = sim.run(info, Design(64, True, 1, 1, 1, "barrier"))
        assert barrier.cycles > pipe.cycles

    def test_extrapolation_consistent(self):
        """Results with and without the per-group cap stay close."""
        info = make_info(n=4096)
        d = Design(64, True, 1, 2, 1, "pipeline")
        sim = SystemRun(VIRTEX7)
        capped = sim.run(info, d).cycles
        sim_full = SystemRun(VIRTEX7)
        sim_full.MAX_SIMULATED_GROUPS = 10_000
        full = sim_full.run(info, d).cycles
        assert capped == pytest.approx(full, rel=0.15)

    def test_wg_mismatch_rejected(self):
        info = make_info(wg=64)
        with pytest.raises(ValueError):
            SystemRun(VIRTEX7).run(
                info, Design(128, True, 1, 1, 1, "pipeline"))

    def test_ku060_differs_from_virtex7(self):
        src = r"""
        __kernel void k(__global const float* a, __global float* b,
                        int n) {
            int i = get_global_id(0);
            if (i < n) b[i] = a[i] * 2.0f + 1.0f;
        }
        """
        n = 512
        results = []
        for dev in (VIRTEX7, KU060):
            fn = compile_opencl(src).get("k")
            info = analyze_kernel(
                fn,
                {"a": Buffer("a", np.arange(n, dtype=np.float32)),
                 "b": Buffer("b", np.zeros(n, np.float32))},
                {"n": n}, NDRange(n, 64), dev)
            results.append(SystemRun(dev).run(
                info, Design(64, True, 1, 1, 1, "pipeline")).cycles)
        assert results[0] != results[1]


class TestJitter:
    def test_bounded(self):
        j = _Jitter("kern", "sig")
        for i in range(100):
            f = j.factor(f"tag{i}", 0.25)
            assert 0.75 <= f <= 1.25

    def test_deterministic(self):
        a = _Jitter("kern", "sig").factor("x", 0.2)
        b = _Jitter("kern", "sig").factor("x", 0.2)
        assert a == b

    def test_differs_across_designs(self):
        values = {_Jitter("kern", f"sig{i}").factor("x", 0.2)
                  for i in range(10)}
        assert len(values) > 1


class TestOracleIndependence:
    def test_simulator_never_imports_the_model(self):
        """System Run is the ground truth the model is measured
        against: if it imported ``repro.model``, a model change could
        move the ground truth with it."""
        package = Path(__file__).resolve().parent.parent / "src" / "repro" \
            / "simulator"
        imported = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((path.name, node.module))
                elif isinstance(node, ast.Import):
                    imported.update((path.name, a.name)
                                    for a in node.names)
        assert any(module == "repro.scheduling"
                   for _, module in imported)
        assert [(name, module) for name, module in imported
                if module == "repro.model"
                or module.startswith("repro.model.")] == []
