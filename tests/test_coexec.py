"""FIFO co-execution: functional correctness, stall accounting, and
agreement with the analytical channel model's closed forms."""

import numpy as np
import pytest

from repro.frontend import compile_opencl
from repro.interp import ExecutionError, ProgramExecutor
from repro.model.channel import coexec_stalls
from repro.workloads import get_program
from repro.workloads.programs import _STREAM_DEPTH, _STREAM_N


def run_stream(depths=None):
    program = get_program("scale")
    stages = program.coexec_stages()
    result = ProgramExecutor(program.pipe_module(), stages,
                             depths=depths).run()
    return program, stages, result


class TestFunctional:
    def test_stream_program_computes_reference(self):
        program, stages, result = run_stream()
        src = stages[0].buffers["src"].data
        dst = stages[1].buffers["dst"].data
        expected = program.pipe_reference({"src": src})["dst"]
        np.testing.assert_allclose(dst, expected)

    def test_all_tokens_cross_the_channel(self):
        _, _, result = run_stream()
        link = result.channels["link"]
        assert link.reads == _STREAM_N
        assert link.writes == _STREAM_N
        assert len(link.queue) == 0

    def test_occupancy_never_exceeds_depth(self):
        _, _, result = run_stream()
        link = result.channels["link"]
        assert 0 < link.max_occupancy <= link.depth


class TestStallModel:
    """The recorded stall counters are exactly what the analytical
    channel model (`coexec_stalls`) predicts for a matched-rate
    single-item producer/consumer pair."""

    def test_default_depth_stalls_match_closed_form(self):
        _, _, result = run_stream()
        link = result.channels["link"]
        expected = coexec_stalls(_STREAM_N, _STREAM_DEPTH)
        assert link.stalls_full == expected
        assert link.stalls_empty == expected

    @pytest.mark.parametrize("depth", [2, 4, 32, 128])
    def test_depth_override_stalls_match_closed_form(self, depth):
        _, _, result = run_stream(depths={"link": depth})
        link = result.channels["link"]
        assert link.depth == depth
        expected = coexec_stalls(_STREAM_N, depth)
        assert link.stalls_full == expected
        assert link.stalls_empty == expected

    def test_deeper_fifo_stalls_less(self):
        shallow = run_stream(depths={"link": 4})[2].channels["link"]
        deep = run_stream(depths={"link": 64})[2].channels["link"]
        assert deep.stalls_full < shallow.stalls_full
        assert deep.stalls_empty < shallow.stalls_empty


class TestDeadlock:
    def test_reader_without_writer_deadlocks(self):
        module = compile_opencl("""
        pipe float q;
        __kernel void only_reader(__global float* dst, int n) {
            float v;
            for (int i = 0; i < n; i++) {
                read_pipe(q, &v);
                dst[i] = v;
            }
        }
        """)
        from repro.interp import Buffer, NDRange, StageSpec
        spec = StageSpec(
            fn=module.get("only_reader"), ndrange=NDRange(1, 1),
            buffers={"dst": Buffer("dst", np.zeros(4, np.float32))},
            scalars={"n": 4})
        with pytest.raises(ExecutionError, match="deadlock"):
            ProgramExecutor(module, [spec]).run()

    def test_empty_stage_list_rejected(self):
        module = get_program("scale").pipe_module()
        with pytest.raises(ExecutionError, match="no stages"):
            ProgramExecutor(module, [])


class TestLaunchAnalysis:
    """Co-executed launches feed the ordinary per-kernel analysis."""

    def test_analyze_from_launch(self):
        from repro.analysis import analyze_kernel
        from repro.devices import device_by_name
        program, stages, result = run_stream()
        device = device_by_name("virtex7")
        for spec in stages:
            info = analyze_kernel(
                spec.fn, spec.buffers, spec.scalars, spec.ndrange,
                device, launch=result.launches[spec.fn.name])
            assert info.name == spec.fn.name
            # A recorded launch is the scalar reference and bypasses the
            # store; the channel model takes its tokens from the program
            # graph, not from the analysis.
            assert info.trace_source == "scalar"
            assert info.fingerprint is None
            assert info.ndrange == spec.ndrange
            assert info.block_weights
