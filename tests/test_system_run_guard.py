"""System Run cycles for a fixed set of (kernel, design) pairs.

The simulator's synthesis step runs the same list and modulo schedulers
as the model (``repro.simulator.synthesis``), so a scheduler change can
move the ground truth that every accuracy figure is measured against.
These values were taken before SMS began its search at the issue-slot
bound; the pipelined pairs are ones where that bound lies above MII
during synthesis, and the unpipelined ones cover the serial path.
"""

import pytest

from repro.devices import VIRTEX7
from repro.dse import DesignSpace, check_feasibility
from repro.evaluation import make_analyzer
from repro.simulator import SystemRun
from repro.workloads import all_workloads

GOLDEN = {
    ("rodinia/lavaMD/lavaMD", "wg64-pipe-pe2-cu1-v1-pipeline"):
        2026488.5200000003,
    ("rodinia/srad/srad", "wg64-pipe-pe1-cu2-v1-pipeline"): 24464.272,
    ("polybench/seidel-2d/seidel2d", "wg64-pipe-pe1-cu1-v1-barrier"):
        142916.396,
    ("rodinia/nw/nw1", "wg32-pipe-pe1-cu1-v1-pipeline"):
        18975.654000000002,
    ("polybench/mvt/mvt", "wg32-pipe-pe2-cu2-v1-pipeline"): 79301.552,
    ("polybench/gemm/gemm", "wg64-nopipe-pe1-cu2-v1-barrier"):
        1956545.0780000002,
    ("rodinia/pathfinder/dynproc", "wg64-nopipe-pe2-cu1-v1-barrier"):
        189424.868,
    ("rodinia/hotspot/hotspot", "wg64-nopipe-pe1-cu1-v1-barrier"):
        1151398.712,
}

BY_NAME = {w.qualified_name: w for w in all_workloads()}


@pytest.mark.parametrize("name,signature", sorted(GOLDEN))
def test_simulated_cycles_are_frozen(name, signature):
    workload = BY_NAME[name]
    space = DesignSpace.default_for(workload.global_size)
    design = {d.signature(): d for d in space}[signature]
    info = make_analyzer(workload, VIRTEX7)(design.work_group_size)
    assert check_feasibility(info, design, VIRTEX7) is None
    report = SystemRun(VIRTEX7).run(info, design)
    assert report.cycles == GOLDEN[(name, signature)]
