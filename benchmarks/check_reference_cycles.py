"""Gate System Run's simulated cycles against the perfbench golden.

``perfbench/golden.json.gz`` stores the cycles the System Run simulator
measured for a fixed reference sample of catalog designs (one per kernel
and feasible work-group size, 303 in all), and perfbench's ``err_pct``
reads them instead of simulating.  So a change to ``repro.simulator`` or
``repro.dram`` moves no perfbench figure even when it moves the ground
truth.  This check re-simulates every reference design and requires its
cycles to be bit-equal to the stored value; a deliberate change to the
ground truth regenerates the golden (``perfbench/golden.py``) instead.

Usage::

    python3 benchmarks/check_reference_cycles.py

Exit status 0 when every reference cycle matches, 1 otherwise.  It
reads the golden and never writes it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from golden import Golden                                  # noqa: E402
from repro.devices import VIRTEX7                          # noqa: E402
from repro.dse import Design                               # noqa: E402
from repro.evaluation import make_analyzer                 # noqa: E402
from repro.simulator import SystemRun                      # noqa: E402
from repro.workloads import get_workload                   # noqa: E402

#: (qualified kernel name, design signature, stored simulator cycles)
Point = Tuple[str, str, float]


def parse_design(signature: str) -> Design:
    """The :class:`Design` whose :meth:`Design.signature` is
    *signature*."""
    parts = signature.split("-")
    wg_pipe = "wgpipe" in parts
    if wg_pipe:
        parts.remove("wgpipe")
    wg, wi, pe, cu, vw, mode = parts
    design = Design(work_group_size=int(wg[2:]),
                    work_item_pipeline=wi == "pipe",
                    num_pe=int(pe[2:]), num_cu=int(cu[2:]),
                    vector_width=int(vw[1:]), comm_mode=mode,
                    work_group_pipeline=wg_pipe)
    if design.signature() != signature:
        raise ValueError(f"not a design signature: {signature!r}")
    return design


def reference_points(golden: Golden) -> List[Point]:
    """Every reference-sample point of *golden*, kernel by kernel."""
    return [(kernel, sig, cycles) for kernel in golden.names()
            for sig, cycles in sorted(golden.reference(kernel).items())]


def check(points: Iterable[Point]) -> List[str]:
    """Re-simulate *points* on VIRTEX7 (the golden's device); one
    message per point whose cycles are not bit-equal to the stored
    value."""
    simulator = SystemRun(VIRTEX7)
    analyzers: Dict[str, object] = {}
    problems = []
    for kernel, signature, expected in points:
        if kernel not in analyzers:
            analyzers[kernel] = make_analyzer(
                get_workload(*kernel.split("/")), VIRTEX7)
        design = parse_design(signature)
        info = analyzers[kernel](design.work_group_size)
        if info is None:
            problems.append(f"{kernel} {signature}: analysis failed")
            continue
        cycles = simulator.run(info, design).cycles
        if cycles != expected:
            problems.append(f"{kernel} {signature}: simulated "
                            f"{cycles!r}, golden {expected!r}")
    return problems


def main() -> int:
    points = reference_points(Golden.load())
    t0 = time.perf_counter()
    problems = check(points)
    seconds = time.perf_counter() - t0
    for line in problems:
        print(f"reference cycles changed: {line}", file=sys.stderr)
    if problems:
        return 1
    print(f"{len(points)} reference cycles match golden.json.gz "
          f"({seconds:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
