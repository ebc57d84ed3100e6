"""The golden table every benchmark output is checked against.

``golden.json.gz`` holds, for every catalog kernel, FlexCL's predicted
cycles at every feasible design of the kernel's default design space
(``DesignSpace.default_for``), keyed by design signature.  Whatever
designs a seed draws, every prediction, sweep point and served response
has its expected value here.

It also holds a fixed *reference sample*: for each kernel and each
work-group size with a feasible design, the one feasible design whose
SHA-256 of ``"<kernel>|<signature>"`` is smallest, with the cycles the
System Run simulator measured for it.  ``err_pct`` compares predictions
at these points against the stored simulator cycles, so no simulation
runs while the benchmark checks its outputs.

The table is regenerated only by a change that edits the benchmark::

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json.gz")


class Golden:
    """Expected cycles per (kernel, design signature)."""

    def __init__(self, kernels: Dict[str, dict]) -> None:
        #: qualified kernel name -> {"cycles": {signature: cycles},
        #: "reference": {signature: simulator cycles}}
        self.kernels = kernels

    @classmethod
    def load(cls, path: Path = GOLDEN_PATH) -> "Golden":
        with gzip.open(path, "rt") as fh:
            return cls(json.load(fh)["kernels"])

    def names(self):
        return sorted(self.kernels)

    def feasible(self, kernel: str) -> Dict[str, float]:
        """Signature -> predicted cycles of every feasible design."""
        return self.kernels[kernel]["cycles"]

    def reference(self, kernel: str) -> Dict[str, float]:
        """Signature -> simulator cycles of the reference sample."""
        return self.kernels[kernel]["reference"]

    def check(self, kernel: str, signature: str,
              cycles: float) -> Optional[str]:
        """Why a predicted *cycles* value is wrong, or None when it
        matches the golden exactly."""
        if kernel not in self.kernels:
            return f"{kernel}: not a catalog kernel"
        expected = self.kernels[kernel]["cycles"].get(signature)
        if expected is None:
            return f"{kernel} {signature}: infeasible in the golden"
        if cycles != expected:
            return (f"{kernel} {signature}: predicted {cycles!r}, "
                    f"golden {expected!r}")
        return None

    def error_pct(self, predictions: Iterable[Tuple[str, str, float]]
                  ) -> float:
        """Mean |FlexCL - SystemRun| / SystemRun in percent over the
        distinct reference-sample points among *predictions*
        (``(kernel, signature, cycles)`` triples)."""
        errors = {}
        for kernel, signature, cycles in predictions:
            actual = self.kernels.get(kernel, {}).get(
                "reference", {}).get(signature)
            if actual is not None:
                errors[kernel, signature] = abs(cycles - actual) / actual
        if not errors:
            raise ValueError("no reference-sample point was predicted")
        return 100.0 * sum(errors.values()) / len(errors)


def reference_rank(kernel: str, signature: str) -> str:
    """Sort key that picks each work-group size's reference design."""
    return hashlib.sha256(f"{kernel}|{signature}".encode()).hexdigest()


def generate() -> Dict[str, dict]:
    """Sweep every catalog kernel's default space with the library and
    simulate the reference sample (a few minutes)."""
    from repro.devices import VIRTEX7
    from repro.dse import DesignSpace, explore
    from repro.evaluation import make_analyzer
    from repro.model import FlexCL
    from repro.simulator import SystemRun
    from repro.workloads import all_workloads

    simulator = SystemRun(VIRTEX7)
    kernels: Dict[str, dict] = {}
    for workload in all_workloads():
        name = workload.qualified_name
        analyze = make_analyzer(workload, VIRTEX7)
        model = FlexCL(VIRTEX7)
        result = explore(DesignSpace.default_for(workload.global_size),
                         analyze,
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7)
        by_wg: Dict[int, list] = {}
        for entry in result.feasible:
            by_wg.setdefault(entry.design.work_group_size, []).append(
                entry.design)
        reference = {}
        for wg, designs in sorted(by_wg.items()):
            design = min(designs, key=lambda d: reference_rank(
                name, d.signature()))
            reference[design.signature()] = simulator.run(
                analyze(wg), design).cycles
        kernels[name] = {
            "cycles": {e.design.signature(): e.cycles
                       for e in result.feasible},
            "reference": reference,
        }
        print(f"{name}: {len(result.feasible)} feasible, "
              f"{len(reference)} reference", file=sys.stderr)
    return kernels


def write(kernels: Dict[str, dict], path: Path = GOLDEN_PATH) -> None:
    body = json.dumps({
        "device": "virtex7",
        "points": sum(len(k["cycles"]) for k in kernels.values()),
        "reference_points": sum(len(k["reference"])
                                for k in kernels.values()),
        "kernels": kernels,
    }, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(body)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write(generate())
