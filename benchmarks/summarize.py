"""Summarise benchmarks/results/*.txt into one console digest.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/summarize.py

Prints the headline paper-vs-measured numbers that EXPERIMENTS.md
records, extracted from the per-experiment result files.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

RESULTS = Path(__file__).parent / "results"

HEADLINES = [
    ("table2_rodinia", r"average FlexCL error: ([\d.]+)%",
     "Rodinia avg FlexCL error", "9.5%"),
    ("table2_rodinia", r"average SDAccel-estimator error: ([\d.]+)%",
     "Rodinia avg SDAccel-estimator error", "30.4-84.9%"),
    ("polybench_accuracy", r"average FlexCL error: ([\d.]+)%",
     "PolyBench avg FlexCL error", "8.7%"),
    ("dse", r"mean gap to optimum: ([\d.]+)%",
     "DSE gap to optimum", "within 2.1%"),
    ("dse", r"mean speedup over unoptimised baseline: (\d+)x",
     "DSE speedup over baseline", "273x"),
    ("dse", r"mean exploration speedup vs full synthesis: ([\d,]+)x",
     "exploration speedup", ">10,000x"),
    ("dse_comparison", r"FlexCL exhaustive optimal: \d+/\d+ \((\d+)%\)",
     "FlexCL-exhaustive optimal picks", "96%"),
    ("dse_comparison", r"coarse\+heuristic optimal: \d+/\d+ \((\d+)%\)",
     "coarse+heuristic optimal picks", "12%"),
    ("robustness_ku060", r"hotspot\s+hotspot\s+([\d.]+)",
     "KU060 HotSpot error", "9.7%"),
    ("robustness_ku060", r"pathfinder\s+dynproc\s+([\d.]+)",
     "KU060 pathfinder error", "13.6%"),
]


def main() -> int:
    """Print the digest; returns a process exit code."""
    if not RESULTS.exists():
        print("no results yet - run: pytest benchmarks/ --benchmark-only")
        return 1
    texts = {p.stem: p.read_text() for p in RESULTS.glob("*.txt")}
    print(f"{'experiment':<40}{'measured':>12}{'paper':>16}")
    print("-" * 68)
    missing = 0
    for stem, pattern, label, paper in HEADLINES:
        text = texts.get(stem)
        if text is None:
            print(f"{label:<40}{'(pending)':>12}{paper:>16}")
            missing += 1
            continue
        match = re.search(pattern, text)
        value = match.group(1) if match else "?"
        print(f"{label:<40}{value:>12}{paper:>16}")
    print("-" * 68)
    print(f"result files: {sorted(texts)}")
    return 0 if missing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
