"""Gate perfbench's deterministic work counts against a golden.

Wall times on shared CI runners spread too widely to gate, but the
traced call counts (``*_calls``, ``memo_lookups``) of a seeded
``catalog`` and ``dse-sweep`` run are identical run to run.  A change
to one of them means the pipeline does different work, so it must be
deliberate: update the golden with ``--update`` and say why.

Usage::

    python3 perfbench/run.py --workload catalog,dse-sweep --seed 1 \\
        --trace 1 > work-counts.out
    python3 benchmarks/check_work_counts.py work-counts.out
    python3 benchmarks/check_work_counts.py work-counts.out --update

Exit status 0 when every golden count matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "docs" / "work_counts_golden.json"
COMMAND = ("python3 perfbench/run.py --workload catalog,dse-sweep "
           "--seed 1 --trace 1")


def run_counts(text: str) -> dict:
    """The gated counts of one run: perfbench's closing JSON line,
    restricted to call and lookup counters."""
    metrics = json.loads(text.strip().splitlines()[-1])["metrics"]
    return {name: int(m["value"]) for name, m in sorted(metrics.items())
            if name.endswith(("calls", "lookups"))}


def compare(golden: dict, counts: dict) -> list:
    """One message per golden counter the run misses or differs on."""
    problems = []
    for name, want in sorted(golden.items()):
        got = counts.get(name)
        if got != want:
            problems.append(f"{name}: golden {want}, run {got}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run_output", help="stdout of the perfbench run")
    ap.add_argument("--golden", default=str(GOLDEN))
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden from this run")
    args = ap.parse_args(argv)
    counts = run_counts(Path(args.run_output).read_text())
    golden_path = Path(args.golden)
    if args.update:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True).stdout.strip()
        golden_path.write_text(json.dumps(
            {"command": COMMAND, "seed": 1, "commit": commit,
             "counts": counts}, indent=2) + "\n")
        print(f"wrote {len(counts)} counts to {golden_path}")
        return 0
    golden = json.loads(golden_path.read_text())["counts"]
    problems = compare(golden, counts)
    for line in problems:
        print(f"work count changed: {line}", file=sys.stderr)
    if problems:
        return 1
    print(f"{len(golden)} work counts match {golden_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
