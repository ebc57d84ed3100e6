"""Profile-engine benchmark: the lane-vectorized executor's cold cost.

Times :meth:`repro.interp.vexec.VectorizedExecutor.run` over
``DEFAULT_PROFILE_GROUPS`` work-groups for every catalog kernel the
access summary does not prove STATIC (the kernels whose cold profile is
the vectorized executor's), at every valid work-group size: the same 60
profiles a cold ``perfbench`` ``catalog`` pass runs.  Each profile gets
fresh buffers and a fresh executor; the best of ``--repeats`` is kept.

``--baseline FILE`` embeds another checkout's output of this script
(run there with ``--out FILE``) as ``baseline``, with the speedup of
the total.  Keys of an existing output file that this script does not
write (such as ``catalog_traced``, the traced perfbench
``interp.vexec_ms`` of both trees) are kept.

Usage::

    PYTHONPATH=src python benchmarks/bench_vexec.py
    PYTHONPATH=src python benchmarks/bench_vexec.py --baseline before.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.kernel_info import (                   # noqa: E402
    DEFAULT_PROFILE_GROUPS,
)
from repro.interp.vexec import VectorizedExecutor          # noqa: E402
from repro.lint.summary import (                           # noqa: E402
    VERDICT_STATIC,
    summarize_kernel,
)
from repro.workloads import registry                       # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def profile_times(repeats: int) -> dict:
    """kernel -> {wg: best ms} over the dynamic catalog kernels."""
    out = {}
    for w in registry.all_workloads():
        fn = w.function()
        if summarize_kernel(fn).verdict == VERDICT_STATIC:
            continue
        row = {}
        for wg in w.valid_work_group_sizes():
            best = float("inf")
            for _ in range(repeats):
                ex = VectorizedExecutor(fn, w.make_buffers(),
                                        dict(w.scalars))
                t0 = time.perf_counter()
                ex.run(w.ndrange(wg), max_groups=DEFAULT_PROFILE_GROUPS)
                best = min(best, time.perf_counter() - t0)
            row[str(wg)] = round(best * 1e3, 2)
        out[w.qualified_name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--baseline", help="this script's output for "
                    "another checkout")
    ap.add_argument("--out", default=str(ROOT / "BENCH_vexec.json"))
    args = ap.parse_args(argv)

    per = profile_times(args.repeats)
    total = round(sum(sum(row.values()) for row in per.values()), 1)
    path = Path(args.out)
    result = json.loads(path.read_text()) if path.exists() else {}
    result.update({
        "benchmark": "vexec",
        "profile_groups": DEFAULT_PROFILE_GROUPS,
        "repeats": args.repeats,
        "kernels": len(per),
        "profiles": sum(len(row) for row in per.values()),
        "total_ms": total,
        "per_profile_ms": per,
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        result["baseline"] = {k: base[k] for k in
                              ("total_ms", "per_profile_ms")}
        result["speedup_total"] = round(base["total_ms"] / total, 2)
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, row in per.items():
        print(f"{name:40s} " + " ".join(f"{wg}:{ms:.1f}"
                                        for wg, ms in row.items()))
    print(f"total {total} ms over {result['profiles']} profiles "
          f"[written to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
