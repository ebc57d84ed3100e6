"""Function-level reachability census of ``src/repro``.

Runs every entry point of the repository and lists the functions of
``src/repro`` that none of them entered:

- ``perfbench/run.py --workload all``;
- ``bench_suite_cache.py``, ``bench_serve.py`` and ``bench_dse_perf.py``
  with ``--small`` (they write only ``benchmarks/results/``);
- the eight paper benchmarks, whose ``test_*`` functions are called
  directly with a one-round stand-in for pytest-benchmark's fixture,
  from a scratch copy of ``benchmarks/`` so that they leave the
  committed ``benchmarks/results/*.txt`` alone;
- every script in ``examples/``;
- each CLI subcommand, against a scratch cache directory.

Each entry point runs in a child process that records every Python
function it enters (``sys.settrace``, ``threading.settrace`` for later
threads).  A generated ``sitecustomize.py`` on the child's
``PYTHONPATH`` installs the recorder, so processes the entry point
starts itself (the serve daemon, ``python -m repro`` subprocesses)
record too.  A process dumps what it saw at exit, in ``os._exit``
(forked pool workers leave through it), and every second, for
processes that are killed.  Running the paper benchmarks under pytest
would record nothing: pytest replaces the trace hook.

A function is named by its file and first line (its first decorator's
line when decorated).  Lambdas and comprehensions are not counted.
The full run takes about ten minutes on two cores.

Usage::

    python3 benchmarks/census.py    # writes docs/census_unreached.txt
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OUTPUT = ROOT / "docs" / "census_unreached.txt"

#: installed in every child by the generated sitecustomize.py
_RECORDER = r'''
import atexit, os, sys, threading, time

_SEEN = set()
_SRC = {src!r}
_OUT = {out!r}


def _record(frame, event, arg):
    code = frame.f_code
    _SEEN.add((code.co_filename, code.co_firstlineno))


def _dump():
    keys = [key for key in list(_SEEN) if key[0].startswith(_SRC)]
    path = os.path.join(_OUT, f"{{os.getpid()}}.txt")
    with open(path + ".tmp", "w") as fh:
        fh.writelines(f"{{f}}\t{{line}}\n" for f, line in keys)
    os.replace(path + ".tmp", path)


def _dump_every_second():
    sys.settrace(None)
    while True:
        time.sleep(1.0)
        _dump()


def _start_dumper():
    threading.Thread(target=_dump_every_second, daemon=True).start()


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
os.register_at_fork(after_in_child=_start_dumper)
_start_dumper()
threading.settrace(_record)
sys.settrace(_record)
'''

#: calls a paper benchmark's test functions without pytest
_PAPER = r'''
import importlib, sys


class _Benchmark:
    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


module = importlib.import_module(sys.argv[1])
for name in sorted(dir(module)):
    if name.startswith("test_"):
        getattr(module, name)(_Benchmark())
'''

PAPER_BENCHMARKS = (
    "bench_ablation", "bench_dse", "bench_dse_comparison",
    "bench_fig4_per_design", "bench_polybench_accuracy",
    "bench_robustness_ku060", "bench_table1_patterns",
    "bench_table2_rodinia",
)

SAXPY = """
__kernel void saxpy(__global const float* x, __global float* y,
                    float a, int n) {
    int i = get_global_id(0);
    if (i < n) y[i] = a * x[i] + y[i];
}
"""


def entry_points(scratch: Path):
    """``(group, name, argv)`` of every run; argv[0] is the Python
    interpreter.  CLI runs use *scratch* for files and caches."""
    py = sys.executable
    kernel = scratch / "saxpy.cl"
    kernel.write_text(SAXPY)
    cache = ["--cache-dir", str(scratch / "cache")]
    runs = [("perfbench", "perfbench all",
             [py, "perfbench/run.py", "--workload", "all"])]
    for bench in ("bench_suite_cache", "bench_serve", "bench_dse_perf"):
        runs.append(("small", bench,
                     [py, f"benchmarks/{bench}.py", "--small"]))
    for bench in PAPER_BENCHMARKS:
        runs.append(("paper", bench, [py, "-c", _PAPER, bench]))
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append(("examples", example.name,
                     [py, f"examples/{example.name}"]))
    cli = [
        ["predict", str(kernel), "--global-size", "256", "--simulate"]
        + cache,
        ["predict", "--workload", "rodinia/nw/nw1", "--json"] + cache,
        ["explore", str(kernel), "--global-size", "256"] + cache,
        ["explore", "--workload", "polybench/atax/atax", "--jobs", "2",
         "--json"] + cache,
        ["predict-graph", "--list"],
        ["predict-graph", "srad"] + cache,
        ["predict-graph", "srad", "--json", "--no-cache"],
        ["lint", str(kernel), "--summaries"],
        ["lint", str(kernel), "--json"],
        ["coverage", "--check"],
        ["workloads"],
        ["suite", "--limit", "2", "--designs", "2", "--jobs", "2",
         "--json"] + cache,
        ["suite", "--limit", "2", "--designs", "2", "--programs"]
        + cache,
        ["cache", "stats", "--json"] + cache,
        ["cache", "path"] + cache,
        ["cache", "clear"] + cache,
        ["patterns", "--device", "ku060"],
        ["serve", "--port", "0", "--no-cache"],
    ]
    for argv in cli:
        runs.append(("cli", " ".join(argv).replace(f"{scratch}/", ""),
                     [py, "-m", "repro"] + argv))
    return runs


def run_entry(argv, env, log) -> int:
    """Run one entry point; ``repro serve`` gets SIGINT after 10 s."""
    serve = "serve" in argv[3:4]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                            stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL)
    if serve:
        time.sleep(10.0)
        proc.send_signal(signal.SIGINT)
    try:
        return proc.wait(timeout=3600)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def src_functions():
    """``{(file, first line): (qualified name, lines)}`` of every def
    under ``src/repro``."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = prefix + child.name
                out[(str(path), first)] = (
                    name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tmp = Path(tmp)
        hook, dumps = tmp / "hook", tmp / "dumps"
        hook.mkdir()
        dumps.mkdir()
        (hook / "sitecustomize.py").write_text(
            _RECORDER.format(src=str(SRC), out=str(dumps)))
        shutil.copytree(ROOT / "benchmarks", tmp / "benchmarks",
                        ignore=shutil.ignore_patterns("results"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(hook), str(ROOT / "src"), str(tmp / "benchmarks")]))
        failed = []
        with open(tmp / "log.txt", "w") as log:
            for group, name, command in entry_points(tmp):
                start = time.perf_counter()
                status = run_entry(command, env, log)
                print(f"exit {status:>3} {time.perf_counter() - start:7.1f} s"
                      f"  {group}: {name}", flush=True)
                if status:
                    failed.append(f"{group}: {name} (exit {status})")
        seen = set()
        for dump in dumps.glob("*.txt"):
            for line in dump.read_text().splitlines():
                path, first = line.split("\t")
                seen.add((path, int(first)))

    functions = src_functions()
    unreached = sorted(key for key in functions if key not in seen)
    lines = sum(functions[key][1] for key in unreached)
    header = [
        "# Functions of src/repro that no entry point entered",
        "# (written by benchmarks/census.py).",
        f"# {len(unreached)} of {len(functions)} functions unreached, "
        f"{lines} lines (decorators through the last line).",
    ]
    if failed:
        header.append("# entry points that failed: " + ", ".join(failed))
    body = [f"{Path(path).relative_to(ROOT)}:{first} "
            f"{functions[(path, first)][0]} "
            f"({functions[(path, first)][1]} lines)"
            for path, first in unreached]
    OUTPUT.write_text("\n".join(header + body) + "\n")
    print("\n".join(header[2:]))
    print(f"[written to {OUTPUT}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
