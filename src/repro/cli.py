"""Command-line interface.

::

    python -m repro predict KERNEL.cl --kernel saxpy --global-size 4096
        [--wg 64 --pe 2 --cu 2 --vector 1 --mode pipeline --no-pipeline]
        [--device virtex7] [--simulate]
    python -m repro explore KERNEL.cl --kernel saxpy --global-size 4096
        [--top 5] [--device virtex7] [--jobs N|auto]
    python -m repro predict-graph PROGRAM [--list]
        [--realization dram|pipe|both] [--depth 16] [--device virtex7]
    python -m repro lint KERNEL.cl [--json] [--check ID] [--kernel saxpy]
        [--summaries]
    python -m repro coverage [--check] [--update] [--json]
    python -m repro workloads [--suite rodinia]
    python -m repro patterns [--device virtex7]
    python -m repro suite [--suite rodinia] [--jobs N|auto] [--limit K]
        [--programs]
    python -m repro cache stats|clear|path [--cache-dir DIR] [--json]
    python -m repro serve [--host H --port P --jobs N]
        [--executor auto|process|thread] [--queue-limit N]
    python -m repro --version

``predict``, ``explore``, ``predict-graph``, ``suite``, and
``cache stats`` accept ``--json`` for canonical machine-readable
output; ``predict`` and ``explore`` accept ``--workload NAME`` to
address a catalog kernel instead of a source file.  A ``--json``
response is byte-identical to the serve daemon's answer for the same
request (see docs/SERVING.md); the text output renders that payload.
``suite --programs --json`` adds each program's ``predict-graph``
payload as ``programs``.  ``predict-graph --wg`` is rejected for a
pipe-only program, whose stages run at their co-executed launches.

``predict``, ``explore``, and ``suite`` consult the persistent
content-addressed cache (default ``~/.cache/repro-flexcl``; configure
with ``REPRO_CACHE_DIR``/``--cache-dir``, disable with ``--no-cache``
or ``REPRO_CACHE_DIR=``), so repeated invocations skip kernel
profiling, PE scheduling, and memory-model work they have done before
— in any process.

``predict`` and ``explore`` need the kernel's buffers: pointer
arguments are auto-filled with synthetic float/int arrays of
``--global-size`` elements, and scalar arguments default to
``--global-size`` for ``n``-like names and 1 otherwise (override with
``--arg name=value``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional


class CLIError(Exception):
    """A user-facing tool error: printed to stderr, exit code 2."""


# API-layer messages name JSON spec fields; on the command line the
# same knobs are flags.
_SPEC_FIELD_FLAGS = {
    "'kernel'": "--kernel NAME",
    "'global_size'": "--global-size",
    "'args'": "--arg",
    "'wg'": "--wg",
    "'depth'": "--depth",
    "'limit'": "--limit",
    "'designs'": "--designs",
}


def _cli_error(exc: Exception) -> CLIError:
    message = str(exc)
    for field, flag in _SPEC_FIELD_FLAGS.items():
        message = message.replace(field, flag)
    return CLIError(message)


def _version() -> str:
    """The installed package version, falling back to the source tree's
    ``repro.__version__`` when the distribution metadata is absent
    (e.g. running from a checkout via ``PYTHONPATH``)."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        import repro
        return getattr(repro, "__version__", "unknown")


def _jobs_arg(value: str):
    """Parse --jobs: a positive int or the literal 'auto'."""
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1")
    return jobs


def _sweep_payload(endpoint: str, spec: dict, cache, jobs) -> dict:
    """An ``explore`` or ``suite`` payload.  One worker evaluates the
    whole request in this process, so one model shares its rows across
    every work-group size.  More workers run the daemon's shard tasks
    on a process-mode :class:`~repro.serve.pool.WorkerPool`, which adds
    each worker's store counters to *cache*."""
    import os

    from repro.serve import api

    workers = os.cpu_count() if jobs == "auto" else jobs or 1
    tasks = api.shard_tasks(endpoint, spec) if workers > 1 else []
    if len(tasks) < 2:
        if endpoint == "explore":
            return api.explore_payload(spec, cache)
        return api.suite_payload(spec, cache)
    from repro.cache.hot import HotCache
    from repro.serve.pool import WorkerPool

    pool = WorkerPool(jobs=min(workers, len(tasks)), mode="process",
                      shared_cache=HotCache(store=cache)
                      if cache is not None else None)
    try:
        futures = [pool.submit(dict(
            task, no_cache=cache is None,
            cache_dir=str(cache.root) if cache is not None else None))
            for task in tasks]
        return api.assemble(endpoint, spec, [f.result() for f in futures])
    finally:
        pool.shutdown()


def _open_cache(args):
    """The persistent cache the command should use (None = disabled)."""
    from repro.cache import open_cache
    return open_cache(getattr(args, "cache_dir", None),
                      enabled=not getattr(args, "no_cache", False))


def _print_cache_line(cache) -> None:
    """One summary line of the persistent store's activity."""
    if cache is not None and cache.stats.lookups:
        print(cache.stats.summary())


def _print_diagnostics(fn, source: str) -> None:
    """Lint *fn* and print any findings under a ``diagnostics:`` header."""
    from repro.lint import lint_function
    diags = lint_function(fn)
    if not diags:
        return
    name = Path(source).name
    print("diagnostics:")
    for d in diags:
        print(f"  {d.format(name)}")


def _lint_tool_error(args, message: str) -> int:
    """Report a tool-level lint failure (unreadable file, unknown check
    id): with ``--json`` the report is still valid JSON (the documented
    contract in docs/LINT.md), and the exit code is 2 — reserved for
    tool errors, never used for kernel findings."""
    import json
    if args.json:
        print(json.dumps({"source": str(args.source), "error": message,
                          "diagnostics": []}, indent=2))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _summaries(source: str, args) -> List[dict]:
    """The per-kernel access summaries of ``lint --summaries``, as
    JSON-able dicts (none when the source does not compile: its
    frontend diagnostics are already reported)."""
    from repro.frontend import compile_opencl
    from repro.lint.summary import summarize_kernel

    try:
        module = compile_opencl(source, name=Path(args.source).stem)
    except Exception:
        return []
    return [summarize_kernel(fn).to_dict() for fn in module.kernels
            if not args.kernel or fn.name == args.kernel]


def _print_summaries(summaries: List[dict]) -> None:
    """Append per-kernel access-summary verdicts to the lint report."""
    for s in summaries:
        print(f"summary {s['kernel']}: {s['verdict']}")
        for r in s["reasons"]:
            print(f"  {r['code']} at {r['where']}"
                  + (f" ({r['detail']})" if r["detail"] else ""))
        for a in s["accesses"]:
            form = a["index"] if a["tier"] == "affine" else a["tier"]
            stride = (f", wi-stride {a['wi_stride']}B"
                      if a["wi_stride"] is not None else "")
            print(f"  site {a['site']}: {a['kind']} {a['space']} "
                  f"{a['buffer']} [{form}]{stride}")


def cmd_lint(args) -> int:
    """Run the `lint` subcommand: static diagnostics, no execution.

    Exit code contract (documented in docs/LINT.md): 0 = no
    error-severity diagnostics, 1 = at least one error-severity
    diagnostic, 2 = the tool itself failed (unreadable file, unknown
    ``--check`` id).  With ``--json`` the output is valid JSON in every
    one of those cases.
    """
    import json

    from repro.lint import Severity, lint_source

    try:
        source = Path(args.source).read_text()
    except OSError as exc:
        return _lint_tool_error(
            args, f"cannot read {args.source}: {exc.strerror}")
    try:
        diags = lint_source(source, name=Path(args.source).stem,
                            checks=args.check or None)
    except ValueError as exc:   # unknown --check id
        return _lint_tool_error(args, str(exc))
    if args.kernel:
        diags = [d for d in diags if d.function in ("", args.kernel)]
    summaries = _summaries(source, args) if args.summaries else None
    if args.json:
        payload = {"source": str(args.source),
                   "diagnostics": [d.to_dict() for d in diags]}
        if summaries is not None:
            payload["summaries"] = summaries
        print(json.dumps(payload, indent=2))
    else:
        name = Path(args.source).name
        for d in diags:
            print(d.format(name))
        counts = {sev: sum(d.severity is sev for d in diags)
                  for sev in Severity}
        print(f"{len(diags)} diagnostic(s): "
              f"{counts[Severity.ERROR]} error(s), "
              f"{counts[Severity.WARNING]} warning(s), "
              f"{counts[Severity.NOTE]} note(s)")
        if summaries is not None:
            _print_summaries(summaries)
    return 1 if any(d.severity is Severity.ERROR for d in diags) else 0


def _spec_args(args) -> Dict[str, float]:
    try:
        return {k: float(v) for k, v in
                (kv.split("=", 1) for kv in (args.arg or []))}
    except ValueError:
        raise CLIError("--arg takes NAME=NUMBER") from None


def _kernel_spec(args) -> dict:
    """The serve-api request spec a predict/explore invocation means
    (the CLI and the daemon share one payload layer,
    :mod:`repro.serve.api`, so ``--json`` output is byte-identical to
    the served response)."""
    spec = {"kernel": args.kernel, "device": args.device,
            "args": _spec_args(args)}
    if getattr(args, "workload", None):
        if args.source:
            raise CLIError("give either an OpenCL source file or "
                           "--workload, not both")
        spec["workload"] = args.workload
        if args.global_size:
            raise CLIError("--global-size is fixed by the catalog "
                           "workload; omit it with --workload")
    else:
        if not args.source:
            raise CLIError("an OpenCL source file (or --workload NAME) "
                           "is required")
        if not args.global_size:
            raise CLIError("--global-size is required with a source "
                           "file")
        try:
            spec["source"] = Path(args.source).read_text()
        except OSError as exc:
            raise CLIError(f"cannot read {args.source}: "
                           f"{exc.strerror}") from None
        spec["global_size"] = args.global_size
    return spec


def _predict_spec(args) -> dict:
    spec = _kernel_spec(args)
    spec.update(wg=args.wg, pe=args.pe, cu=args.cu,
                vector=args.vector, mode=args.mode,
                pipeline=not args.no_pipeline,
                simulate=args.simulate)
    return spec


def cmd_predict(args) -> int:
    """Run the `predict` subcommand: model one design point."""
    from repro.cache.hot import HotCache
    from repro.serve import api as serve_api

    spec = _predict_spec(args)
    cache = _open_cache(args)
    module_memo = HotCache()
    try:
        payload = serve_api.predict_payload(spec, cache=cache,
                                            module_memo=module_memo)
    except serve_api.ApiError as exc:
        raise _cli_error(exc) from None
    if args.json:
        print(serve_api.canonical_json(payload))
        return 0 if payload["feasible"] else 1
    design = payload["design"]["signature"]
    if not payload["feasible"]:
        print(f"design {design} is infeasible: {payload['reason']}")
        return 1
    pred = payload["prediction"]
    print(f"kernel   : {payload['kernel']}")
    if "workload" in payload:
        print(f"workload : {payload['workload']}")
    print(f"design   : {design}")
    print(f"device   : {payload['device']}")
    if "traces" in payload:
        print(f"traces   : {payload['traces']['provenance']} "
              f"(summary: {payload['traces']['summary']})")
    print(f"II       : {pred['ii']:.0f} cycles "
          f"(RecMII {pred['rec_mii']:.0f}, "
          f"ResMII {pred['res_mii']:.0f})")
    print(f"depth    : {pred['depth']:.0f} cycles")
    print(f"L_mem^wi : {pred['memory_latency_per_wi']:.1f} cycles")
    print(f"cycles   : {pred['cycles']:,.0f} "
          f"({pred['seconds']*1e3:.3f} ms at "
          f"{pred['clock_mhz']:.0f} MHz)")
    print(f"bottleneck: {pred['bottleneck']}")
    area, util = payload["area"], payload["area"]["utilisation"]
    print(f"area     : {area['dsp']} DSP ({util['dsp']:.0%}), "
          f"{area['bram_36k']} BRAM ({util['bram']:.0%}), "
          f"{area['luts']:,} LUT ({util['lut']:.0%})")
    if "simulated" in payload:
        print(f"simulated: {payload['simulated']['cycles']:,.0f} cycles "
              f"(model error {payload['simulated']['model_error']:.1%})")
    _print_cache_line(cache)
    if spec.get("source"):
        fn, _ = serve_api.resolve_kernel(
            serve_api.normalize_predict_spec(spec), module_memo)
        _print_diagnostics(fn, args.source)
    return 0


def cmd_explore(args) -> int:
    """Run the `explore` subcommand: sweep the design space through the
    serve-api explore path, so ``--json`` output is byte-identical to
    the daemon's ``/explore`` response."""
    from repro.serve import api as serve_api

    spec = _kernel_spec(args)
    spec["top"] = args.top
    cache = _open_cache(args)
    try:
        payload = _sweep_payload("explore", spec, cache, args.jobs)
    except serve_api.ApiError as exc:
        raise _cli_error(exc) from None
    if args.json:
        print(serve_api.canonical_json(payload))
        return 0
    print(f"explored {payload['evaluated']} designs "
          f"({payload['feasible']} feasible)")
    print(f"\ntop {args.top}:")
    for entry in payload["top"]:
        print(f"  {entry['design']:<46} "
              f"{entry['cycles']:>12,.0f} cycles")
    _print_cache_line(cache)
    if spec.get("source"):
        fn, _ = serve_api.resolve_kernel(
            serve_api.normalize_explore_spec(spec))
        _print_diagnostics(fn, args.source)
    return 0


def cmd_predict_graph(args) -> int:
    """Run the `predict-graph` subcommand: end-to-end latency of a
    multi-kernel program under both edge realizations."""
    from repro.serve import api as serve_api
    from repro.workloads import all_programs

    if args.list or not args.program:
        for p in all_programs():
            chain = " -> ".join(p.stage_order())
            tag = "  [pipes]" if p.has_pipes else ""
            print(f"{p.qualified_name:<20} {chain}{tag}")
        return 0
    spec = {"program": args.program, "realization": args.realization,
            "depth": args.depth, "device": args.device, "wg": args.wg}
    cache = _open_cache(args)
    try:
        payload = serve_api.predict_graph_payload(spec, cache=cache)
    except serve_api.ApiError as exc:
        raise _cli_error(exc) from None
    if args.json:
        print(serve_api.canonical_json(payload))
        return 0
    print(f"program  : {payload['program']}")
    print(f"stages   : {' -> '.join(payload['stages'])}")
    print(f"device   : {payload['device']}")
    for realization, pred in payload["realizations"].items():
        print(f"\n{realization} realization: {pred['cycles']:,.0f} cycles "
              f"({pred['seconds'] * 1e3:.3f} ms)")
        for name, cycles in pred["stages"].items():
            print(f"  stage {name:<12} {cycles:>14,.0f} cycles")
        for t in pred.get("transfers", ()):
            print(f"  edge  {t['src']}->{t['dst']} "
                  f"({t['buffer']}, {t['nbytes']} B) "
                  f"{t['cycles']:>10,.0f} cycles")
        if realization == "pipe":
            print(f"  bottleneck stage: {pred['bottleneck_stage']}")
            for name, ch in pred["channels"].items():
                print(f"  pipe  {name:<12} depth {ch['depth']:>4}  "
                      f"{ch['tokens']} tokens  "
                      f"stall {ch['stall_cycles']:,.0f} cycles")
    _print_cache_line(cache)
    return 0


def cmd_workloads(args) -> int:
    """Run the `workloads` subcommand: list bundled kernels."""
    from repro.workloads import polybench_workloads, rodinia_workloads
    suites = {"rodinia": rodinia_workloads,
              "polybench": polybench_workloads}
    names = [args.suite] if args.suite else list(suites)
    for name in names:
        workloads = suites[name]()
        print(f"{name} ({len(workloads)} kernels):")
        for w in workloads:
            print(f"  {w.benchmark}/{w.kernel}  "
                  f"[global={w.global_size}]")
    return 0


def cmd_suite(args) -> int:
    """Run the `suite` subcommand: batch-evaluate the workload catalog
    through the shared persistent cache."""
    import time

    from repro.serve import api as serve_api

    spec = {"suite": args.suite, "limit": args.limit,
            "designs": args.designs, "device": args.device}
    cache = _open_cache(args)
    start = time.perf_counter()
    try:
        payload = _sweep_payload("suite", spec, cache, args.jobs)
    except serve_api.ApiError as exc:
        raise _cli_error(exc) from None
    elapsed = time.perf_counter() - start
    if args.json:
        if args.programs:
            payload["programs"] = _program_payloads(payload["device"],
                                                    cache)
        print(serve_api.canonical_json(payload))
        return 0
    by_workload: Dict[str, List[dict]] = {}
    for row in payload["rows"]:
        by_workload.setdefault(row["workload"], []).append(row)
    for name in sorted(by_workload):
        rows = by_workload[name]
        best = min(rows, key=lambda r: r["cycles"])
        print(f"{name:<44} {len(rows):>3} designs   "
              f"best {best['cycles']:>14,.0f} cycles  ({best['design']})")
    print(f"\n{payload['workloads']} workloads, "
          f"{payload['predictions']} predictions in {elapsed:.1f}s")
    sources = payload["trace_paths"]
    if sources:
        print("trace paths: " + "  ".join(
            f"{k}={sources[k]}" for k in sorted(sources)))
    _print_cache_line(cache)
    if args.programs:
        print("\nprograms (end-to-end):")
        for program in _program_payloads(payload["device"], cache):
            cycles = "  ".join(
                f"{name} {entry['cycles']:>14,.0f}"
                for name, entry in program["realizations"].items())
            print(f"{program['program']:<28} {cycles} cycles  "
                  f"({len(program['stages'])} stages)")
    return 0


def _program_payloads(device: str, cache) -> List[dict]:
    """Every registered program's ``predict-graph`` payload (both
    realizations, default depth), for ``suite --programs``."""
    from repro.serve.api import predict_graph_payload
    from repro.workloads import all_programs
    return [predict_graph_payload(
        {"program": p.qualified_name, "device": device}, cache)
        for p in all_programs()]


def cmd_cache(args) -> int:
    """Run the `cache` subcommand: stats / clear / path."""
    from repro.cache import cache_payload, open_cache, resolve_cache_dir

    root = resolve_cache_dir(args.cache_dir)
    if root is None:
        print("persistent cache is disabled (REPRO_CACHE_DIR is empty)")
        return 1
    if args.action == "path":
        print(root)
        return 0
    cache = open_cache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached entr"
              f"{'y' if removed == 1 else 'ies'} from {root}")
        return 0
    # stats: the same formatter backs the serve daemon's /metrics
    # "cache" section, so scripts can consume either interchangeably.
    stats = cache_payload(cache)
    if args.json:
        import json
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache dir : {stats['root']}")
    print(f"entries   : {stats['entries']}")
    for layer, count in stats["layers"].items():
        print(f"  {layer:<9}: {count}")
    print(f"size      : {stats['size_bytes'] / 2**20:.1f} MiB "
          f"(cap {stats['max_bytes'] / 2**20:.0f} MiB)")
    return 0


def cmd_serve(args) -> int:
    """Run the `serve` subcommand: the long-running prediction daemon
    (see docs/SERVING.md)."""
    import asyncio

    from repro.serve.daemon import PredictionServer, ServerConfig

    jobs = None if args.jobs in (None, "auto") else args.jobs
    config = ServerConfig(host=args.host, port=args.port, jobs=jobs,
                          executor=args.executor,
                          queue_limit=args.queue_limit,
                          hot_entries=args.hot_entries,
                          cache_dir=args.cache_dir,
                          no_cache=args.no_cache, quiet=False)

    async def _run() -> None:
        server = PredictionServer(config)
        await server.start()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_coverage(args) -> int:
    """Run the `coverage` subcommand: catalog-wide summary verdicts."""
    import json

    from repro.lint.summary.coverage import (
        check_coverage,
        coverage_report,
        write_golden,
    )

    report = coverage_report()
    if args.update:
        path = write_golden(report)
        print(f"wrote {path} ({report['static']}/{report['total']} "
              f"kernels static)")
        return 0
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for name, entry in sorted(report["kernels"].items()):
            why = ("" if entry["verdict"] == "static"
                   else "  [" + ", ".join(entry["reasons"]) + "]")
            print(f"{name:<44} {entry['verdict']}{why}")
        print(f"\n{report['static']}/{report['total']} kernels static "
              f"(engine v{report['engine_version']})")
    if args.check:
        problems = check_coverage(report)
        if problems:
            for p_ in problems:
                print(f"REGRESSION: {p_}", file=sys.stderr)
            return 1
        print("coverage check passed: no STATIC kernel regressed")
    return 0


def cmd_patterns(args) -> int:
    """Run the `patterns` subcommand: print Table 1."""
    from repro.devices import device_by_name
    from repro.dram import profile_pattern_latencies
    device = device_by_name(args.device)
    print(f"Table 1 pattern latencies on {device.name}:")
    print(profile_pattern_latencies(device))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexCL: analytical performance model for OpenCL "
                    "workloads on FPGAs (DAC'17 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_device_arg(p):
        from repro.devices import DEVICE_NAMES
        p.add_argument("--device", default="virtex7", choices=DEVICE_NAMES)

    def add_cache_args(p):
        p.add_argument("--cache-dir", metavar="DIR",
                       help="persistent cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-flexcl)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the persistent cache for this run")

    def add_kernel_args(p):
        p.add_argument("source", nargs="?",
                       help="OpenCL .cl source file (or use --workload)")
        p.add_argument("--workload", metavar="NAME",
                       help="a catalog workload instead of a source "
                            "file, e.g. 'rodinia/nw/nw1' "
                            "(buffers, scalars, and NDRange come from "
                            "the catalog)")
        p.add_argument("--kernel", help="kernel name "
                                        "(default: first kernel)")
        p.add_argument("--global-size", type=int, default=0,
                       help="1-D NDRange size (required with a source "
                            "file)")
        p.add_argument("--wg", type=int, default=64,
                       help="work-group size")
        add_device_arg(p)
        p.add_argument("--arg", action="append", metavar="NAME=VALUE",
                       help="override a scalar kernel argument")
        add_cache_args(p)

    def add_json_arg(p):
        p.add_argument("--json", action="store_true",
                       help="canonical JSON output (byte-identical to "
                            "the serve daemon's response)")

    p = sub.add_parser("predict", help="predict one design's cycles")
    add_kernel_args(p)
    p.add_argument("--pe", type=int, default=1)
    p.add_argument("--cu", type=int, default=1)
    p.add_argument("--vector", type=int, default=1)
    p.add_argument("--mode", default="pipeline",
                   choices=["pipeline", "barrier"])
    p.add_argument("--no-pipeline", action="store_true",
                   help="disable work-item pipelining")
    p.add_argument("--simulate", action="store_true",
                   help="also run the System Run simulator")
    add_json_arg(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explore", help="sweep the design space")
    add_kernel_args(p)
    p.add_argument("--top", type=int, default=5)
    add_json_arg(p)
    p.add_argument("--jobs", "-j", type=_jobs_arg, default=None,
                   metavar="N",
                   help="worker processes for the sweep "
                        "('auto' = one per core; default: serial)")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("predict-graph",
                       help="predict a multi-kernel program's "
                            "end-to-end latency (pipe vs DRAM edges)")
    p.add_argument("program", nargs="?",
                   help="program name (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the registered programs and exit")
    add_device_arg(p)
    p.add_argument("--realization", default="both",
                   choices=["dram", "pipe", "both"],
                   help="edge realization to price (default: both)")
    p.add_argument("--depth", type=int, default=16,
                   help="FIFO depth for the pipe realization")
    p.add_argument("--wg", type=int, default=None,
                   help="override every stage's work-group size")
    add_json_arg(p)
    add_cache_args(p)
    p.set_defaults(func=cmd_predict_graph)

    p = sub.add_parser("lint", help="static kernel diagnostics "
                                    "(no execution)")
    p.add_argument("source", help="OpenCL .cl source file")
    p.add_argument("--kernel", help="restrict diagnostics to one kernel")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    p.add_argument("--check", action="append", metavar="ID",
                   help="run only this check id (repeatable); see "
                        "docs/LINT.md for the list")
    p.add_argument("--summaries", action="store_true",
                   help="also print each kernel's access-summary "
                        "verdict and per-site closed forms")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("coverage",
                       help="static-trace coverage over the bundled "
                            "workload catalog")
    p.add_argument("--check", action="store_true",
                   help="fail (exit 1) if a kernel the golden file "
                        "proves STATIC has regressed")
    p.add_argument("--update", action="store_true",
                   help="rewrite docs/static_coverage.json from the "
                        "current engine")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("workloads", help="list bundled benchmarks")
    p.add_argument("--suite", choices=["rodinia", "polybench"])
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("suite", help="batch-evaluate the workload "
                                     "catalog (cache-accelerated)")
    p.add_argument("--suite", choices=["rodinia", "polybench"],
                   help="restrict to one suite (default: both)")
    add_device_arg(p)
    p.add_argument("--jobs", "-j", type=_jobs_arg, default=None,
                   metavar="N",
                   help="worker processes ('auto' = one per core; "
                        "default: serial)")
    p.add_argument("--limit", type=int, default=0, metavar="K",
                   help="evaluate only the first K kernels (0 = all)")
    p.add_argument("--designs", type=int, default=8, metavar="D",
                   help="sampled design points per kernel")
    p.add_argument("--programs", action="store_true",
                   help="also evaluate every multi-kernel program "
                        "end-to-end (dram and pipe realizations)")
    add_json_arg(p)
    add_cache_args(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("cache", help="inspect or clear the persistent "
                                     "analysis cache")
    p.add_argument("action", choices=["stats", "clear", "path"])
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache directory (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro-flexcl)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable stats (the same formatter "
                        "backs the serve daemon's /metrics)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("serve",
                       help="run the prediction daemon: HTTP/JSON "
                            "endpoints with a hot cache, request "
                            "coalescing, and backpressure")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--jobs", "-j", type=_jobs_arg, default=None,
                   metavar="N",
                   help="worker pool size ('auto' = one per core "
                        "minus one, the default)")
    p.add_argument("--executor", default="auto",
                   choices=["auto", "process", "thread"],
                   help="worker pool kind (auto = forked processes "
                        "when available)")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="max in-flight evaluations before new work is "
                        "refused with 503 (cache hits and coalesced "
                        "requests are always admitted)")
    p.add_argument("--hot-entries", type=int, default=2048, metavar="N",
                   help="in-memory hot-tier capacity (entries)")
    add_cache_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("patterns", help="print Table 1 ΔT values")
    add_device_arg(p)
    p.set_defaults(func=cmd_patterns)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
