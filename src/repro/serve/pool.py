"""The daemon's bounded worker pool.

Model evaluation is CPU-bound Python, so the default executor is a
forked :class:`~concurrent.futures.ProcessPoolExecutor` sized by
``--jobs`` — the same strategy as ``explore --jobs`` and
``suite --jobs``.  Each forked worker opens its own handle on the
shared *disk* store (content-addressed + atomic writes make concurrent
stores safe), and everything it computes lands there for the parent
and future workers to reuse.  Each task also returns its handle's
counter delta, which the pool adds to the daemon's store handle, so
``/metrics`` counts the workers' hits, misses and puts.

``--executor thread`` swaps in a :class:`ThreadPoolExecutor` whose
workers share the parent's in-memory :class:`~repro.cache.hot.HotCache`
directly, so even the artifact layers (analysis, PE schedules, memory
model) are served from memory.  Threads serialize on the GIL for
cold evaluations, but a warm server answers from the hot tier without
entering the pool at all — this is the mode the tests and the CI smoke
job use, and the right choice when requests repeat heavily.

Tasks and results cross the pool as plain dicts/lists
(:func:`repro.serve.api.run_task`), so no closure pickling is needed
in either mode.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from typing import Optional

from repro.serve.api import run_task

#: the forked worker's cache handle, opened once per worker process
_worker_cache = None
_worker_cache_opened = False


def _process_worker_run(task: dict):
    """Top-level (picklable) worker entry: run one task against the
    worker's own disk-store handle; returns ``(result, store counter
    delta)`` (the delta is None without a store)."""
    global _worker_cache, _worker_cache_opened
    if not _worker_cache_opened:
        _worker_cache_opened = True
        if not task.get("no_cache"):
            from repro.cache import open_cache
            _worker_cache = open_cache(task.get("cache_dir"))
    if _worker_cache is None:
        return run_task(task, cache=None), None
    before = _worker_cache.stats.copy()
    result = run_task(task, cache=_worker_cache)
    return result, _worker_cache.stats - before


def default_jobs() -> int:
    """Worker count when none is requested: one per core, minus one
    for the event loop."""
    return max(1, (os.cpu_count() or 2) - 1)


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method (the
    only one that lets workers inherit compiled modules for free)."""
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """A bounded executor the daemon submits :func:`run_task` dicts to.

    ``mode`` is 'process', 'thread', or 'auto' (process when fork is
    available).  In thread mode *shared_cache* (the daemon's HotCache)
    is handed to every task so artifact lookups hit the in-memory tier;
    in process mode tasks carry ``cache_dir``/``no_cache`` and workers
    open the disk store themselves.
    """

    def __init__(self, jobs: Optional[int] = None, mode: str = "auto",
                 shared_cache=None) -> None:
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        if mode == "auto":
            mode = "process" if fork_available() else "thread"
        if mode == "process" and not fork_available():
            mode = "thread"
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown executor mode {mode!r}")
        self.mode = mode
        self.shared_cache = shared_cache
        if mode == "process":
            ctx = multiprocessing.get_context("fork")
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=ctx)
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.jobs,
                thread_name_prefix="repro-serve")

    def submit(self, task: dict) -> concurrent.futures.Future:
        """Schedule one task; returns a future of its result (wrap with
        ``asyncio.wrap_future`` to await it on the event loop)."""
        if self.mode == "thread":
            return self._executor.submit(run_task, task, self.shared_cache)
        inner = self._executor.submit(_process_worker_run, task)
        outer: concurrent.futures.Future = concurrent.futures.Future()
        store = getattr(self.shared_cache, "store", None)

        def unwrap(done: concurrent.futures.Future) -> None:
            if done.cancelled():
                outer.cancel()
                return
            exc = done.exception()
            if exc is None:
                result, delta = done.result()
                if store is not None and delta is not None:
                    store.absorb(delta)
            if outer.cancelled():
                return
            if exc is not None:
                outer.set_exception(exc)
            else:
                outer.set_result(result)

        inner.add_done_callback(unwrap)
        outer.add_done_callback(
            lambda f: inner.cancel() if f.cancelled() else None)
        return outer

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
