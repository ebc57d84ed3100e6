"""Shared test configuration.

Every test gets a private, empty ``REPRO_CACHE_DIR`` so the suite is
hermetic: no test reads warm state another test (or an earlier checkout
of the code) wrote, and nothing touches the user's real
``~/.cache/repro-flexcl``.  Tests that exercise warm-start behaviour
explicitly share a directory inside their own tmp path.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path / "repro-cache"))


@pytest.fixture
def scalar_reference():
    """``analyze(fn, buffers, scalars, ndrange, device)`` through the
    scalar interpreter: a :class:`~repro.interp.KernelExecutor` launch
    handed to ``analyze_kernel(..., launch=...)``.  This is the
    reference the synthesized and vectorized analyses must match."""
    from repro.analysis import analyze_kernel
    from repro.analysis.kernel_info import DEFAULT_PROFILE_GROUPS
    from repro.interp import KernelExecutor

    def analyze(fn, buffers, scalars, ndrange, device):
        launch = KernelExecutor(fn, buffers, scalars).run(
            ndrange, max_groups=DEFAULT_PROFILE_GROUPS)
        return analyze_kernel(fn, buffers, scalars, ndrange, device,
                              launch=launch)

    return analyze


@pytest.fixture
def source_compiles(monkeypatch):
    """Sources compiled for predict/explore specs, in call order, with
    the process-wide source memo emptied for the test."""
    import repro.frontend
    from repro.cache.hot import HotCache
    from repro.serve import api

    calls = []
    original = repro.frontend.compile_opencl

    def counted(source, *args, **kwargs):
        calls.append(source)
        return original(source, *args, **kwargs)

    monkeypatch.setattr(repro.frontend, "compile_opencl", counted)
    monkeypatch.setattr(api, "_SOURCE_MEMO",
                        HotCache(max_entries=api.MAX_COMPILED_SOURCES))
    return calls
