"""Unit tests for ``repro.cache``: keys, the store, and invalidation."""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.cache import (
    SCHEMA_VERSIONS,
    ArtifactCache,
    StoreStats,
    device_fingerprint,
    function_fingerprint,
    open_cache,
    resolve_cache_dir,
)
from repro.devices import KU060, VIRTEX7
from repro.frontend import compile_opencl
from repro.interp import Buffer, NDRange

SRC = """
__kernel void saxpy(__global const float* x, __global float* y,
                    float a, int n) {
    int i = get_global_id(0);
    if (i < n) y[i] = a * x[i] + y[i];
}
"""


def _fn(src=SRC):
    return compile_opencl(src).get("saxpy")


def _buffers(n=256, seed=3):
    rng = np.random.default_rng(seed)
    return {"x": Buffer("x", rng.random(n).astype(np.float32)),
            "y": Buffer("y", rng.random(n).astype(np.float32))}


def _analyze(cache=None, src=SRC, device=VIRTEX7, seed=3, n=256):
    return analyze_kernel(_fn(src), _buffers(n, seed),
                          {"a": 2.0, "n": n}, NDRange(n, 64),
                          device, cache=cache)


class TestKeys:
    def test_function_fingerprint_stable_across_compiles(self):
        # Fresh compiles allocate fresh (differently numbered) virtual
        # registers; the canonical dump must renumber them away.
        assert function_fingerprint(_fn()) == function_fingerprint(_fn())

    def test_function_fingerprint_ignores_comments(self):
        assert function_fingerprint(_fn()) == \
            function_fingerprint(_fn("// tweak\n" + SRC))

    def test_function_fingerprint_sees_semantic_edits(self):
        edited = SRC.replace("a * x[i]", "a * x[i] + 1.0f")
        assert function_fingerprint(_fn()) != \
            function_fingerprint(_fn(edited))

    def test_function_fingerprint_survives_analysis_annotations(self):
        fn = _fn()
        before = function_fingerprint(fn)
        analyze_kernel(fn, _buffers(), {"a": 2.0, "n": 256},
                       NDRange(256, 64), VIRTEX7)
        assert function_fingerprint(fn) == before

    def test_device_fingerprint_covers_every_parameter(self):
        assert device_fingerprint(VIRTEX7) != device_fingerprint(KU060)
        tweaked = dataclasses.replace(VIRTEX7, clock_mhz=250.0)
        assert device_fingerprint(VIRTEX7) != device_fingerprint(tweaked)
        # Same name, different DRAM timing: must not alias.
        retimed = dataclasses.replace(
            VIRTEX7, dram=dataclasses.replace(VIRTEX7.dram,
                                              t_overhead=33))
        assert retimed.name == VIRTEX7.name
        assert device_fingerprint(VIRTEX7) != device_fingerprint(retimed)


class TestInvalidation:
    """Editing the kernel, the device, or the schema busts entries."""

    def test_same_inputs_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        _analyze(cache)
        assert cache.stats.hits.get("analysis") == 1
        assert cache.entry_count() == 1

    def test_source_edit_busts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        _analyze(cache, src=SRC.replace("a * x[i]", "a - x[i]"))
        assert cache.stats.hits == {}
        assert cache.entry_count() == 2

    def test_device_param_busts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        retimed = dataclasses.replace(
            VIRTEX7, dram=dataclasses.replace(VIRTEX7.dram, t_rcd=9))
        _analyze(cache, device=retimed)
        assert cache.stats.hits == {}
        assert cache.entry_count() == 2

    def test_input_data_busts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache, seed=3)
        _analyze(cache, seed=4)
        assert cache.stats.hits == {}

    def test_schema_version_busts(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        monkeypatch.setitem(SCHEMA_VERSIONS, "analysis",
                            SCHEMA_VERSIONS["analysis"] + 1)
        _analyze(cache)
        assert cache.stats.hits == {}
        assert cache.entry_count() == 2

    def test_hit_is_bit_identical_and_leaves_buffers_alone(self, tmp_path):
        from repro.dse.space import Design
        from repro.model import FlexCL

        cache = ArtifactCache(tmp_path)
        info_cold = _analyze(cache)
        buffers = _buffers()
        snapshot = {k: b.data.copy() for k, b in buffers.items()}
        info_warm = analyze_kernel(_fn(), buffers, {"a": 2.0, "n": 256},
                                   NDRange(256, 64), VIRTEX7,
                                   cache=cache)
        # A cache hit must not run the (buffer-mutating) profiler.
        for name, data in snapshot.items():
            np.testing.assert_array_equal(buffers[name].data, data)
        design = Design(work_group_size=64, num_pe=2)
        assert FlexCL(VIRTEX7).predict(info_cold, design).cycles == \
            FlexCL(VIRTEX7).predict(info_warm, design).cycles


class _CountingStore:
    """A dict-backed stand-in for :class:`ArtifactCache` that counts
    lookups and writes per layer."""

    def __init__(self):
        self.entries = {}
        self.gets = {}
        self.puts = {}

    def get(self, layer, key):
        self.gets[layer] = self.gets.get(layer, 0) + 1
        if (layer, key) in self.entries:
            return True, self.entries[layer, key]
        return False, None

    def put(self, layer, key, value):
        self.puts[layer] = self.puts.get(layer, 0) + 1
        self.entries[layer, key] = value


def _analyze_workload(name, cache=None):
    from repro.workloads import registry
    w = registry.get_workload(*name.split("/"))
    return analyze_kernel(w.function(), w.make_buffers(),
                          dict(w.scalars), w.ndrange(), VIRTEX7,
                          cache=cache)


class TestAnalysisKeySoundness:
    """Each analysis is keyed once, and the key covers every engine the
    kernel's traces could come from."""

    STATIC = "polybench/atax/atax"
    DYNAMIC = "rodinia/bfs/bfs_1"

    @pytest.mark.parametrize("module, name", [
        ("repro.lint.summary.engine", "SUMMARY_ENGINE_VERSION"),
        ("repro.interp.vexec", "VEXEC_ENGINE_VERSION"),
    ])
    def test_engine_version_bump_moves_every_key(self, module, name,
                                                 monkeypatch):
        import importlib
        before = {w: _analyze_workload(w).fingerprint
                  for w in (self.STATIC, self.DYNAMIC)}
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, name, getattr(owner, name) + 1)
        for w, key in before.items():
            assert _analyze_workload(w).fingerprint != key, w

    @pytest.mark.parametrize("workload", [STATIC, DYNAMIC])
    def test_one_get_and_one_put_per_analysis(self, workload):
        store = _CountingStore()
        _analyze_workload(workload, cache=store)
        assert store.gets == {"analysis": 1}
        assert store.puts == {"analysis": 1}
        _analyze_workload(workload, cache=store)
        assert store.gets == {"analysis": 2}
        assert store.puts == {"analysis": 1}

    def test_synthesis_failure_still_keys_once(self, monkeypatch):
        from repro.interp.synth import SynthesisError, TraceSynthesizer

        def refuse(self, *args, **kwargs):
            raise SynthesisError("forced")

        monkeypatch.setattr(TraceSynthesizer, "run", refuse)
        store = _CountingStore()
        info = _analyze_workload(self.STATIC, cache=store)
        assert info.trace_source == "vectorized"
        assert store.gets == {"analysis": 1}
        assert store.puts == {"analysis": 1}

    def test_vectorization_failure_still_keys_once(self, monkeypatch):
        from repro.interp import VectorizationError, VectorizedExecutor

        def refuse(self, *args, **kwargs):
            raise VectorizationError("forced")

        monkeypatch.setattr(VectorizedExecutor, "run", refuse)
        store = _CountingStore()
        info = _analyze_workload(self.DYNAMIC, cache=store)
        assert info.trace_source == "scalar"
        assert store.gets == {"analysis": 1}
        assert store.puts == {"analysis": 1}


class TestCorruptionTolerance:
    def _entry(self, cache):
        entries = list(cache.entries())
        assert entries
        return entries[0]

    def test_truncated_entry_is_a_miss_with_warning(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        info = _analyze(cache)
        path = self._entry(cache)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="unreadable entry"):
            again = _analyze(cache)
        assert again.traces.global_reads_per_wi == \
            info.traces.global_reads_per_wi
        # The bad file was discarded and replaced by the recompute.
        assert cache.stats.misses.get("analysis") == 2

    def test_garbage_entry_is_a_miss_with_warning(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        self._entry(cache).write_bytes(b"not a pickle at all")
        with pytest.warns(RuntimeWarning, match="unreadable entry"):
            _analyze(cache)

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        info = _analyze(cache)
        self._entry(cache).write_bytes(pickle.dumps({"not": "info"}))
        again = _analyze(cache)   # isinstance guard rejects it silently
        assert isinstance(again, type(info))

    def test_unwritable_layer_degrades_to_no_caching(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        # A regular file where the layer directory should go makes every
        # write fail; the store must warn and carry on, not raise.
        (tmp_path / "pe").write_text("in the way")
        with pytest.warns(RuntimeWarning, match="cannot write"):
            cache.put("pe", "aa" + "0" * 62, 1)
        assert cache.stats.puts == {}


class TestStore:
    def test_atomic_layout_and_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("analysis", "ab" + "0" * 62, {"v": 1})
        path = tmp_path / "analysis" / "ab" / ("ab" + "0" * 62 + ".pkl")
        assert path.is_file()
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.get("analysis", "ab" + "0" * 62) == (True, {"v": 1})

    def test_lru_eviction_caps_size(self, tmp_path):
        payload = b"x" * 10_000
        cache = ArtifactCache(tmp_path, max_bytes=45_000)
        for i in range(8):
            key = f"{i:02d}" + "e" * 62
            cache.put("pe", key, payload)
            os.utime(cache._entry_path("pe", key),
                     (1_000_000 + i, 1_000_000 + i))
        assert cache.size_bytes() <= 45_000
        assert cache.stats.evictions > 0
        # The newest entries survive, the oldest were evicted.
        assert cache.get("pe", "07" + "e" * 62)[0]
        assert not cache.get("pe", "00" + "e" * 62)[0]

    def test_puts_below_the_cap_do_not_walk_the_store(self, tmp_path,
                                                      monkeypatch):
        walks = []
        entries = ArtifactCache.entries

        def counting(cache):
            walks.append(1)
            return entries(cache)

        monkeypatch.setattr(ArtifactCache, "entries", counting)
        cache = ArtifactCache(tmp_path, max_bytes=512 * 1024 * 1024)
        for i in range(200):
            cache.put("pe", f"{i:064x}", b"x" * 1_000)
        assert len(walks) <= 2
        assert cache.stats.evictions == 0

    def test_two_handles_stay_near_the_cap_and_evict_oldest(self,
                                                            tmp_path):
        cap = 100_000
        handles = (ArtifactCache(tmp_path, max_bytes=cap),
                   ArtifactCache(tmp_path, max_bytes=cap))
        keys = [f"{i:02d}" + "f" * 62 for i in range(40)]
        for i, key in enumerate(keys):
            handles[i % 2].put("pe", key, b"x" * 5_000)
            os.utime(handles[0]._entry_path("pe", key),
                     (1_000_000 + i, 1_000_000 + i))
            # Each handle misses at most cap // 8 of the other's writes.
            assert handles[0].size_bytes() <= cap + 2 * (cap // 8)
        assert sum(h.stats.evictions for h in handles) > 0
        alive = [handles[0]._entry_path("pe", key).is_file()
                 for key in keys]
        # Every survivor is newer than every evicted entry.
        assert alive == sorted(alive)
        assert alive[-1] and not alive[0]

    def test_eviction_after_clear_fires_when_the_store_crosses_the_cap(
            self, tmp_path):
        cap = 1_000_000
        cache = ArtifactCache(tmp_path, max_bytes=cap)
        for i in range(50):
            cache.put("pe", f"{i:02d}" + "a" * 62, b"x" * 10_000)
        assert cache.clear() == 50
        real = 0
        for i in range(200):
            key = f"{i:03d}" + "b" * 61
            cache.put("memory", key, b"y" * 10_000)
            real += cache._entry_path("memory", key).stat().st_size
            if real > cap:
                break
            assert cache.stats.evictions == 0
        assert real > cap
        assert cache.stats.evictions == 1
        assert cache.size_bytes() <= cap

    def test_overwriting_a_key_does_not_inflate_the_total(self, tmp_path):
        payload = b"x" * 10_000
        key = "ab" + "c" * 62
        cache = ArtifactCache(tmp_path / "tight", max_bytes=25_000)
        for _ in range(100):
            cache.put("pe", key, payload)
        assert cache.stats.evictions == 0
        assert cache.entry_count() == 1
        # Below the resync threshold the running total alone tracks it.
        roomy = ArtifactCache(tmp_path / "roomy", max_bytes=10_000_000)
        for _ in range(100):
            roomy.put("pe", key, payload)
        assert roomy._size == roomy.size_bytes()

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("pe", "aa" + "0" * 62, 1)
        cache.put("memory", "bb" + "0" * 62, 2)
        assert cache.clear() == 2
        assert cache.entry_count() == 0

    def test_stats_arithmetic(self):
        a = StoreStats(hits={"pe": 3}, misses={"pe": 1}, puts={"pe": 1})
        b = StoreStats(hits={"pe": 1, "memory": 2}, misses={"memory": 4})
        total = a + b
        assert total.hits == {"pe": 4, "memory": 2}
        assert (total - b).hits == {"pe": 3, "memory": 0}
        assert total.lookups == 11
        assert 0.0 < total.hit_rate < 1.0
        assert "hits" in total.summary()

    def test_layer_counts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("pe", "aa" + "0" * 62, 1)
        cache.put("pe", "ab" + "0" * 62, 2)
        cache.put("table1", "cc" + "0" * 62, 3)
        assert cache.layer_counts() == {"pe": 2, "table1": 1}


class TestConfiguration:
    def test_env_dir_wins_and_empty_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert resolve_cache_dir() == tmp_path / "store"
        assert open_cache().root == tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert resolve_cache_dir() is None
        assert open_cache() is None

    def test_explicit_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "cli")) == \
            tmp_path / "cli"

    def test_default_dir_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        root = resolve_cache_dir()
        assert root is not None and root.name == "repro-flexcl"

    def test_disabled_flag(self):
        assert open_cache(enabled=False) is None

    def test_max_bytes_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "7")
        assert ArtifactCache(tmp_path).max_bytes == 7 * 1024 * 1024


class TestPatternTableIdentity:
    """Satellite: Table-1 memo must key on full device identity."""

    def test_same_name_different_timing_not_aliased(self):
        from repro.model.memory import pattern_table_for

        slowed = dataclasses.replace(
            VIRTEX7, dram=dataclasses.replace(VIRTEX7.dram,
                                              t_overhead=60))
        assert slowed.name == VIRTEX7.name
        base = pattern_table_for(VIRTEX7)
        slow = pattern_table_for(slowed)
        assert base.latencies != slow.latencies

    def test_same_device_still_memoised(self):
        from repro.model.memory import pattern_table_for

        assert pattern_table_for(VIRTEX7) is pattern_table_for(
            dataclasses.replace(VIRTEX7))

    def test_persistent_table_layer(self, tmp_path):
        import repro.model.memory as model_memory
        from repro.model.memory import pattern_table_for

        cache = ArtifactCache(tmp_path)
        model_memory._PATTERN_CACHE.clear()   # other tests warm it
        table = pattern_table_for(VIRTEX7, cache=cache)
        model_memory._PATTERN_CACHE.clear()
        warm = pattern_table_for(VIRTEX7, cache=cache)
        assert warm.latencies == table.latencies
        assert cache.stats.hits.get("table1") == 1


class TestMemoryModelAnnotation:
    """Satellite: pattern_counts is Optional[PatternCounts]."""

    def test_annotation(self):
        import typing

        from repro.dram.patterns import PatternCounts
        from repro.model.memory import MemoryModelResult

        hints = typing.get_type_hints(MemoryModelResult)
        assert hints["pattern_counts"] == typing.Optional[PatternCounts]
