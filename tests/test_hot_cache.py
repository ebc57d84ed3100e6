"""The two-tier hot cache and the stores' thread-safety guarantees."""

import threading

import pytest

from repro.cache import (
    ArtifactCache,
    HotCache,
    StoreStats,
    hot_cache_payload,
)
from repro.cache.report import cache_payload


@pytest.fixture
def store(tmp_path):
    return ArtifactCache(tmp_path / "store")


class TestHotTier:
    def test_hot_hit_after_put(self, store):
        hot = HotCache(store=store)
        hot.put("layer", "k1", {"v": 1})
        found, value = hot.get("layer", "k1")
        assert found and value == {"v": 1}
        assert hot.hot_stats.hits == {"layer": 1}
        assert hot.hot_stats.total_misses == 0

    def test_write_through_warms_the_store(self, store):
        hot = HotCache(store=store)
        hot.put("layer", "k1", 42)
        found, value = store.get("layer", "k1")
        assert found and value == 42

    def test_memory_only_put_skips_the_store(self, store):
        hot = HotCache(store=store)
        hot.put("response", "k1", b"body", write_through=False)
        assert hot.get("response", "k1") == (True, b"body")
        assert store.get("response", "k1") == (False, None)

    def test_disk_hit_is_promoted(self, store):
        store.put("layer", "k1", "cold")
        hot = HotCache(store=store)
        assert hot.get("layer", "k1") == (True, "cold")
        assert hot.promotions == 1
        # second lookup is served from memory
        assert hot.get("layer", "k1") == (True, "cold")
        assert hot.hot_stats.hits == {"layer": 1}

    def test_eviction_respects_cap(self, store):
        hot = HotCache(store=store, max_entries=3)
        for i in range(10):
            hot.put("layer", f"k{i}", i)
        assert hot.entry_count() == 3
        assert hot.hot_stats.evictions == 7
        # LRU: the three most recent survive
        for i in (7, 8, 9):
            assert ("layer", f"k{i}") in hot
        # evicted entries are still on disk (eviction never loses data)
        assert store.get("layer", "k0") == (True, 0)

    def test_lru_order_follows_access(self, store):
        hot = HotCache(store=None, max_entries=2)
        hot.put("l", "a", 1)
        hot.put("l", "b", 2)
        hot.get("l", "a")          # refresh a; b is now LRU
        hot.put("l", "c", 3)
        assert ("l", "a") in hot
        assert ("l", "b") not in hot

    def test_storeless_hot_cache(self):
        hot = HotCache(store=None)
        assert hot.get("l", "k") == (False, None)
        hot.put("l", "k", 1)
        assert hot.get("l", "k") == (True, 1)

    def test_get_or_compute(self, store):
        hot = HotCache(store=store)
        calls = []

        def compute():
            calls.append(1)
            return "x"

        assert hot.get_or_compute("l", "k", compute) == "x"
        assert hot.get_or_compute("l", "k", compute) == "x"
        assert len(calls) == 1

    def test_tier_counters_shape(self, store):
        hot = HotCache(store=store, max_entries=8)
        hot.put("l", "k", 1)
        hot.get("l", "k")
        hot.get("l", "missing")
        tiers = hot.tier_counters()
        assert tiers["hot"]["hits"] == 1
        assert tiers["hot"]["capacity"] == 8
        assert tiers["store"]["misses"] >= 1

    def test_disk_key_is_separate_and_lazy(self, store):
        calls = []

        def disk_key():
            calls.append(1)
            return "on-disk"

        hot = HotCache(store=store, max_entries=None)
        assert hot.get_or_compute("l", ("mem", 1), lambda: 7,
                                  disk_key) == 7
        assert store.get("l", "on-disk") == (True, 7)
        assert hot.get_or_compute("l", ("mem", 1), lambda: 8,
                                  disk_key) == 7
        assert len(calls) == 1             # not derived on a hot hit
        # a fresh tier finds the row on disk: a hot miss, a store hit
        fresh = HotCache(store=store)
        assert fresh.get_or_compute("l", ("other",), lambda: 8,
                                    disk_key) == 7
        assert fresh.hot_stats.misses == {"l": 1}
        assert fresh.stats.hits == {"l": 1}

    def test_disk_key_none_stays_in_memory(self, store):
        hot = HotCache(store=store)
        hot.get_or_compute("l", ("mem",), lambda: 1, lambda: None)
        assert store.stats.lookups == 0 and store.entry_count() == 0
        assert hot.get("l", ("mem",)) == (True, 1)

    def test_combined_stats_are_storestats_compatible(self, store):
        hot = HotCache(store=store)
        hot.put("l", "k", 1)
        hot.get("l", "k")
        before = hot.stats.copy()
        hot.get("l", "k")
        delta = hot.stats - before
        assert delta.total_hits == 1


class TestReportFormatter:
    def test_cache_payload_shape(self, store):
        store.put("pe", "aa" * 32, [1, 2])
        payload = cache_payload(store)
        assert payload["entries"] == 1
        assert payload["layers"] == {"pe": 1}
        assert payload["stats"]["puts"] == {"pe": 1}
        assert payload["root"].endswith("store")

    def test_none_cache_stays_none(self):
        assert cache_payload(None) is None
        assert hot_cache_payload(None) is None

    def test_hot_payload_nests_store(self, store):
        hot = HotCache(store=store)
        hot.put("l", "ab12cd34", 1)
        payload = hot_cache_payload(hot)
        assert payload["tiers"]["hot"]["entries"] == 1
        assert payload["store"]["entries"] == 1


class TestThreadSafety:
    def test_concurrent_store_traffic_keeps_counts_exact(self, store):
        """8 threads × 50 ops: with unguarded `n += 1` bumps some
        increments are lost; the lock makes totals exact, merged
        counter deltas included."""
        threads = []

        def worker(tid):
            for i in range(50):
                store.put("l", f"{tid}-{i}", i)
                store.get("l", f"{tid}-{i}")
                store.get("l", f"missing-{tid}-{i}")
                # a forked serve worker's counters, merged back
                store.absorb(StoreStats(hits={"w": 1}))

        for tid in range(8):
            threads.append(threading.Thread(target=worker,
                                            args=(tid,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.stats.puts["l"] == 400
        assert store.stats.hits["l"] == 400
        assert store.stats.misses["l"] == 400
        assert store.stats.hits["w"] == 400

    def test_concurrent_hot_traffic(self, store):
        hot = HotCache(store=store, max_entries=64)
        errors = []

        def worker(tid):
            try:
                for i in range(100):
                    hot.put("l", f"{tid}-{i % 8}", i)
                    hot.get("l", f"{tid}-{i % 8}")
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert hot.hot_stats.total_hits + hot.promotions \
            + hot.stats.total_misses == 800

    def test_submodel_cache_concurrent_counts(self):
        """The sub-model memo's shape: an unbounded, store-less tier
        keyed on tuples, hammered by 8 threads."""
        cache = HotCache(max_entries=None)
        pin = object()

        def worker():
            for i in range(100):
                cache.get_or_compute("pe", (pin, i % 4), lambda: i)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hot_stats.hits["pe"] \
            + cache.hot_stats.misses["pe"] == 800
        # every key is cached exactly once
        assert len(cache) == 4
