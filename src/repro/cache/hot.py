"""In-process hot tier above the persistent artifact store.

The disk :class:`~repro.cache.store.ArtifactCache` makes repeated work
cheap *across* processes, but a long-running server answers thousands
of identical lookups per second, and paying a pickle load + stat dance
for each would dominate the request.  :class:`HotCache` layers a
thread-safe, in-memory LRU over an (optional) backing store:

- a **hot hit** returns the in-memory object without touching disk;
- a **hot miss** falls through to the backing store; a disk hit is
  *promoted* into the hot tier so the next lookup is memory-speed;
- ``put`` inserts into the hot tier and writes through to the store,
  so anything this process computes also warms every other process;
- the tier is capped at *max_entries* (LRU eviction — evicting a hot
  entry never loses data, the store still has it), or unbounded with
  ``max_entries=None``.

The memory key and the store key may differ: ``get_or_compute`` can
take *disk_key*, called only on a hot miss, to name the row on disk
(or return None to keep it memory-only).  That is how
:class:`~repro.model.flexcl.FlexCL` memoizes its sub-models: the
memory key pins the analysed kernel by identity, the disk key names
its content fingerprint.

Two :class:`~repro.cache.store.StoreStats` count the traffic:
``hot_stats`` the memory tier alone (a row found on disk is a hot
miss) and ``stats`` the combined view (hot OR store hit counts as a
hit), so a server's ``/metrics`` endpoint can attribute hits to memory
vs disk.

A ``HotCache`` exposes the same ``get``/``put``/``get_or_compute``/
``stats`` surface as :class:`ArtifactCache`, so it can be passed
anywhere the pipeline accepts a persistent cache (``analyze_kernel``,
:class:`~repro.model.flexcl.FlexCL`, ``run_suite`` …).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.cache.store import StoreStats

#: default hot-tier capacity (entries, not bytes: entries are small
#: analysis products and serialized responses)
DEFAULT_HOT_ENTRIES = 512

#: a lookup's store key, computed only on a hot miss (None: memory-only)
DiskKey = Optional[Callable[[], Optional[str]]]

_MISSING = object()


class HotCache:
    """An in-memory LRU tier over an optional backing store."""

    def __init__(self, store=None,
                 max_entries: Optional[int] = DEFAULT_HOT_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.store = store
        self.max_entries = max_entries
        #: combined view (hot OR store hit counts as a hit)
        self.stats = StoreStats()
        #: the memory tier alone: hits, misses and LRU evictions
        self.hot_stats = StoreStats()
        self.promotions = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[Tuple[str, Hashable], Any]" = \
            OrderedDict()

    # -- core operations ----------------------------------------------

    def get(self, layer: str, key: Hashable) -> Tuple[bool, Any]:
        """Look (*layer*, *key*) up: hot tier first, then the store."""
        found, value, _ = self._lookup(layer, key, None)
        return found, value

    def put(self, layer: str, key: Hashable, value: Any,
            write_through: bool = True) -> None:
        """Insert into the hot tier and (by default) write through to
        the store.  ``write_through=False`` keeps the entry memory-only
        — the serve daemon uses it for rendered response bytes, which
        must never outlive the process that rendered them."""
        self._put(layer, key, value, key if write_through else None)

    def get_or_compute(self, layer: str, key: Hashable,
                       compute: Callable[[], Any],
                       disk_key: DiskKey = None) -> Any:
        """The cached value, computed and put on a miss.  The store
        sees the row under ``disk_key()`` (default: *key* itself)."""
        found, value, skey = self._lookup(layer, key, disk_key)
        if found:
            return value
        value = compute()
        self._put(layer, key, value, skey)
        return value

    def _lookup(self, layer: str, key: Hashable, disk_key: DiskKey
                ) -> Tuple[bool, Any, Optional[str]]:
        """``(found, value, store key)``; the store key is resolved
        (and returned for the write-back) only on a hot miss."""
        slot = (layer, key)
        with self._lock:
            value = self._data.get(slot, _MISSING)
            if value is not _MISSING:
                if self.max_entries is not None:
                    self._data.move_to_end(slot)
                # the memo's hot loop: bump both tiers' hits inline
                hits = self.hot_stats.hits
                hits[layer] = hits.get(layer, 0) + 1
                hits = self.stats.hits
                hits[layer] = hits.get(layer, 0) + 1
                return True, value, None
            self.hot_stats._bump(self.hot_stats.misses, layer)
        skey = None
        if self.store is not None:
            skey = key if disk_key is None else disk_key()
        if skey is not None:
            found, value = self.store.get(layer, skey)
            if found:
                with self._lock:
                    self.promotions += 1
                    self.stats._bump(self.stats.hits, layer)
                    self._insert(slot, value)
                return True, value, skey
        with self._lock:
            self.stats._bump(self.stats.misses, layer)
        return False, None, skey

    def _put(self, layer: str, key: Hashable, value: Any,
             skey: Optional[str]) -> None:
        with self._lock:
            self.stats._bump(self.stats.puts, layer)
            self._insert((layer, key), value)
        if skey is not None and self.store is not None:
            self.store.put(layer, skey, value)

    # -- bookkeeping ---------------------------------------------------

    def _insert(self, slot: Tuple[str, Hashable], value: Any) -> None:
        """Insert under the caller's lock, evicting LRU past the cap."""
        self._data[slot] = value
        self._data.move_to_end(slot)
        if self.max_entries is None:
            return
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.hot_stats.evictions += 1

    def entry_count(self) -> int:
        with self._lock:
            return len(self._data)

    def __len__(self) -> int:
        return self.entry_count()

    def __contains__(self, slot: Tuple[str, Hashable]) -> bool:
        with self._lock:
            return slot in self._data

    def clear(self) -> None:
        """Drop the hot tier (the backing store is untouched)."""
        with self._lock:
            self._data.clear()

    def tier_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-tier attribution for metrics endpoints."""
        with self._lock:
            hot = {"hits": self.hot_stats.total_hits,
                   "misses": self.hot_stats.total_misses,
                   "entries": len(self._data),
                   "capacity": self.max_entries,
                   "promotions": self.promotions,
                   "evictions": self.hot_stats.evictions}
        out = {"hot": hot}
        if self.store is not None:
            out["store"] = {
                "hits": self.store.stats.total_hits,
                "misses": self.store.stats.total_misses,
            }
        return out

