"""Sub-model memoization for the FlexCL predictor.

A full design-space sweep evaluates hundreds of design points per
work-group size, but the expensive sub-models depend on only a few of
the design's parameters: the PE schedule (list scheduling + SMS) on
``(wg_size, pipelined)`` plus the DSP terms of the resource budget it
can observe (:func:`repro.model.pe.pe_memo_key`), and the memory model
(stream reconstruction, coalescing, bank classification) on
``(wg_size, pipelined, coalescing)``.  The cheap per-point sub-models
(CU, kernel, integration) are recomputed for every design.

:class:`SubModelCache` caches the expensive results per analysed
:class:`~repro.analysis.kernel_info.KernelInfo`, keyed on exactly those
parameters, and counts hits/misses per sub-model so exploration can
report its cache behaviour (surfaced in
:class:`~repro.dse.explorer.ExplorationResult`).

Entries keep a strong reference to their ``KernelInfo`` and validate it
by identity on every lookup, so a recycled ``id()`` can never alias a
dead kernel analysis to a live one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Tuple


@dataclass
class CacheStats:
    """Hit/miss counters of one memoized sweep, per sub-model."""

    pe_hits: int = 0
    pe_misses: int = 0
    memory_hits: int = 0
    memory_misses: int = 0

    @property
    def hits(self) -> int:
        return self.pe_hits + self.memory_hits

    @property
    def misses(self) -> int:
        return self.pe_misses + self.memory_misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Overall hit fraction (0.0 when nothing was looked up)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def rate(self, sub_model: str) -> float:
        """Hit fraction of one sub-model ('pe' or 'memory')."""
        hits = getattr(self, f"{sub_model}_hits")
        misses = getattr(self, f"{sub_model}_misses")
        n = hits + misses
        return hits / n if n else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            pe_hits=self.pe_hits + other.pe_hits,
            pe_misses=self.pe_misses + other.pe_misses,
            memory_hits=self.memory_hits + other.memory_hits,
            memory_misses=self.memory_misses + other.memory_misses,
        )

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            pe_hits=self.pe_hits - other.pe_hits,
            pe_misses=self.pe_misses - other.pe_misses,
            memory_hits=self.memory_hits - other.memory_hits,
            memory_misses=self.memory_misses - other.memory_misses,
        )

    def copy(self) -> "CacheStats":
        return CacheStats(self.pe_hits, self.pe_misses,
                          self.memory_hits, self.memory_misses)

    def to_dict(self) -> Dict[str, float]:
        return {
            "pe_hits": self.pe_hits, "pe_misses": self.pe_misses,
            "memory_hits": self.memory_hits,
            "memory_misses": self.memory_misses,
            "hit_rate": self.hit_rate,
            "pe_hit_rate": self.rate("pe"),
            "memory_hit_rate": self.rate("memory"),
        }

    def summary(self) -> str:
        return (f"cache: PE {self.pe_hits}/{self.pe_hits + self.pe_misses} "
                f"hits ({self.rate('pe'):.0%}), "
                f"memory {self.memory_hits}/"
                f"{self.memory_hits + self.memory_misses} "
                f"hits ({self.rate('memory'):.0%})")


class SubModelCache:
    """Per-``KernelInfo`` memo tables for the expensive sub-models.

    With a persistent *store* (:class:`repro.cache.ArtifactCache`), rows
    are spilled to disk keyed on the kernel's content fingerprint plus
    *salt* (the model context: device identity and ablation switches):
    an in-memory miss first consults the store, and computed rows are
    written through, so a later process warm-starts its sweep.  Kernels
    analysed without a fingerprint simply skip the persistent layer.
    """

    def __init__(self, store=None, salt: str = "") -> None:
        self.stats = CacheStats()
        self._store = store
        self._salt = salt
        #: guards the memo tables and stats counters — one FlexCL
        #: instance may serve concurrent threads (serve worker pool),
        #: and unguarded `count += 1` bumps lose increments.  Compute
        #: runs *outside* the lock (a duplicate compute is harmless,
        #: results are pure), so throughput is unaffected.
        self._lock = threading.Lock()
        #: id(info) -> (info, {key: result}); the stored info reference
        #: pins the id so identity validation is exact.
        self._tables: Dict[int, Tuple[object, Dict[tuple, object]]] = {}

    def _table(self, info) -> Dict[tuple, object]:
        entry = self._tables.get(id(info))
        if entry is None or entry[0] is not info:
            entry = (info, {})
            self._tables[id(info)] = entry
        return entry[1]

    def get(self, sub_model: str, info, key: tuple,
            compute: Callable[[], object]):
        """Return the cached *sub_model* result for (*info*, *key*),
        computing and storing it on a miss."""
        full_key = (sub_model,) + key
        with self._lock:
            table = self._table(info)
            if full_key in table:
                setattr(self.stats, f"{sub_model}_hits",
                        getattr(self.stats, f"{sub_model}_hits") + 1)
                return table[full_key]
            setattr(self.stats, f"{sub_model}_misses",
                    getattr(self.stats, f"{sub_model}_misses") + 1)
        skey = None
        if self._store is not None \
                and getattr(info, "fingerprint", None):
            from repro.cache import submodel_key
            skey = submodel_key(sub_model, info.fingerprint,
                                self._salt, key)
            found, value = self._store.get(sub_model, skey)
            if found:
                with self._lock:
                    self._table(info)[full_key] = value
                return value
        result = compute()
        if skey is not None:
            self._store.put(sub_model, skey, result)
        with self._lock:
            self._table(info)[full_key] = result
        return result

    def clear(self) -> None:
        """Drop every memoized result (stats are kept)."""
        with self._lock:
            self._tables.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(t) for _, t in self._tables.values())
