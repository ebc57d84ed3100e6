"""The persistent artifact store behind :mod:`repro.cache`.

An :class:`ArtifactCache` is a content-addressed pickle store on disk:
``<root>/<layer>/<key[:2]>/<key>.pkl``.  It is deliberately boring —
the guarantees are what matter:

- **atomic writes**: entries are written to a temp file in the target
  directory and ``os.replace``d into place, so concurrent writers
  (forked suite workers, parallel CI shards) can never expose a
  half-written entry;
- **corruption tolerance**: an unreadable, truncated, or
  garbage entry is a *miss* (with a one-line warning), never an
  exception — the bad file is discarded and recomputed;
- **bounded size**: an LRU cap (default 512 MiB, ``REPRO_CACHE_MAX_MB``)
  evicts least-recently-used entries after writes; hits refresh an
  entry's timestamp.  Each handle keeps a running byte total of the
  store, seeded by one walk at its first put and updated on every put
  and eviction, so a put below the cap stats nothing beyond its own
  target.  The handle walks the store again only when its total
  exceeds the cap or when it has itself written more than an eighth
  of the cap since its last walk; the walk resets the total from disk
  and evicts.  Other writers on the same root (forked suite workers,
  daemon pool workers) are invisible to a handle between walks, so
  the store can overshoot the cap by at most an eighth of it per
  writing handle;
- **observable**: per-layer hit/miss/put/eviction counters
  (:class:`StoreStats`) that the CLI surfaces and the explorer
  aggregates across workers.

Configuration: ``REPRO_CACHE_DIR`` names the root (default
``~/.cache/repro-flexcl``); setting it to the empty string disables
persistent caching entirely, as does ``--no-cache`` on the CLI.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

#: default cache root, under the user's cache directory
DEFAULT_CACHE_DIR = "~/.cache/repro-flexcl"
#: default LRU size cap in MiB (``REPRO_CACHE_MAX_MB`` overrides)
DEFAULT_MAX_MB = 512
#: a handle re-walks the store once it has written more than
#: ``max_bytes // _RESYNC_FRACTION`` bytes since its last walk, which
#: bounds how far unseen writes by other handles can push the store
#: past its cap
_RESYNC_FRACTION = 8


@dataclass
class StoreStats:
    """Per-layer hit/miss/put counters plus evictions of one cache tier.

    The one counter type of the project: the disk store, both tiers of
    a :class:`~repro.cache.hot.HotCache` (and so the FlexCL sub-model
    memo), the explorer and the suite all report in it.
    """

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    puts: Dict[str, int] = field(default_factory=dict)
    evictions: int = 0

    def _bump(self, table: Dict[str, int], layer: str, n: int = 1) -> None:
        table[layer] = table.get(layer, 0) + n

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def lookups(self) -> int:
        return self.total_hits + self.total_misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.total_hits / n if n else 0.0

    def copy(self) -> "StoreStats":
        return StoreStats(hits=dict(self.hits), misses=dict(self.misses),
                          puts=dict(self.puts), evictions=self.evictions)

    def _merge(self, other: "StoreStats", sign: int) -> "StoreStats":
        for mine, theirs in ((self.hits, other.hits),
                             (self.misses, other.misses),
                             (self.puts, other.puts)):
            for layer, n in theirs.items():
                self._bump(mine, layer, sign * n)
        self.evictions += sign * other.evictions
        return self

    def __iadd__(self, other: "StoreStats") -> "StoreStats":
        return self._merge(other, 1)

    def __add__(self, other: "StoreStats") -> "StoreStats":
        return self.copy()._merge(other, 1)

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        return self.copy()._merge(other, -1)

    def to_dict(self) -> Dict[str, object]:
        return {"hits": dict(self.hits), "misses": dict(self.misses),
                "puts": dict(self.puts), "evictions": self.evictions,
                "hit_rate": self.hit_rate}

    def summary(self, label: str = "disk cache") -> str:
        layers = sorted(set(self.hits) | set(self.misses))
        per_layer = ", ".join(
            f"{layer} {self.hits.get(layer, 0)}/"
            f"{self.hits.get(layer, 0) + self.misses.get(layer, 0)}"
            for layer in layers) or "no lookups"
        return (f"{label}: {self.total_hits}/{self.lookups} hits "
                f"({self.hit_rate:.0%}) [{per_layer}]")


class ArtifactCache:
    """Content-addressed persistent cache (see module docstring).

    Instances are safe to share between threads (the serve daemon's
    worker pool reads and writes one store concurrently): the stats
    counters and the eviction scan are guarded by a lock.  File
    operations themselves were already concurrency-safe — atomic
    ``os.replace`` writes and miss-on-unreadable reads — so the lock
    only serialises the in-process bookkeeping.

    The running byte total (see the module docstring) is deliberately
    allowed to run high — a corrupt entry dropped by :meth:`get`, an
    entry evicted by another handle — because a high total only
    brings the next walk forward.
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root).expanduser()
        if max_bytes is None:
            max_bytes = _env_max_bytes()
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        self._lock = threading.Lock()
        #: running byte total of the store; None until the first put
        #: seeds it, so read-only handles never walk the store
        self._size: Optional[int] = None
        #: bytes this handle has written since its last walk
        self._written = 0

    # -- paths ---------------------------------------------------------

    def _entry_path(self, layer: str, key: str) -> Path:
        return self.root / layer / key[:2] / f"{key}.pkl"

    # -- core operations ----------------------------------------------

    def get(self, layer: str, key: str) -> Tuple[bool, Any]:
        """Look *key* up in *layer*: ``(True, value)`` on a hit,
        ``(False, None)`` on a miss.  Never raises on bad entries."""
        path = self._entry_path(layer, key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.stats._bump(self.stats.misses, layer)
            return False, None
        except Exception as exc:
            # Truncated/garbage/unpicklable entry: warn, drop, miss.
            warnings.warn(
                f"repro.cache: discarding unreadable entry "
                f"{path.name} in layer {layer!r} "
                f"({type(exc).__name__}: {exc})",
                RuntimeWarning, stacklevel=2)
            self._discard(path)
            with self._lock:
                self.stats._bump(self.stats.misses, layer)
            return False, None
        with self._lock:
            self.stats._bump(self.stats.hits, layer)
        self._touch(path)
        return True, value

    def put(self, layer: str, key: str, value: Any) -> None:
        """Store *value* under (*layer*, *key*) atomically."""
        path = self._entry_path(layer, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                    size = fh.tell()
                try:
                    replaced = path.stat().st_size
                except OSError:
                    replaced = 0
                os.replace(tmp, path)
            except BaseException:
                self._discard(Path(tmp))
                raise
        except OSError as exc:
            # A read-only or full cache dir degrades to "no caching",
            # it never takes the computation down with it.
            warnings.warn(f"repro.cache: cannot write {path} "
                          f"({exc})", RuntimeWarning, stacklevel=2)
            return
        with self._lock:
            self.stats._bump(self.stats.puts, layer)
            if self._size is not None:
                self._size += size - replaced
            self._written += size
        self._maybe_evict()

    def absorb(self, delta: StoreStats) -> None:
        """Add counters gathered by another handle on the same store
        (a forked worker's) to this handle's :attr:`stats`."""
        with self._lock:
            self.stats += delta

    def get_or_compute(self, layer: str, key: str,
                       compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss."""
        found, value = self.get(layer, key)
        if found:
            return value
        value = compute()
        self.put(layer, key, value)
        return value

    # -- maintenance ---------------------------------------------------

    def entries(self):
        """Every entry file currently in the store."""
        if not self.root.is_dir():
            return
        yield from self.root.glob("*/??/*.pkl")

    def _walk(self):
        """``(path, stat)`` of every entry still on disk: the one walk
        that sizes, counts and evicts."""
        for path in self.entries():
            try:
                yield path, path.stat()
            except OSError:
                continue

    def entry_count(self) -> int:
        return sum(1 for _ in self.entries())

    def usage(self) -> Tuple[Dict[str, int], int]:
        """Per-layer entry counts and total bytes, from one walk."""
        counts: Dict[str, int] = {}
        total = 0
        for path, st in self._walk():
            layer = path.parent.parent.name
            counts[layer] = counts.get(layer, 0) + 1
            total += st.st_size
        return counts, total

    def size_bytes(self) -> int:
        return self.usage()[1]

    def layer_counts(self) -> Dict[str, int]:
        return self.usage()[0]

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entries()):
            if self._discard(path):
                removed += 1
        with self._lock:
            self._size = 0
        return removed

    def _maybe_evict(self) -> None:
        """Walk the store and evict least-recently-used entries while
        over the size cap — but only when the running total is unseeded
        or over the cap, or this handle's own writes since the last
        walk exceed ``max_bytes // _RESYNC_FRACTION``.

        The whole scan-and-discard runs under the lock: two concurrent
        writers must not race the same LRU scan (each would discard the
        other's survivors and double-count evictions).
        """
        if self.max_bytes <= 0:
            return
        with self._lock:
            if (self._size is not None and self._size <= self.max_bytes
                    and self._written <= self.max_bytes // _RESYNC_FRACTION):
                return
            entries = [(st.st_mtime, st.st_size, path)
                       for path, st in self._walk()]
            total = sum(size for _, size, _ in entries)
            for _, size, path in sorted(entries):
                if total <= self.max_bytes:
                    break
                if self._discard(path):
                    total -= size
                    self.stats.evictions += 1
            self._size = total
            self._written = 0

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass

    @staticmethod
    def _discard(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False


def _env_max_bytes() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_MB", "")
    try:
        mb = int(raw) if raw else DEFAULT_MAX_MB
    except ValueError:
        mb = DEFAULT_MAX_MB
    return mb * 1024 * 1024


def resolve_cache_dir(cache_dir: Optional[str] = None) -> Optional[Path]:
    """The effective cache root: an explicit *cache_dir* wins, then
    ``REPRO_CACHE_DIR`` (empty string = disabled), then the default.
    Returns None when persistent caching is disabled."""
    if cache_dir is not None:
        return Path(cache_dir).expanduser() if cache_dir else None
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return Path(env).expanduser() if env else None
    return Path(DEFAULT_CACHE_DIR).expanduser()


def open_cache(cache_dir: Optional[str] = None,
               enabled: bool = True) -> Optional[ArtifactCache]:
    """The standard way to obtain the configured cache (or None when
    disabled via *enabled*, ``--no-cache``, or ``REPRO_CACHE_DIR=``)."""
    if not enabled:
        return None
    root = resolve_cache_dir(cache_dir)
    if root is None:
        return None
    return ArtifactCache(root)
