"""Machine-readable cache reports.

One formatter serves every consumer: ``repro cache stats --json`` on
the CLI, the serve daemon's ``/metrics`` endpoint, and CI scripts that
want entry counts without scraping human-oriented text.
"""

from __future__ import annotations

from typing import Dict, Optional


def cache_payload(cache) -> Optional[Dict[str, object]]:
    """The canonical JSON-able description of one
    :class:`~repro.cache.store.ArtifactCache` (None stays None, so
    callers can embed a disabled cache directly)."""
    if cache is None:
        return None
    counts, size = cache.usage()
    return {
        "root": str(cache.root),
        "entries": sum(counts.values()),
        "layers": {layer: counts[layer] for layer in sorted(counts)},
        "size_bytes": size,
        "max_bytes": cache.max_bytes,
        "stats": cache.stats.to_dict(),
    }


def hot_cache_payload(hot) -> Optional[Dict[str, object]]:
    """The JSON-able description of a two-tier
    :class:`~repro.cache.hot.HotCache`: per-tier counters plus the
    backing store's :func:`cache_payload`."""
    if hot is None:
        return None
    tiers = hot.tier_counters()
    return {
        "tiers": tiers,
        "combined_stats": hot.stats.to_dict(),
        "store": cache_payload(hot.store),
    }
