"""The sub-model memo's counter type, under its historical name.

:class:`~repro.model.flexcl.FlexCL` memoizes its PE and memory rows
through a :class:`~repro.cache.hot.HotCache`, whose per-layer
:class:`~repro.cache.store.StoreStats` it reports as ``cache_stats``.
"""

from repro.cache.store import StoreStats

# The repository benchmark (perfbench/runners.py) imports this name and
# is not edited alongside the library, so it stays bound here.
CacheStats = StoreStats
