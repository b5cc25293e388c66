"""A bounded, thread-safe LRU result cache keyed by catalog generation.

Keys are ``(generation, query fingerprint)`` pairs: the generation names
one immutable committed catalog state (every commit advances it), the
fingerprint names one query up to byte identity of its inputs.  Because
a key can only ever map to one value — the deterministic result of that
query against that state — a hit is always byte-identical to recomputing,
and invalidation reduces to dropping keys whose generation is no longer
current (:meth:`QueryResultCache.evict_stale_generations`).

Counts (``service.cache.hit`` / ``.miss`` / ``.evict``) live in the
cache's own always-on :class:`~respdi.obs.ComponentRegistry`, which
``stats`` reads and which reaches the global registry while
:mod:`respdi.obs` is enabled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple, Union

from respdi import obs
from respdi.errors import SpecificationError
from respdi.faults.plan import fault_point

#: ``(generation, fingerprint)`` — the generation component is an ``int``
#: for a single store and a tuple of ints (one per shard, the generation
#: *vector*) for a sharded one.  Both compare with ``<`` against their
#: own kind, which is all eviction needs: per-shard generations only
#: ever advance, so an older vector is lexicographically below a newer
#: one exactly as an older int is below a newer int.
Generation = Union[int, Tuple[int, ...]]
CacheKey = Tuple[Generation, str]


def normalize_generation(generation: Any) -> Generation:
    """Ints stay ints; sequences (a JSON list) become the tuple vector."""
    if isinstance(generation, (tuple, list)):
        return tuple(int(part) for part in generation)
    return int(generation)


def listed_generation(generation: Optional[Generation]) -> Any:
    """A generation as the wire and the sidecar carry it: vectors as lists."""
    return list(generation) if isinstance(generation, tuple) else generation


#: Sentinel distinguishing "no cached value" from a cached ``None``.
_ABSENT = object()


class QueryResultCache:
    """LRU over ``(generation, fingerprint) -> result``.

    ``maxsize=0`` disables the cache entirely: lookups miss, stores are
    dropped, and no counters move — the uncached path with zero
    branches at the call sites.  ``lookups`` is derived as ``hits +
    misses``, so that ledger balances by construction.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 0:
            raise SpecificationError("cache maxsize must be >= 0")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self.metrics = obs.ComponentRegistry()

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Any:
        """The cached result for *key*, or the module sentinel on a miss.

        Check with :func:`is_hit` rather than truthiness: an empty
        result list is a legitimate cached value.
        """
        if not self.enabled:
            return _ABSENT
        fault_point("service.cache.lookup", generation=key[0])
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is not _ABSENT:
                self._entries.move_to_end(key)
        self.metrics.inc(
            "service.cache.miss" if value is _ABSENT else "service.cache.hit"
        )
        return value

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert *value* under *key*, evicting LRU entries past maxsize."""
        if not self.enabled:
            return
        fault_point("service.cache.store", generation=key[0])
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.metrics.inc("service.cache.evict", evicted)

    def evict_stale_generations(self, current_generation: Generation) -> int:
        """Drop every entry keyed under a generation older than *current*.

        Called when the service observes the catalog's generation advance:
        results computed against superseded manifests can never be served
        again (lookups always key on the current generation), so keeping
        them would only displace live entries.  Returns the eviction count.
        """
        if not self.enabled:
            return 0
        with self._lock:
            stale = [
                key for key in self._entries if key[0] < current_generation
            ]
            for key in stale:
                del self._entries[key]
        if stale:
            self.metrics.inc("service.cache.evict", len(stale))
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> Tuple[CacheKey, ...]:
        """A point-in-time copy of the cached keys (for tests/stats)."""
        with self._lock:
            return tuple(self._entries)

    def stats(self) -> Dict[str, int]:
        hits = self.metrics.count("service.cache.hit")
        misses = self.metrics.count("service.cache.miss")
        return {
            "size": len(self),
            "maxsize": self.maxsize,
            "lookups": hits + misses,
            "hits": hits,
            "misses": misses,
            "evictions": self.metrics.count("service.cache.evict"),
        }


def is_hit(value: Any) -> bool:
    """True when :meth:`QueryResultCache.get` returned a cached value."""
    return value is not _ABSENT


def make_key(generation: Generation, fingerprint: str) -> CacheKey:
    """The canonical cache key for a query against one generation.

    *generation* is a plain int for a single store or a per-shard tuple
    for a sharded one (the generation vector pins one committed state
    per shard, so the full vector — not any scalar of it — names the
    catalog state a result was computed against).
    """
    return (normalize_generation(generation), fingerprint)
