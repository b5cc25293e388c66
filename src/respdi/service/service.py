"""The read path: snapshots, shard vectors, and the one query service.

:class:`CatalogStore` gives writers an atomic commit protocol; this
module gives *readers* the complementary guarantee.  A
:class:`Snapshot` pins one committed manifest generation and eagerly
rehydrates every artifact it references, so the handle keeps answering
queries against exactly that ensemble/entry set even while a concurrent
writer commits refresh after refresh.  Pinning is an optimistic-read
loop: entry files are immutable once committed (their directory names
embed the content fingerprint) and every read re-verifies its manifest
checksum, so a pin either captures one internally consistent generation
or observes a mid-commit garbage collection as a checksum/missing-file
error and retries against the newer manifest — a torn snapshot is
unrepresentable.

:class:`QueryService` serves any catalog the same way.  It pins one
snapshot per shard into a :class:`ShardVector` (a plain store is its own
single shard), fans each query across the shards and merges the ranked
partials with :func:`merge_ranked`.  Around that it adds:

* automatic re-pinning — a cheap ``stat`` of each shard's
  ``MANIFEST.json`` detects a new commit; only then is the vector
  re-pinned (``service.snapshot.pinned`` counts shard pins);
* a bounded LRU result cache keyed by ``(generation, fingerprint)``
  (:mod:`respdi.service.cache`), invalidated by construction when the
  generation advances (stale generations are evicted on re-pin);
* ``query_many`` — a batch API that pins one vector for the whole batch
  and fans the queries out over :mod:`respdi.parallel`.

The only layout decision on the read path is the generation's shape: a
plain ``int`` for a directory without ``SHARDS.json``, the per-shard
tuple for one with it (any shard count, 1 included).  Response lines,
``reload``/``stats`` fields, cache keys and persistent-cache filenames
therefore keep their bytes for every existing catalog and sidecar.

**Scatter-gathered results are byte-identical to one unsharded index
over the same tables** (``tests/test_sharded_differential.py``).  Each
query kind earns that differently:

* *keyword* — TF-IDF scores depend on corpus-global document
  frequencies, so per-shard :class:`~respdi.discovery.keyword.CorpusStats`
  are merged at pin time and broadcast back; every shard scores its own
  documents under global IDF, making shard-local top-k lists globally
  comparable.
* *containment* — the LSH Ensemble's cardinality partitioning is a pure,
  insertion-order-free function of ``{domain: cardinality}``
  (:func:`~respdi.discovery.lshensemble.partition_max_map`), so the
  vector recomputes the exact **global** layout from per-shard
  signatures and each shard scores locally under it
  (:func:`~respdi.discovery.lshensemble.scatter_containment_hits`).
* *join* and *union* — per-candidate scores are shard-local facts
  (exact overlap; query-vs-candidate alignment), so partials are exact
  as-is.
* *match* — a pure function of the request's own table; no shard is
  consulted.

In every kind the rank key is a **total** order (score, then name), so
the global top-k is contained in the union of per-shard top-k lists and
:func:`merge_ranked` — a plain sort of the concatenated partials —
reproduces the unsharded ranking no matter which shard answered first.
``shard.gather`` fires before each merge; killing there is read-only by
construction, which the sharded crash matrix verifies.  Cached results
are the very objects the uncached path computed, so cached and uncached
answers are byte-identical too.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from respdi import obs
from respdi.catalog.sharding import ShardedCatalogStore, open_catalog
from respdi.catalog.store import CatalogStore, read_manifest
from respdi.discovery.keyword import CorpusStats
from respdi.discovery.lake_index import DataLakeIndex
from respdi.discovery.lshensemble import (
    partition_max_map,
    scatter_containment_hits,
)
from respdi.errors import (
    CatalogCorruptError,
    EmptyInputError,
    RespdiError,
    SnapshotContentionError,
    SpecificationError,
)
from respdi.faults.plan import fault_point
from respdi.parallel import ExecutionContext, map_chunked
from respdi.service.cache import Generation, QueryResultCache, is_hit, listed_generation, make_key
from respdi.service.queries import Query
from respdi.table import Table

PathLike = Union[str, Path]

#: ``(st_mtime_ns, st_size, st_ino)`` of MANIFEST.json — changes iff a
#: writer committed (the manifest is only ever replaced by rename).
_ManifestToken = Tuple[int, int, int]


def _manifest_token(directory: Path) -> Optional[_ManifestToken]:
    try:
        stat = os.stat(directory / "MANIFEST.json")
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size, stat.st_ino)


class Snapshot:
    """A pinned, fully-rehydrated view of one catalog generation.

    Immutable once constructed: the index, manifest, and generation
    never change, whatever writers do to the directory afterwards.
    Concurrent reads through one snapshot are safe — queries only read
    the rehydrated artifacts (the lazily-built containment ensemble is
    assigned atomically and is deterministic, so a benign double build
    cannot change results).
    """

    __slots__ = ("generation", "manifest", "index", "names")

    def __init__(
        self, generation: int, manifest: dict, index: DataLakeIndex
    ) -> None:
        self.generation = generation
        self.manifest = manifest
        self.index = index
        self.names: Tuple[str, ...] = tuple(manifest["entries"])

    def entry_fingerprints(self) -> Dict[str, str]:
        """``{table name: content fingerprint}`` at this generation."""
        return {
            name: record["fingerprint"]
            for name, record in self.manifest["entries"].items()
        }

    def query(self, query: Query) -> Any:
        """Run *query* against this pinned generation (never cached)."""
        return query.run(self.index)


def pin_snapshot(
    store: CatalogStore, max_retries: int = 16
) -> Snapshot:
    """Pin the latest committed generation of *store* as a :class:`Snapshot`.

    Reads the manifest, then eagerly loads every referenced artifact
    through the store's checksum gate.  A concurrent writer that commits
    (and garbage-collects superseded entry files) mid-load surfaces as
    :class:`CatalogCorruptError`; the loop then restarts from the fresh
    manifest.  *max_retries* bounds the loop — exhausting it raises
    :class:`SnapshotContentionError`, never a half-loaded snapshot.
    """
    last_error: Optional[CatalogCorruptError] = None
    for _ in range(max_retries):
        manifest = read_manifest(store.directory)
        fault_point(
            "service.snapshot.pin",
            generation=int(manifest.get("ensemble_generation", 0)),
        )
        reader = store.at_manifest(manifest)
        try:
            index = reader.index()
        except CatalogCorruptError as exc:
            # A writer's commit+GC raced our reads: the manifest we hold
            # references files that were replaced underneath us.  The
            # *new* manifest is complete on disk — retry against it.
            last_error = exc
            continue
        obs.inc("service.snapshot.pinned")
        return Snapshot(reader.generation, manifest, index)
    raise SnapshotContentionError(
        f"could not pin a consistent snapshot of {store.directory} in "
        f"{max_retries} attempts (last error: {last_error})"
    )


#: Rank keys per query kind — total orders (score, then name parts), the
#: same keys the unsharded sub-indexes sort by.  Totality is what makes
#: :func:`merge_ranked` independent of shard completion order: no two
#: distinct results can compare equal (names are unique across shards).
RANK_KEYS: Dict[str, Callable[[Any], Tuple]] = {
    "keyword": lambda hit: (-hit.score, hit.table_name),
    "union": lambda cand: (-cand.score, cand.table_name),
    "join": lambda cand: (-cand.overlap, cand.table_name, cand.column_name),
    "containment": lambda item: (-item[1], repr(item[0])),
}


def merge_ranked(
    partials: Sequence[Sequence[Any]],
    kind: str,
    k: Optional[int] = None,
) -> List[Any]:
    """Merge per-shard ranked partials into one global ranking.

    A plain total-order sort of the concatenation: because each partial
    is its shard's top-*k* under the same key, the merged prefix equals
    the unsharded top-*k*.  Pure and order-insensitive by construction —
    the property test feeds it the same partials in every permutation.
    """
    merged = [item for partial in partials for item in partial]
    merged.sort(key=RANK_KEYS[kind])
    return merged if k is None else merged[:k]


class ShardVector:
    """One pinned :class:`Snapshot` per shard plus the merged query state.

    The vector of shard generations names one committed state per shard
    (the cache key component); *sharded* picks its shape — the tuple
    itself, or the lone shard's int for a plain store.  The cross-shard
    state every scatter needs — merged corpus statistics for keyword
    IDF, the global containment partition layout — is computed once
    here, at pin time, from the pinned snapshots only, so queries
    against one vector are mutually consistent even while writers
    commit on any shard.
    """

    __slots__ = (
        "snapshots",
        "generation",
        "names",
        "corpus_stats",
        "partition_max",
    )

    def __init__(self, snapshots: Sequence[Snapshot], sharded: bool) -> None:
        self.snapshots: Tuple[Snapshot, ...] = tuple(snapshots)
        generations = tuple(int(s.generation) for s in self.snapshots)
        self.generation: Generation = (
            generations if sharded else generations[0]
        )
        self.names: Tuple[str, ...] = tuple(
            name for snapshot in self.snapshots for name in snapshot.names
        )
        self.corpus_stats = CorpusStats.merge(
            [
                snapshot.index.keyword.corpus_stats()
                for snapshot in self.snapshots
            ]
        )
        cardinalities = {
            key: signature.cardinality
            for snapshot in self.snapshots
            for key, signature in snapshot.index.domain_signatures.items()
        }
        self.partition_max = (
            partition_max_map(
                cardinalities, self.snapshots[0].index.num_partitions
            )
            if cardinalities
            else {}
        )

    def entry_fingerprints(self) -> Dict[str, str]:
        """``{table name: content fingerprint}`` across all shards."""
        merged: Dict[str, str] = {}
        for snapshot in self.snapshots:
            merged.update(snapshot.entry_fingerprints())
        return merged

    def table(self, name: str) -> Table:
        """The stored data of *name*, read from the shard that holds it."""
        for snapshot in self.snapshots:
            if name in snapshot.manifest["entries"]:
                return snapshot.index.tables[name]
        raise KeyError(name)

    def query(
        self, query: Query, context: Optional[ExecutionContext] = None
    ) -> Any:
        """Scatter *query* over the shards and merge (never cached)."""
        if query.kind == "match":
            return query.run(None)
        eligible = _eligible_snapshots(query, self)
        if query.kind == "containment" and not set(query.values):
            # Match the unsharded path: signing an empty query set fails
            # before any shard work is scheduled.
            raise EmptyInputError("cannot sign an empty set")
        partials = map_chunked(
            _ShardScatterTask(query, self),
            eligible,
            context=context,
            label="service.scatter",
        )
        fault_point("shard.gather", kind=query.kind, shards=len(eligible))
        return merge_ranked(partials, query.kind, getattr(query, "k", None))


class _ShardScatterTask:
    """Run one query's shard-local partial (threads-backend task)."""

    __slots__ = ("query", "vector")

    def __init__(self, query: Query, vector: ShardVector):
        self.query = query
        self.vector = vector

    def __call__(self, snapshot: Snapshot) -> List[Any]:
        query, vector = self.query, self.vector
        if query.kind == "keyword":
            return snapshot.index.keyword.search(
                query.text, k=query.k, stats=vector.corpus_stats
            )
        if query.kind == "union":
            return snapshot.index.unionable_tables(query.table, k=query.k)
        if query.kind == "join":
            return snapshot.index.joinable_columns(
                list(query.values), k=query.k, min_overlap=query.min_overlap
            )
        if query.kind == "containment":
            # The query signature is signed per shard with the shard's
            # own hasher object: every shard's hasher is the same hash
            # family (fingerprint-pinned in SHARDS.json), so the bytes
            # are identical, while the per-object hasher_id keeps the
            # in-memory mixed-hasher guard intact.
            query_signature = snapshot.index.hasher.signature(
                list(query.values)
            )
            return scatter_containment_hits(
                snapshot.index.domain_signatures,
                query_signature,
                query.threshold,
                vector.partition_max,
                query_signature.values.shape[0],
            )
        raise SpecificationError(f"unsupported query kind {query.kind!r}")


def _eligible_snapshots(query: Query, vector: ShardVector) -> List[Snapshot]:
    """The shards that participate in *query*, after global validation.

    Validation mirrors the unsharded sub-indexes' checks — same
    exception types, same messages, same order — but over the union of
    shards, so an all-empty sharded catalog fails exactly like an empty
    unsharded one while a merely *partially* empty one skips its empty
    shards (which contribute nothing to any ranking).
    """
    if query.kind in ("keyword", "union"):
        if query.k < 1:
            raise SpecificationError("k must be >= 1")
        eligible = [s for s in vector.snapshots if s.names]
        if not eligible:
            raise EmptyInputError("no tables indexed")
        return eligible
    if query.kind == "join":
        if query.k < 1:
            raise SpecificationError("k must be >= 1")
        if query.min_overlap < 1:
            raise SpecificationError("min_overlap must be >= 1")
        if not set(query.values):
            raise EmptyInputError("query value set is empty")
        eligible = [
            s for s in vector.snapshots if s.index.joinability.num_columns
        ]
        if not eligible:
            raise EmptyInputError("no columns indexed")
        return eligible
    if query.kind == "containment":
        if query.k is not None and query.k < 1:
            raise SpecificationError("k must be >= 1")
        eligible = [s for s in vector.snapshots if s.index.domain_signatures]
        if not eligible:
            raise EmptyInputError("no tables registered")
        return eligible
    raise SpecificationError(f"unsupported query kind {query.kind!r}")


class _BatchQueryTask:
    """Run one query of a ``query_many`` batch (threads-backend task)."""

    __slots__ = ("service", "vector", "cached")

    def __init__(
        self, service: "QueryService", vector: ShardVector, cached: bool
    ) -> None:
        self.service = service
        self.vector = vector
        self.cached = cached

    def __call__(self, query: Query) -> Any:
        return self.service._query_at(query, self.vector, self.cached)


class QueryService:
    """A long-lived, cache-accelerated front-end over one catalog.

    One service object serves many queries (and many threads): it opens
    the catalog once — plain or sharded, through
    :func:`~respdi.catalog.sharding.open_catalog` — pins a
    :class:`ShardVector` lazily, re-pins only when a commit moves some
    shard's manifest, and memoizes results per generation.  The unit of
    isolation is the vector — every individual query runs against
    exactly one generation per shard, and :meth:`query_many` runs its
    whole batch against one vector.
    """

    def __init__(
        self,
        store: Union[CatalogStore, ShardedCatalogStore, PathLike],
        cache_size: int = 256,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
        max_pin_retries: int = 16,
    ) -> None:
        if not isinstance(store, (CatalogStore, ShardedCatalogStore)):
            store = open_catalog(store)
        self.store = store
        #: True iff the catalog has a ``SHARDS.json``: generations are
        #: then per-shard tuples (lists on the wire), else plain ints.
        self.sharded = isinstance(store, ShardedCatalogStore)
        self.cache = QueryResultCache(cache_size)
        self.max_pin_retries = int(max_pin_retries)
        #: Context for the scatter and ``query_many`` fan-outs.  Shards
        #: share the pinned in-memory vector, so threads is the useful
        #: pool; the default resolves like every other engine call.
        self.context = ExecutionContext.resolve(context, n_jobs)
        self._lock = threading.Lock()
        self._vector: Optional[ShardVector] = None
        self._tokens: Optional[Tuple] = None

    @property
    def directory(self) -> Path:
        return self.store.directory

    def _shards(self) -> Sequence[CatalogStore]:
        return self.store.shards if self.sharded else (self.store,)

    # -- snapshot management --------------------------------------------------

    def snapshot(self) -> ShardVector:
        """The current vector, re-pinned iff *some* shard has committed.

        Freshness is one manifest ``stat`` per shard (the manifest is
        only replaced by rename, so its identity changes with every
        commit); nothing is re-read, re-verified, or re-sketched when the
        catalog is unchanged.  On change every shard is re-pinned — the
        vector is pinned as a unit so a batch never mixes pre- and
        post-commit views of one shard.
        """
        shards = self._shards()
        tokens = tuple(_manifest_token(shard.directory) for shard in shards)
        with self._lock:
            if self._vector is not None and tokens == self._tokens:
                return self._vector
            vector = ShardVector(
                [pin_snapshot(shard, self.max_pin_retries) for shard in shards],
                self.sharded,
            )
            # Tokens taken *before* the pin: if a commit lands between
            # the stat and the pin, the pinned vector is newer than the
            # tokens say and the next call simply re-pins — conservative,
            # never stale.
            self._vector = vector
            self._tokens = tokens
            self.cache.evict_stale_generations(vector.generation)
            return vector

    def reload(self) -> Tuple[Any, Any]:
        """Re-pin the latest committed generation on demand.

        Returns ``(old generation, new generation)`` as ``reload``
        reports them — ``old`` is None when nothing was pinned yet.  The
        freshness tokens are dropped first, so the next :meth:`snapshot`
        call unconditionally re-reads every manifest even if the tokens
        would have matched: this is the serve loop's ``reload`` op and
        the ingest daemon's auto-re-pin hook, both of which want "pick up
        whatever is committed *now*", not "trust the stat cache".
        """
        with self._lock:
            old = self._vector.generation if self._vector else None
            self._vector = None
            self._tokens = None
        vector = self.snapshot()
        obs.inc("service.reloads")
        return listed_generation(old), listed_generation(vector.generation)

    def committed_generation(self) -> Any:
        """The generation committed on disk right now (manifest reads only).

        Independent of what this service has pinned — the cheap poll a
        daemon-health check wants.  None when some shard no longer holds
        a readable manifest.
        """
        generations = []
        for shard in self._shards():
            try:
                manifest = read_manifest(shard.directory)
            except RespdiError:
                return None
            generations.append(int(manifest.get("ensemble_generation", 0)))
        return generations if self.sharded else generations[0]

    # -- queries --------------------------------------------------------------

    def query(self, query: Query, cached: bool = True) -> Any:
        """Answer *query* against the current generation.

        With *cached* (and a non-zero cache size), the result is served
        from — or inserted into — the LRU under the vector's generation;
        either way the returned value is byte-identical to an uncached
        run against the same generation.
        """
        return self._query_at(query, self.snapshot(), cached)

    def _query_at(self, query: Query, vector: ShardVector, cached: bool) -> Any:
        use_cache = cached and self.cache.enabled
        obs.inc("service.queries")
        with obs.trace(
            "service.query", kind=query.kind, generation=vector.generation
        ) as span:
            if use_cache:
                key = make_key(vector.generation, query.fingerprint)
                value = self.cache.get(key)
                if is_hit(value):
                    span.set_attribute("cache", "hit")
                    return value
                span.set_attribute("cache", "miss")
            result = vector.query(query, self.context)
            if use_cache:
                self.cache.put(key, result)
        return result

    def query_many(
        self,
        queries: Sequence[Query],
        cached: bool = True,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> List[Any]:
        """Answer a batch of queries, all against **one** vector.

        The batch pins a single vector up front (so its results are
        mutually consistent even under a concurrent writer) and fans out
        over :mod:`respdi.parallel` under the service's context —
        ordered reduction keeps results aligned with *queries*.  Cache
        hits and misses interleave freely; every miss is computed
        against the shared pinned vector.
        """
        queries = list(queries)
        if not queries:
            return []
        vector = self.snapshot()
        ctx = (
            ExecutionContext.resolve(context, n_jobs)
            if (context is not None or n_jobs is not None)
            else self.context
        )
        with obs.trace(
            "service.query_many",
            queries=len(queries),
            generation=vector.generation,
        ):
            return map_chunked(
                _BatchQueryTask(self, vector, cached),
                queries,
                context=ctx,
                label="service.query_many",
            )

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Cache and snapshot state as plain data (serve's ``stats`` op)."""
        with self._lock:
            vector = self._vector
        payload: Dict[str, Any] = {"directory": str(self.directory)}
        if self.sharded:
            payload["shards"] = self.store.num_shards
        payload["generation"] = listed_generation(vector.generation) if vector else None
        payload["committed_generation"] = self.committed_generation()
        payload["entries"] = len(vector.names) if vector else None
        payload.update(self.cache.stats())
        return payload


# -- the shared per-directory registry ----------------------------------------
#
# `respdi-catalog query` is an in-process API as much as a CLI (tests and
# embedding programs call `main()` directly).  Routing every invocation
# through one shared QueryService per directory is what turns the second
# query from "re-open, re-verify, re-sketch" into "stat the manifest,
# serve from the pinned snapshot".

_SHARED: Dict[str, QueryService] = {}
_SHARED_LOCK = threading.Lock()


def shared_service(directory: PathLike, cache_size: int = 256) -> QueryService:
    """The process-wide query service for *directory*.

    Created on first use (one catalog open), then reused for the life of
    the process; staleness is handled by the service's own
    manifest-token check, so a reused service always answers from the
    latest committed generation.
    """
    key = str(Path(directory).resolve())
    with _SHARED_LOCK:
        service = _SHARED.get(key)
        if service is None:
            service = QueryService(directory, cache_size=cache_size)
            _SHARED[key] = service
        return service


def reset_shared_services() -> None:
    """Drop every shared service (tests; never required for correctness)."""
    with _SHARED_LOCK:
        _SHARED.clear()
