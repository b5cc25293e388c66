"""respdi.service unit coverage: cache, queries, snapshots, serve loop.

The service package's contracts, one at a time: the LRU result cache
(bounds, eviction order, generation invalidation, disablement), query
fingerprints (stable, exact, memoized), snapshot pinning (immutability
under concurrent commits, contention bounds), the ``QueryService``
front-end (cached == uncached, manifest-token re-pin, batched
``query_many``), the JSON-lines serve loop, pipeline integration via
``discover_sources(service=...)``, and the process-wide shared-service
registry the CLI rides on.
"""

import io
import json
import threading

import pytest

from respdi import QueryService as TopLevelQueryService
from respdi import obs
from respdi.catalog import CatalogStore, ShardedCatalogStore
from respdi.errors import (
    RespdiError,
    SnapshotContentionError,
    SpecificationError,
)
from respdi.parallel import ExecutionContext
from respdi.pipeline import ResponsibleIntegrationPipeline
from respdi.service import (
    ContainmentQuery,
    JoinQuery,
    KeywordQuery,
    QueryResultCache,
    QueryService,
    UnionQuery,
    build_query,
    handle_request,
    pin_snapshot,
    reset_shared_services,
    serve,
    shared_service,
)
from respdi.service.cache import is_hit, make_key
from respdi.table import Schema, Table

SCHEMA = Schema([("key", "categorical"), ("value", "numeric")])

#: Small hash family: cheap builds without changing any code path.
OPTS = dict(rng=7, num_hashes=16, sketch_size=16)


def _table(tag, n=8, offset=0.0):
    rows = [(f"{tag}_{i}", float(i) + offset) for i in range(n)]
    return Table.from_rows(SCHEMA, rows)


TABLES = {"alpha": _table("a"), "beta": _table("b"), "gamma": _table("g")}


@pytest.fixture
def store(tmp_path):
    # store_data=True so discovery paths that load candidate tables
    # (``discover_sources``) work against the same catalog.
    return CatalogStore.build(tmp_path / "cat", TABLES, store_data=True, **OPTS)


@pytest.fixture
def service(store):
    return QueryService(store)


@pytest.fixture(autouse=True)
def _clean_shared():
    reset_shared_services()
    yield
    reset_shared_services()


# -- the result cache ----------------------------------------------------------


def test_cache_get_put_and_lru_eviction_order():
    cache = QueryResultCache(maxsize=2)
    cache.put((1, "a"), "A")
    cache.put((1, "b"), "B")
    assert is_hit(cache.get((1, "a")))  # touch: "a" is now most recent
    cache.put((1, "c"), "C")  # evicts "b", the least recently used
    assert [key for key in cache.keys()] == [(1, "a"), (1, "c")]
    assert not is_hit(cache.get((1, "b")))
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cache_generation_eviction_only_drops_stale():
    cache = QueryResultCache()
    cache.put(make_key(3, "x"), 1)
    cache.put(make_key(4, "x"), 2)
    cache.put(make_key(4, "y"), 3)
    dropped = cache.evict_stale_generations(4)
    assert dropped == 1
    assert sorted(cache.keys()) == [(4, "x"), (4, "y")]


def test_cache_size_zero_disables():
    cache = QueryResultCache(maxsize=0)
    assert not cache.enabled
    cache.put((1, "a"), "A")
    assert not is_hit(cache.get((1, "a")))
    assert cache.stats()["size"] == 0
    stats = cache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 0  # disabled: no accounting


def test_cache_clear_and_stats():
    cache = QueryResultCache(maxsize=4)
    cache.put((1, "a"), "A")
    cache.get((1, "a"))
    stats = cache.stats()
    assert stats["size"] == 1 and stats["maxsize"] == 4 and stats["hits"] == 1
    assert len(cache) == 1
    cache.clear()
    assert cache.stats()["size"] == 0 and len(cache) == 0
    with pytest.raises(SpecificationError):
        QueryResultCache(maxsize=-1)


# -- query fingerprints --------------------------------------------------------


def test_fingerprints_distinguish_kind_and_every_parameter():
    fingerprints = {
        KeywordQuery(text="x", k=5).fingerprint,
        KeywordQuery(text="x", k=6).fingerprint,
        KeywordQuery(text="y", k=5).fingerprint,
        JoinQuery(values=("x",), k=5).fingerprint,
        JoinQuery(values=("x",), k=5, min_overlap=2).fingerprint,
        ContainmentQuery(values=("x",), threshold=0.5).fingerprint,
        ContainmentQuery(values=("x",), threshold=0.25).fingerprint,
        UnionQuery(table=_table("q"), k=5).fingerprint,
        UnionQuery(table=_table("q"), k=6).fingerprint,
        UnionQuery(table=_table("r"), k=5).fingerprint,
    }
    assert len(fingerprints) == 10  # no collisions anywhere in the matrix


def test_equal_queries_share_a_fingerprint_and_memoize():
    one = UnionQuery(table=_table("q"), k=5)
    two = UnionQuery(table=_table("q"), k=5)
    assert one.fingerprint == two.fingerprint
    assert one.fingerprint is one.fingerprint  # memoized on the instance


def test_union_query_requires_a_table():
    with pytest.raises(SpecificationError):
        UnionQuery()


# -- snapshots -----------------------------------------------------------------


def test_snapshot_pins_one_generation_across_commits(store):
    snapshot = pin_snapshot(store)
    before = snapshot.entry_fingerprints()
    assert snapshot.names == ("alpha", "beta", "gamma")

    writer = CatalogStore.open(store.directory)
    writer.refresh_many({"alpha": _table("a2", offset=50.0)})
    writer.remove_table("gamma")

    # The pinned handle is unmoved: same generation, same fingerprints,
    # and its queries still see all three original tables.
    assert snapshot.entry_fingerprints() == before
    hits = snapshot.query(KeywordQuery(text="gamma", k=5))
    assert [hit.table_name for hit in hits] == ["gamma"]

    fresh = pin_snapshot(CatalogStore.open(store.directory))
    assert fresh.generation > snapshot.generation
    assert sorted(fresh.names) == ["alpha", "beta"]


def test_pin_contention_exhaustion_raises(store, monkeypatch):
    from respdi.errors import CatalogCorruptError

    def always_corrupt(self):
        raise CatalogCorruptError("simulated writer race")

    monkeypatch.setattr(CatalogStore, "index", always_corrupt)
    with pytest.raises(SnapshotContentionError, match="simulated writer race"):
        pin_snapshot(store, max_retries=3)


# -- QueryService --------------------------------------------------------------


def test_cached_results_are_byte_identical_to_uncached(service):
    queries = [
        KeywordQuery(text="alpha", k=5),
        UnionQuery(table=_table("q", n=4), k=5),
        JoinQuery(values=("a_1", "a_2", "b_3"), k=5),
        ContainmentQuery(values=("a_1", "a_2"), threshold=0.2),
    ]
    for query in queries:
        uncached = service.query(query, cached=False)
        miss = service.query(query)  # first cached call: a miss
        hit = service.query(query)  # second: served from the cache
        assert repr(miss) == repr(uncached)
        assert repr(hit) == repr(uncached)
        assert hit is miss  # the cache returns the very computed object
    stats = service.cache.stats()
    assert stats["hits"] == len(queries)
    assert stats["misses"] == len(queries)


def test_repins_only_when_the_manifest_moves(service):
    obs.enable()
    obs.reset()
    try:
        first = service.snapshot()
        for _ in range(5):
            assert service.snapshot() is first  # token unchanged: no pin
        counters = obs.global_registry().snapshot()["counters"]
        assert counters["service.snapshot.pinned"] == 1.0

        writer = CatalogStore.open(service.directory)
        writer.refresh_many({"alpha": _table("a2", offset=9.0)})
        second = service.snapshot()
        assert second is not first
        assert second.generation > first.generation
        counters = obs.global_registry().snapshot()["counters"]
        assert counters["service.snapshot.pinned"] == 2.0
    finally:
        obs.disable()
        obs.reset()


def test_commit_invalidate_then_identical_answers_at_new_generation(service):
    query = KeywordQuery(text="alpha", k=5)
    service.query(query)
    old_generation = service.snapshot().generation
    assert [key[0] for key in service.cache.keys()] == [old_generation]

    writer = CatalogStore.open(service.directory)
    writer.refresh_many({"beta": _table("b2", offset=9.0)})

    fresh = service.query(query)
    new_generation = service.snapshot().generation
    assert new_generation > old_generation
    # Stale-generation entries are gone; the answer was recomputed (and
    # re-cached) under the new generation and matches an uncached run.
    assert [key[0] for key in service.cache.keys()] == [new_generation]
    assert repr(fresh) == repr(service.query(query, cached=False))


def test_query_many_pins_one_snapshot_and_preserves_order(service):
    queries = [
        KeywordQuery(text="alpha", k=5),
        KeywordQuery(text="beta", k=5),
        JoinQuery(values=("a_1",), k=5),
        KeywordQuery(text="alpha", k=5),  # duplicate: a cache hit in-batch
    ]
    results = service.query_many(queries)
    assert len(results) == len(queries)
    assert repr(results[0]) == repr(results[3])
    expected = [service.query(q, cached=False) for q in queries]
    for got, want in zip(results, expected):
        assert repr(got) == repr(want)
    assert service.query_many([]) == []


def test_query_many_threads_matches_serial(store):
    serial = QueryService(store, context=ExecutionContext())
    threaded = QueryService(
        store, context=ExecutionContext(backend="threads", n_jobs=3, chunksize=1)
    )
    queries = [KeywordQuery(text=name, k=5) for name in TABLES] + [
        JoinQuery(values=("a_1", "b_2"), k=5)
    ]
    assert repr(serial.query_many(queries)) == repr(threaded.query_many(queries))


def test_uncached_queries_bypass_the_cache(service):
    service.query(KeywordQuery(text="alpha", k=5), cached=False)
    assert list(service.cache.keys()) == []
    stats = service.cache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 0


def test_stats_reports_generation_and_cache_state(service):
    assert service.stats()["generation"] is None  # nothing pinned yet
    service.query(KeywordQuery(text="alpha", k=5))
    stats = service.stats()
    assert stats["generation"] == service.snapshot().generation
    assert stats["entries"] == 3 and stats["size"] == 1
    assert stats["directory"] == str(service.directory)


def test_service_opens_store_from_a_path(tmp_path, store):
    service = QueryService(store.directory)
    hits = service.query(KeywordQuery(text="alpha", k=5))
    assert [hit.table_name for hit in hits] == ["alpha"]
    assert TopLevelQueryService is QueryService  # exported at top level


# -- pipeline integration ------------------------------------------------------


@pytest.mark.parametrize("num_shards", [None, 2], ids=["plain", "sharded"])
def test_discover_sources_via_service_matches_lake_path(
    store, tmp_path, num_shards
):
    directory = store.directory
    if num_shards is not None:
        directory = tmp_path / "sharded"
        ShardedCatalogStore.build(
            directory, TABLES, store_data=True, num_shards=num_shards, **OPTS
        )
    pipeline = ResponsibleIntegrationPipeline(sensitive_columns=("key",))
    query = _table("a", n=4)
    via_service = pipeline.discover_sources(
        query=query, service=QueryService(directory), min_score=0.0
    )
    via_lake = pipeline.discover_sources(
        lake=store.index(), query=query, min_score=0.0
    )
    assert sorted(via_service) == sorted(via_lake)
    for name in via_service:
        assert via_service[name].schema.names == via_lake[name].schema.names


def test_discover_sources_argument_validation(service):
    pipeline = ResponsibleIntegrationPipeline(sensitive_columns=("key",))
    with pytest.raises(SpecificationError, match="query"):
        pipeline.discover_sources(service=service)
    with pytest.raises(SpecificationError, match="not both"):
        pipeline.discover_sources(
            lake={}, query=_table("q"), service=service
        )
    with pytest.raises(SpecificationError, match="lake"):
        pipeline.discover_sources(query=_table("q"))


# -- the serve loop ------------------------------------------------------------


def _serve_lines(service, requests, **kwargs):
    stream = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    out = io.StringIO()
    served = serve(service, stream, out, **kwargs)
    return served, [json.loads(line) for line in out.getvalue().splitlines()]


def test_serve_answers_every_op(service):
    served, responses = _serve_lines(
        service,
        [
            {"op": "ping"},
            {"op": "keyword", "text": "alpha", "k": 5},
            {"op": "join", "values": ["a_1", "b_2"], "k": 5},
            {"op": "containment", "values": ["a_1"], "threshold": 0.2},
            {"op": "stats"},
            {"op": "stop"},
        ],
    )
    assert served == 6
    assert all(response["ok"] for response in responses)
    keyword = responses[1]
    assert keyword["generation"] == service.snapshot().generation
    assert keyword["results"][0]["table"] == "alpha"
    assert responses[4]["stats"]["entries"] == 3
    assert responses[-1] == {"ok": True, "op": "stop"}


def test_serve_reports_bad_requests_in_band_and_keeps_going(service):
    stream = io.StringIO(
        "not json\n"
        + json.dumps({"op": "nope"}) + "\n"
        + json.dumps(["not", "an", "object"]) + "\n"
        + json.dumps({"op": "keyword"}) + "\n"  # missing required field
        + "\n"  # blank lines are skipped, not served
        + json.dumps({"op": "ping"}) + "\n"
    )
    out = io.StringIO()
    served = serve(service, stream, out)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert served == 5
    assert [response["ok"] for response in responses] == [
        False, False, False, False, True,
    ]
    assert "unknown op" in responses[1]["error"]
    assert "'text'" in responses[3]["error"]


def test_serve_reload_repins_to_the_latest_commit(service, store):
    """Regression for the ``reload`` op: an out-of-band commit becomes
    visible the moment the operator (or the ingest daemon) asks, and the
    response reports the generation move."""
    assert service.query(KeywordQuery(text="alpha", k=3))  # pin gen 2
    store.add_table("delta", _table("d"))
    served, responses = _serve_lines(
        service,
        [
            {"op": "reload"},
            {"op": "keyword", "text": "delta", "k": 3},
            {"op": "stats"},
        ],
    )
    assert served == 3 and all(response["ok"] for response in responses)
    reload_response = responses[0]
    assert reload_response["op"] == "reload"
    assert reload_response["previous_generation"] == 2
    assert reload_response["generation"] == 3
    assert responses[1]["generation"] == 3
    assert responses[1]["results"][0]["table"] == "delta"
    # stats now also reports the committed generation straight from
    # disk, so a poller can watch ingestion without issuing queries.
    assert responses[2]["stats"]["committed_generation"] == 3
    assert responses[2]["stats"]["generation"] == 3


def test_serve_reload_without_prior_pin_reports_none(service):
    served, responses = _serve_lines(service, [{"op": "reload"}])
    assert served == 1 and responses[0]["ok"]
    assert responses[0]["previous_generation"] is None
    assert responses[0]["generation"] == 2


def test_stats_reports_committed_generation_before_any_pin(service, store):
    assert service.stats()["generation"] is None  # nothing pinned yet
    assert service.stats()["committed_generation"] == 2
    store.add_table("delta", _table("d"))
    # The committed view moves with the disk; the pin stays lazy.
    assert service.stats()["committed_generation"] == 3
    assert service.stats()["generation"] is None


def test_serve_max_requests_bounds_the_loop(service):
    served, responses = _serve_lines(
        service, [{"op": "ping"}] * 5, max_requests=2
    )
    assert served == 2 and len(responses) == 2


def test_serve_union_and_join_from_csv(service, tmp_path):
    from respdi.table import write_csv

    csv_path = tmp_path / "query.csv"
    write_csv(_table("a", n=4), csv_path)
    served, responses = _serve_lines(
        service,
        [
            {"op": "union", "csv": str(csv_path), "k": 5},
            {"op": "join", "csv": str(csv_path), "column": "key", "k": 5},
        ],
    )
    assert served == 2 and all(response["ok"] for response in responses)
    assert {"table", "score", "alignment"} <= set(responses[0]["results"][0])
    assert {"table", "column", "overlap"} <= set(responses[1]["results"][0])


def test_build_query_rejects_unknown_and_incomplete_requests():
    with pytest.raises(RespdiError, match="unknown op"):
        build_query({"op": "teleport"})
    with pytest.raises(RespdiError, match="op"):
        build_query({})
    with pytest.raises(RespdiError, match="'column'"):
        build_query({"op": "join", "csv": "x.csv"})


def test_handle_request_renders_through_the_query(service):
    response = handle_request(
        service, {"op": "keyword", "text": "beta", "k": 5}
    )
    assert response["ok"] and response["op"] == "keyword"
    assert response["results"] == [
        {"table": hit.table_name, "score": hit.score}
        for hit in service.query(KeywordQuery(text="beta", k=5), cached=False)
    ]


# -- the shared per-directory registry ----------------------------------------


def test_shared_service_is_one_per_directory(store, tmp_path):
    relative_spelling = store.directory / ".." / store.directory.name
    one = shared_service(store.directory)
    two = shared_service(relative_spelling)  # resolves to the same key
    assert one is two

    other = CatalogStore.build(tmp_path / "other", {"solo": _table("s")}, **OPTS)
    assert shared_service(other.directory) is not one

    reset_shared_services()
    assert shared_service(store.directory) is not one


def test_shared_service_registry_is_thread_safe(store):
    services = []

    def grab():
        services.append(shared_service(store.directory))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({id(service) for service in services}) == 1
