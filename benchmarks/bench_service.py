"""E18 — Query service caching (warm generation-keyed cache vs. recompute).

Reproduced shape: against a persisted catalog, a repeated query mix
served from the :class:`QueryService` result cache is **at least 5×
faster** than recomputing every answer — while returning byte-identical
results (the cache key is the exact ``(generation, fingerprint)`` pair,
so a hit can only ever return what the uncached path would compute).
Every pass rebuilds its ``Query`` descriptors from scratch, so the
warm timing honestly includes fingerprinting the query tables.
"""

import time

import numpy as np
import pytest
from benchmarks.conftest import print_table

from respdi.catalog import CatalogStore
from respdi.service import ContainmentQuery, JoinQuery, KeywordQuery, QueryService, UnionQuery
from respdi.table import Schema, Table

SEED = 7
N_TABLES = 30
ROWS_PER_TABLE = 3000
KEY_DOMAIN = 400
REPEATS = 5

_SCHEMA = Schema([("key", "categorical"), ("f1", "numeric"), ("f2", "numeric")])


def _make_table(index, rng):
    prefix = "shared" if index % 4 == 0 else f"k{index}"
    draws = rng.integers(0, KEY_DOMAIN, size=ROWS_PER_TABLE)
    return Table(
        _SCHEMA,
        {
            "key": [f"{prefix}_{value}" for value in draws],
            "f1": rng.normal(size=ROWS_PER_TABLE),
            "f2": rng.normal(size=ROWS_PER_TABLE),
        },
    )


@pytest.fixture(scope="module")
def lake_tables():
    rng = np.random.default_rng(13)
    return {f"t{i}": _make_table(i, rng) for i in range(N_TABLES)}


@pytest.fixture(scope="module")
def service(lake_tables, tmp_path_factory):
    directory = tmp_path_factory.mktemp("service") / "cat"
    CatalogStore.build(directory, lake_tables, rng=SEED)
    return QueryService(directory, cache_size=64)


def _query_mix(lake_tables):
    """Fresh descriptors every call: equal fingerprints, new objects."""
    probe = lake_tables["t0"].head(600)
    keys = lake_tables["t4"].unique("key")[:200]
    return [
        KeywordQuery(text="shared", k=10),
        UnionQuery(table=probe, k=10),
        JoinQuery(values=tuple(keys), k=10),
        ContainmentQuery(values=tuple(keys), threshold=0.5, k=10),
    ]


def _run_pass(service, lake_tables, cached):
    rendered = []
    start = time.perf_counter()
    for _ in range(REPEATS):
        for query in _query_mix(lake_tables):
            rendered.append(query.render(service.query(query, cached=cached)))
    return rendered, time.perf_counter() - start


def test_warm_cache_at_least_5x_faster_than_recompute(service, lake_tables):
    cold_results, cold_seconds = _run_pass(service, lake_tables, cached=False)
    # Prime: the first cached pass pays every miss (compute + insert).
    prime_results, prime_seconds = _run_pass(service, lake_tables, cached=True)
    warm_results, warm_seconds = _run_pass(service, lake_tables, cached=True)

    queries = REPEATS * 4
    speedup = cold_seconds / warm_seconds
    print_table(
        "E18: query service, recompute vs. warm generation-keyed cache "
        f"({N_TABLES} tables x {ROWS_PER_TABLE} rows, {queries} queries/pass)",
        ["pass", "seconds", "queries/s", "speedup"],
        [
            [
                "uncached (recompute all)",
                f"{cold_seconds:.3f}",
                f"{queries / cold_seconds:.0f}",
                "1.0x",
            ],
            [
                "cached, cold cache (all misses)",
                f"{prime_seconds:.3f}",
                f"{queries / prime_seconds:.0f}",
                f"{cold_seconds / prime_seconds:.1f}x",
            ],
            [
                "cached, warm cache (all hits)",
                f"{warm_seconds:.3f}",
                f"{queries / warm_seconds:.0f}",
                f"{speedup:.1f}x",
            ],
        ],
    )

    assert cold_results == prime_results == warm_results, (
        "cached results must be byte-identical to recomputed ones"
    )
    assert service.cache.stats()["hits"] >= queries  # the warm pass really hit
    assert speedup >= 5.0, (
        f"warm cache must be >=5x faster than recompute, got {speedup:.1f}x"
    )


def test_batch_query_many_matches_singles(service, lake_tables):
    """`query_many` (one pinned snapshot, parallel fan-out) returns the
    same bytes as issuing the queries one by one."""
    queries = _query_mix(lake_tables)
    start = time.perf_counter()
    batch = service.query_many(queries, cached=False)
    batch_seconds = time.perf_counter() - start
    singles = [service.query(query, cached=False) for query in queries]
    print_table(
        "E18b: query_many batch over one pinned snapshot",
        ["path", "seconds"],
        [["query_many x4", f"{batch_seconds:.3f}"]],
    )
    assert [repr(result) for result in batch] == [
        repr(result) for result in singles
    ]
