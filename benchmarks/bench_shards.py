"""E19 — Sharded catalog (shard-parallel build vs. one store).

Reproduced shape: partitioning a catalog over 4 shards and building them
with 4 worker processes is **at least 1.5x faster** than the single-store
build on a ≥4-core host — while answering every query kind
**byte-identically** to the unsharded catalog (the scatter-gather
identity contract, locked down by ``tests/test_sharded_differential.py``).
Identity is asserted unconditionally; the speedup assertion activates
only when the host actually has the cores.

The win stacks on E16's per-table fan-out: there, parallel workers still
funnel into one writer lock and one manifest commit; here each worker
both sketches *and commits* on its own shard, so the critical section
itself is partitioned.  A ``benchmark``-fixture test makes the shard
fan-out visible to ``--benchmark-json``.
"""

import os
import time

import numpy as np
import pytest
from benchmarks.conftest import print_table

from respdi.catalog import CatalogStore, ShardedCatalogStore
from respdi.parallel import ExecutionContext
from respdi.service import (
    ContainmentQuery,
    JoinQuery,
    KeywordQuery,
    QueryService,
    ShardedQueryService,
    UnionQuery,
)
from respdi.table import Schema, Table

SEED = 7
N_TABLES = 36
ROWS_PER_TABLE = 2500
KEY_DOMAIN = 900
NUM_SHARDS = 4
N_JOBS = 4

_SCHEMA = Schema(
    [("key", "categorical"), ("tag", "categorical"), ("f1", "numeric")]
)


def _make_table(index, rng):
    prefix = "shared" if index % 4 == 0 else f"k{index}"
    draws = rng.integers(0, KEY_DOMAIN, size=ROWS_PER_TABLE)
    tags = rng.integers(0, KEY_DOMAIN, size=ROWS_PER_TABLE)
    return Table(
        _SCHEMA,
        {
            "key": [f"{prefix}_{value}" for value in draws],
            "tag": [f"tag_{index}_{value}" for value in tags],
            "f1": rng.normal(size=ROWS_PER_TABLE),
        },
    )


@pytest.fixture(scope="module")
def lake_tables():
    rng = np.random.default_rng(13)
    return {f"t{i}": _make_table(i, rng) for i in range(N_TABLES)}


def _answers(service):
    queries = [
        KeywordQuery(text="t3", k=5),
        UnionQuery(table=_make_table(0, np.random.default_rng(99)), k=5),
        JoinQuery(values=tuple(f"shared_{v}" for v in range(40)), k=5),
        ContainmentQuery(
            values=tuple(f"shared_{v}" for v in range(25)), threshold=0.2
        ),
    ]
    return [repr(service.query(q, cached=False)) for q in queries]


def test_shard_parallel_build_faster_and_answers_identical(
    lake_tables, tmp_path
):
    assert len(lake_tables) >= 32

    start = time.perf_counter()
    plain = CatalogStore.build(tmp_path / "plain", lake_tables, rng=SEED)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = ShardedCatalogStore.build(
        tmp_path / "sharded",
        lake_tables,
        num_shards=NUM_SHARDS,
        rng=SEED,
        context=ExecutionContext(backend="processes", n_jobs=N_JOBS),
    )
    sharded_seconds = time.perf_counter() - start

    speedup = single_seconds / sharded_seconds
    cores = os.cpu_count() or 1
    per_shard = [len(shard) for shard in sharded.shards]
    print_table(
        "E19: catalog build, one store vs. 4 shards x 4 processes "
        f"({N_TABLES} tables x {ROWS_PER_TABLE} rows, {cores} core(s))",
        ["layout", "seconds", "speedup", "tables/shard"],
        [
            ["single store", f"{single_seconds:.3f}", "1.00x", str(N_TABLES)],
            [
                f"{NUM_SHARDS} shards",
                f"{sharded_seconds:.3f}",
                f"{speedup:.2f}x",
                "/".join(map(str, per_shard)),
            ],
        ],
    )

    # Identity first — a fast wrong catalog is worthless.  Every query
    # kind, scatter-gathered, must equal the unsharded answer exactly.
    assert sorted(sharded.names) == sorted(plain.names)
    assert sharded.verify() == []
    assert _answers(ShardedQueryService(sharded)) == _answers(
        QueryService(plain)
    )

    if cores >= N_JOBS:
        assert speedup >= 1.5, (
            f"shard-parallel build must be >=1.5x faster on a "
            f"{cores}-core host, got {speedup:.2f}x"
        )


def test_benchmark_sharded_scatter_gather_query(benchmark, lake_tables, tmp_path):
    """Steady-state scatter-gather latency (uncached), for the JSON
    artifact: one keyword query fanned over 4 warm shards and merged."""
    store = ShardedCatalogStore.build(
        tmp_path / "cat", lake_tables, num_shards=NUM_SHARDS, rng=SEED
    )
    service = ShardedQueryService(store)
    query = KeywordQuery(text="t3", k=5)
    assert service.query(query, cached=False)  # warm the pinned vector
    benchmark(lambda: service.query(query, cached=False))
