"""E20 — Continuous ingestion: refresh lag and read latency under load.

Reproduced shape: a daemon that re-ingests a slice of the lake every
cycle keeps detect→publish **refresh lag** bounded while concurrent
reads stay serviceable — the read p99 under sustained ingestion stays
under a generous gate (it catches a reader blocking on the writer, not
scheduler noise), and the catalog the daemon leaves behind is
entry-for-entry identical to a from-scratch build of the final lake
state.  The steady-state cost of *watching* (a no-op cycle: scan every
CSV, fingerprint-match everything, commit nothing) is reported
separately and exposed to ``--benchmark-json``.
"""

import threading
import time

import numpy as np
import pytest
from benchmarks.conftest import print_table

from respdi.catalog import CatalogStore
from respdi.catalog.store import table_fingerprint
from respdi.ingest import IngestDaemon
from respdi.service import KeywordQuery, QueryService
from respdi.table import Schema, Table, write_csv

SEED = 7
N_TABLES = 16
ROWS_PER_TABLE = 1500
CHANGED_PER_CYCLE = 4
CYCLES = 6
P99_GATE_SECONDS = 2.0

_SCHEMA = Schema([("key", "categorical"), ("f1", "numeric")])


def _make_table(index, version):
    rng = np.random.default_rng(1000 * version + index)
    draws = rng.integers(0, 300, size=ROWS_PER_TABLE)
    return Table(
        _SCHEMA,
        {
            "key": [f"k{index}_{value}" for value in draws],
            "f1": rng.normal(size=ROWS_PER_TABLE),
        },
    )


def _lake_state(version):
    """Tables 0..CHANGED_PER_CYCLE-1 churn per version; the rest don't."""
    return {
        f"t{index}": _make_table(
            index, version if index < CHANGED_PER_CYCLE else 0
        )
        for index in range(N_TABLES)
    }


def _write_lake(lake, tables):
    lake.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        write_csv(table, lake / f"{name}.csv")


def _percentile(ordered, fraction):
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def test_refresh_lag_and_read_p99_under_sustained_ingestion(tmp_path):
    lake = tmp_path / "lake"
    _write_lake(lake, _lake_state(0))
    catalog_dir = tmp_path / "cat"
    CatalogStore.build(catalog_dir, _lake_state(0), rng=SEED)
    service = QueryService(catalog_dir, cache_size=64)
    daemon = IngestDaemon(catalog_dir, lake, interval=0.0, service=service)

    lags = []
    read_latencies = []
    done = threading.Event()

    def reader():
        query = KeywordQuery(text="k0", k=5)
        while not done.is_set() or not read_latencies:
            start = time.perf_counter()
            service.query(query, cached=False)
            read_latencies.append(time.perf_counter() - start)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for version in range(1, CYCLES + 1):
            _write_lake(lake, _lake_state(version))
            result = daemon.run_cycle()
            assert result.refreshed == CHANGED_PER_CYCLE, result.summary()
            lags.append(result.lag_seconds)
    finally:
        done.set()
        thread.join()

    # Steady state: the lake is current, so a cycle is pure watch cost.
    noop_start = time.perf_counter()
    noop = daemon.run_cycle()
    noop_seconds = time.perf_counter() - noop_start
    assert not noop.applied

    reads = sorted(read_latencies)
    read_p50 = _percentile(reads, 0.50)
    read_p99 = _percentile(reads, 0.99)
    ordered_lags = sorted(lags)
    print_table(
        "E20: continuous ingestion — refresh lag vs. read latency "
        f"({N_TABLES} tables x {ROWS_PER_TABLE} rows, "
        f"{CHANGED_PER_CYCLE} changed/cycle, {CYCLES} cycles, 1 reader)",
        ["metric", "p50", "p99/max"],
        [
            [
                "refresh lag (detect->publish), s",
                f"{_percentile(ordered_lags, 0.50):.3f}",
                f"{ordered_lags[-1]:.3f}",
            ],
            [
                f"read latency under ingestion, s ({len(reads)} reads)",
                f"{read_p50:.4f}",
                f"{read_p99:.4f}",
            ],
            ["no-op watch cycle (scan only), s", f"{noop_seconds:.3f}", "-"],
        ],
    )

    assert read_p99 < P99_GATE_SECONDS, (
        f"read p99 {read_p99:.3f}s under ingestion breaches the "
        f"{P99_GATE_SECONDS:.1f}s gate"
    )

    # Differential: the continuously ingested catalog holds exactly the
    # entries a cold build of the final lake state would.
    final = _lake_state(CYCLES)
    store = CatalogStore.open(catalog_dir)
    assert {name: store.meta(name)["fingerprint"] for name in store.names} == {
        name: table_fingerprint(table) for name, table in final.items()
    }


@pytest.fixture(scope="module")
def idle_daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest-bench")
    lake = root / "lake"
    _write_lake(lake, _lake_state(0))
    CatalogStore.build(root / "cat", _lake_state(0), rng=SEED)
    return IngestDaemon(root / "cat", lake, interval=0.0)


def test_benchmark_noop_watch_cycle(benchmark, idle_daemon):
    """The steady-state watch cost (``--benchmark-json``):
    scan + fingerprint every source, short-circuit, commit nothing."""
    result = benchmark(idle_daemon.run_cycle)
    assert not result.applied
