"""E21 — Multi-tenant serving: throughput under 100 clients, cache tiers.

Reproduced shape: the socket serve path sustains **>=100 concurrent
clients** with bounded tail latency (a generous p99 gate that catches
convoys, not scheduler jitter), and the two warm tiers — the in-memory
generation-keyed cache and the persistent on-disk sidecar after a cold
restart — both answer the same repeated query mix **at least 2x faster**
than recomputing, while staying byte-identical to the recomputed
answers.  The socket round-trip cost is visible to
``--benchmark-json``.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest
from benchmarks.conftest import print_table

from respdi.catalog import CatalogStore
from respdi.service import (
    AdmissionController,
    QueryService,
    SocketQueryServer,
    handle_request,
    open_pcache,
)
from respdi.table import Schema, Table

SEED = 7
N_TABLES = 24
ROWS_PER_TABLE = 2000
KEY_DOMAIN = 300
CLIENTS = 100
REQUESTS_EACH = 5
TIER_REPEATS = 6
P99_GATE_SECONDS = 2.0

_SCHEMA = Schema([("key", "categorical"), ("f1", "numeric")])

REQUESTS = [
    {"op": "keyword", "text": "shared", "k": 5},
    {"op": "join", "values": ["shared_1", "shared_2", "k3_5"], "k": 5},
    {"op": "containment", "values": ["shared_1", "shared_2"],
     "threshold": 0.2, "k": 5},
]


def _make_table(index, rng):
    prefix = "shared" if index % 4 == 0 else f"k{index}"
    draws = rng.integers(0, KEY_DOMAIN, size=ROWS_PER_TABLE)
    return Table(
        _SCHEMA,
        {
            "key": [f"{prefix}_{value}" for value in draws],
            "f1": rng.normal(size=ROWS_PER_TABLE),
        },
    )


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    rng = np.random.default_rng(13)
    tables = {f"t{i}": _make_table(i, rng) for i in range(N_TABLES)}
    directory = tmp_path_factory.mktemp("serve-bench") / "cat"
    CatalogStore.build(directory, tables, rng=SEED)
    return directory


def _known_good(catalog_dir):
    service = QueryService(catalog_dir, cache_size=0)
    return {
        json.dumps(handle_request(service, request)["results"],
                   sort_keys=True)
        for request in REQUESTS
    }


def _percentile(ordered, fraction):
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _client(address, tenant, latencies, responses, sheds, errors):
    """Issue REQUESTS_EACH requests, honouring ``retry_after_ms`` on shed:
    the latency recorded per request is completion time *including*
    retries — what a well-behaved caller actually experiences."""
    try:
        with socket.create_connection(address, timeout=60) as conn:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            writer = conn.makefile("w", encoding="utf-8", newline="\n")
            for index in range(REQUESTS_EACH):
                request = dict(REQUESTS[index % len(REQUESTS)], tenant=tenant)
                line = json.dumps(request) + "\n"
                started = time.perf_counter()
                for _ in range(200):
                    writer.write(line)
                    writer.flush()
                    response = json.loads(reader.readline())
                    if response.get("error") == "overloaded":
                        sheds.append(1)
                        time.sleep(
                            min(response["retry_after_ms"], 20) / 1000.0
                        )
                        continue
                    break
                latencies.append(time.perf_counter() - started)
                responses.append(response)
    except Exception as exc:  # noqa: BLE001 - surfaced by the assert
        errors.append(exc)


def test_hundred_clients_bounded_tail_latency(catalog_dir):
    known_good = _known_good(catalog_dir)
    service = QueryService(catalog_dir, cache_size=64)
    admission = AdmissionController(max_inflight=32)
    server = SocketQueryServer(service, admission=admission)
    server.start()

    latencies, responses, sheds, errors = [], [], [], []
    threads = [
        threading.Thread(
            target=_client,
            args=(server.address, f"tenant{i % 8}", latencies, responses,
                  sheds, errors),
        )
        for i in range(CLIENTS)
    ]
    wall_start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        wall_seconds = time.perf_counter() - wall_start
        server.stop()
    assert errors == [], errors

    total = CLIENTS * REQUESTS_EACH
    assert len(responses) == total
    ok = [r for r in responses if r.get("ok")]
    for response in ok:
        assert (
            json.dumps(response["results"], sort_keys=True) in known_good
        )

    ordered = sorted(latencies)
    p50 = _percentile(ordered, 0.50)
    p99 = _percentile(ordered, 0.99)
    print_table(
        f"E21: socket serving under {CLIENTS} concurrent clients "
        f"({N_TABLES} tables x {ROWS_PER_TABLE} rows, "
        f"{REQUESTS_EACH} requests/client, inflight gate 32)",
        ["metric", "value"],
        [
            ["requests completed ok", f"{len(ok)}/{total}"],
            ["inflight sheds retried", str(len(sheds))],
            ["throughput, req/s", f"{total / wall_seconds:.0f}"],
            ["latency p50 (incl. retries), s", f"{p50:.4f}"],
            ["latency p99 (incl. retries), s", f"{p99:.4f}"],
            ["peak inflight", str(admission.stats()["peak_inflight"])],
        ],
    )

    assert len(ok) == total  # every request completed after retries
    totals = admission.stats()["totals"]
    assert totals["received"] == total + len(sheds)
    assert admission.stats()["peak_inflight"] <= 32
    assert p99 < P99_GATE_SECONDS, f"p99 {p99:.3f}s breaches the gate"


def _timed_pass(service, pcache=None, repeats=TIER_REPEATS):
    service.snapshot()  # pay the one-time index load outside the clock
    rendered = []
    start = time.perf_counter()
    for _ in range(repeats):
        for request in REQUESTS:
            response = handle_request(service, request, pcache=pcache)
            rendered.append(
                json.dumps(response["results"], sort_keys=True)
            )
    return rendered, time.perf_counter() - start


def test_warm_tiers_beat_cold_and_stay_byte_identical(catalog_dir, tmp_path):
    # Cold: every answer recomputed from the index.
    cold_results, cold_seconds = _timed_pass(
        QueryService(catalog_dir, cache_size=0)
    )

    # Memory-warm: prime the generation-keyed cache, then measure hits.
    memory_service = QueryService(catalog_dir, cache_size=64)
    _timed_pass(memory_service, repeats=1)
    memory_results, memory_seconds = _timed_pass(memory_service)

    # Persistent-warm: populate the sidecar, then "restart" — fresh
    # service and pcache objects over the same disk, zero recomputes.
    sidecar = tmp_path / "sidecar"
    _timed_pass(
        QueryService(catalog_dir, cache_size=0),
        pcache=open_pcache(catalog_dir, directory=sidecar),
        repeats=1,
    )
    warm_pcache = open_pcache(catalog_dir, directory=sidecar)
    pcache_results, pcache_seconds = _timed_pass(
        QueryService(catalog_dir, cache_size=0), pcache=warm_pcache
    )

    queries = TIER_REPEATS * len(REQUESTS)
    rows = [
        ["cold (recompute all)", cold_seconds, 1.0],
        ["memory-warm (cache hits)", memory_seconds,
         cold_seconds / memory_seconds],
        ["persistent-warm (sidecar after restart)", pcache_seconds,
         cold_seconds / pcache_seconds],
    ]
    print_table(
        f"E21b: cache tiers over the same request mix ({queries} requests)",
        ["tier", "seconds", "speedup"],
        [[name, f"{seconds:.3f}", f"{speedup:.1f}x"]
         for name, seconds, speedup in rows],
    )

    assert cold_results == memory_results == pcache_results, (
        "warm tiers must be byte-identical to recomputed answers"
    )
    stats = warm_pcache.stats()
    assert stats["stores"] == 0 and stats["misses"] == 0  # true warm start
    assert stats["hits"] == queries
    assert cold_seconds / memory_seconds >= 2.0
    assert cold_seconds / pcache_seconds >= 2.0


@pytest.fixture(scope="module")
def warm_server(catalog_dir):
    service = QueryService(catalog_dir, cache_size=64)
    server = SocketQueryServer(service, admission=AdmissionController())
    server.start()
    conn = socket.create_connection(server.address, timeout=30)
    reader = conn.makefile("r", encoding="utf-8", newline="\n")
    writer = conn.makefile("w", encoding="utf-8", newline="\n")
    yield reader, writer
    conn.close()
    server.stop()


def test_benchmark_socket_roundtrip_warm(benchmark, warm_server):
    """The per-request serve overhead (``--benchmark-json``):
    one JSON-lines round-trip answered from the warm result cache."""
    reader, writer = warm_server
    line = json.dumps(REQUESTS[0]) + "\n"

    def roundtrip():
        writer.write(line)
        writer.flush()
        return json.loads(reader.readline())

    response = benchmark(roundtrip)
    assert response["ok"] and response["results"]
