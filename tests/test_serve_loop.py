"""The one serve request loop, driven over both of its transports.

``serve`` (stdin) and a ``SocketQueryServer`` connection run the same
``serve_stream`` loop, so every test here runs once per transport or
compares the two directly: hostile lines (nesting past the recursion
limit, a line past ``MAX_REQUEST_CHARS``, an ``op`` that cannot be
hashed) are answered in-band and the loop keeps serving; one mixed
stream gets the same response lines, the same ``stats`` sections and the
same served count on both; and a ``max_requests`` that could serve
nothing is refused up front.  Bytes that are not UTF-8 are answered
in-band over the socket and over a strict stdin, unknown ops mint no
latency histogram, and with obs enabled every count in ``stats`` equals
its global-registry twin.
"""

import io
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from respdi import obs
from respdi.catalog import CatalogStore
from respdi.errors import SpecificationError
from respdi.service import (
    AdmissionController,
    PersistentResultCache,
    QueryService,
    SocketQueryServer,
    serve,
)
from respdi.service.netserver import MAX_REQUEST_CHARS
from respdi.table import Schema, Table

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCHEMA = Schema([("key", "categorical"), ("value", "numeric")])
TABLES = {
    name: Table.from_rows(SCHEMA, [(f"{name[0]}_{i}", float(i)) for i in range(8)])
    for name in ("alpha", "beta", "gamma")
}
PING = json.dumps({"op": "ping"})


@pytest.fixture
def catalog(tmp_path):
    CatalogStore.build(
        tmp_path / "cat", TABLES, rng=7, num_hashes=16, sketch_size=16
    )
    return tmp_path / "cat"


def _exchange(transport, service, payload):
    """Send *payload* over *transport*; returns (response lines, served)."""
    if transport == "stdin":
        out = io.StringIO()
        served = serve(service, io.StringIO(payload), out)
        return out.getvalue().splitlines(), served
    server = SocketQueryServer(service)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=30) as conn:
            conn.sendall(payload.encode("utf-8"))
            conn.shutdown(socket.SHUT_WR)
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            lines = reader.read().splitlines()
    finally:
        server.stop()
    return lines, server.requests_served


@pytest.mark.parametrize("transport", ["stdin", "socket"])
@pytest.mark.parametrize(
    "line, error",
    [
        ("[" * 100_000, "RecursionError: "),
        (
            "x" * (MAX_REQUEST_CHARS + 100),
            f"RespdiError: request line exceeds {MAX_REQUEST_CHARS} characters",
        ),
        (json.dumps({"op": ["x"]}), "RespdiError: unknown op ['x']"),
    ],
    ids=["deep-nesting", "overlong", "unhashable-op"],
)
def test_hostile_line_is_answered_in_band(catalog, transport, line, error):
    lines, served = _exchange(
        transport, QueryService(catalog), line + "\n" + PING + "\n"
    )
    first, second = (json.loads(response) for response in lines)
    assert not first["ok"] and first["error"].startswith(error)
    assert second == {"ok": True, "op": "ping"}
    assert served == 2


def test_transports_answer_one_stream_alike(catalog):
    stream = "".join(
        line + "\n"
        for line in (
            "",
            "not json",
            json.dumps(["not", "an", "object"]),
            json.dumps({"op": "nope"}),
            PING,
            json.dumps({"op": "keyword", "text": "alpha", "k": 3}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "stop"}),
        )
    )
    stdin_lines, stdin_served = _exchange(
        "stdin", QueryService(catalog), stream
    )
    socket_lines, socket_served = _exchange(
        "socket", QueryService(catalog), stream
    )
    assert stdin_served == socket_served == 7
    assert len(stdin_lines) == len(socket_lines) == 7
    stats_at = 5
    for index, (via_stdin, via_socket) in enumerate(
        zip(stdin_lines, socket_lines)
    ):
        if index != stats_at:
            assert via_stdin == via_socket, index
    stdin_stats = json.loads(stdin_lines[stats_at])["stats"]
    socket_stats = json.loads(socket_lines[stats_at])["stats"]
    assert stdin_stats.keys() == socket_stats.keys()
    assert {"server", "latency"} <= stdin_stats.keys()
    assert stdin_stats["latency"].keys() == socket_stats["latency"].keys()
    assert stdin_stats["server"]["requests_served"] == 5


def test_max_requests_below_one_is_refused(catalog):
    service = QueryService(catalog)
    with pytest.raises(SpecificationError, match="max_requests"):
        SocketQueryServer(service, max_requests=0)
    with pytest.raises(SpecificationError, match="max_requests"):
        serve(service, io.StringIO(PING + "\n"), io.StringIO(), max_requests=0)


def _drive(transport, server, payload):
    """Run *payload* through *server* over *transport*; returns the lines.

    Over the socket, lone surrogates in *payload* go out as the raw
    (non-UTF-8) bytes they stand for.
    """
    if transport == "stdin":
        out = io.StringIO()
        server.serve_stream(io.StringIO(payload), out)
        return out.getvalue().splitlines()
    server.start()
    try:
        with socket.create_connection(server.address, timeout=30) as conn:
            conn.sendall(payload.encode("utf-8", "surrogateescape"))
            conn.shutdown(socket.SHUT_WR)
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            return reader.read().splitlines()
    finally:
        server.stop()


#: A valid ping on each side of a line of bytes that are not UTF-8.
NOT_UTF8 = PING + "\n\udcff\udcfe bad bytes\n" + PING + "\n"


def _assert_not_utf8_answered(lines):
    first, bad, last = (json.loads(line) for line in lines)
    assert first == last == {"ok": True, "op": "ping"}
    assert not bad["ok"] and bad["error"].startswith("JSONDecodeError: ")


def test_non_utf8_line_is_answered_in_band_over_the_socket(catalog):
    server = SocketQueryServer(QueryService(catalog))
    _assert_not_utf8_answered(_drive("socket", server, NOT_UTF8))
    assert server.requests_served == 3


def test_non_utf8_line_is_answered_in_band_over_a_strict_stdin(catalog):
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "respdi.catalog", "serve", str(catalog)],
        input=NOT_UTF8.encode("utf-8", "surrogateescape"),
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    _assert_not_utf8_answered(result.stdout.decode("utf-8").splitlines())
    assert b"served 3 request(s)" in result.stderr


def test_unknown_ops_add_no_latency_histogram(catalog):
    stream = "".join(
        json.dumps(request) + "\n"
        for request in (
            {"op": "keyword", "text": "alpha", "k": 3, "tenant": "a-b"},
            {"op": "keyword", "text": "beta", "k": 3, "tenant": "a"},
            *({"op": f"bogus{i}", "tenant": f"t{i}"} for i in range(20)),
            {"op": "stats"},
        )
    )
    lines = _drive("stdin", SocketQueryServer(QueryService(catalog)), stream)
    for i, line in enumerate(lines[2:-1]):
        assert json.loads(line)["error"] == f"RespdiError: unknown op 'bogus{i}'"
    stats = json.loads(lines[-1])["stats"]
    # Sorted on the reported key, as ever: ``tenant.a`` before ``tenant.a-b``.
    assert list(stats["latency"]) == ["kind.keyword", "tenant.a", "tenant.a-b"]
    assert stats["server"]["requests_served"] == 22


@pytest.mark.parametrize("transport", ["stdin", "socket"])
def test_stats_counts_equal_the_global_registry(catalog, tmp_path, transport):
    server = SocketQueryServer(
        QueryService(catalog, cache_size=1),
        pcache=PersistentResultCache(tmp_path / "pcache"),
        admission=AdmissionController(quotas={"noisy": (0.001, 1.0)}),
    )
    alpha = {"op": "keyword", "text": "alpha", "k": 3, "tenant": "noisy"}
    beta = {"op": "keyword", "text": "beta", "k": 3}
    stream = "not json\n" + "".join(
        # alpha admitted, then shed; beta evicts alpha from the 1-entry
        # memory cache, then hits the persistent tier.
        json.dumps(request) + "\n"
        for request in (alpha, alpha, beta, beta, {"op": "stats"})
    )
    obs.enable()
    obs.reset()
    try:
        lines = _drive(transport, server, stream)
        stats = json.loads(lines[-1])["stats"]
        pcache, totals = stats["pcache"], stats["admission"]["totals"]
        assert stats["evictions"] == pcache["hits"] == totals["rejected_quota"] == 1
        expected = [
            ("serve.requests", server.requests_served),
            ("serve.connections", stats["server"]["connections_accepted"]),
            ("service.cache.hit", stats["hits"]),
            ("service.cache.miss", stats["misses"]),
            ("service.cache.evict", stats["evictions"]),
            ("service.pcache.hit", pcache["hits"]),
            ("service.pcache.miss", pcache["misses"]),
            ("service.pcache.store", pcache["stores"]),
            ("service.pcache.evict", pcache["evictions"]),
            ("service.pcache.corrupt", pcache["corrupt_discarded"]),
            ("service.pcache.swept", pcache["swept"]),
            ("serve.admitted", totals["admitted"]),
            ("serve.rejected.quota", totals["rejected_quota"]),
            ("serve.rejected.inflight", totals["rejected_inflight"]),
        ]
        registry = obs.global_registry()
        assert [
            (name, registry.counter_value(name)) for name, _ in expected
        ] == expected
        assert server.requests_served == 6
    finally:
        obs.disable()
        obs.reset()
