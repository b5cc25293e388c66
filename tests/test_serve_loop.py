"""The one serve request loop, driven over both of its transports.

``serve`` (stdin) and a ``SocketQueryServer`` connection run the same
``serve_stream`` loop, so every test here runs once per transport or
compares the two directly: hostile lines (nesting past the recursion
limit, a line past ``MAX_REQUEST_CHARS``, an ``op`` that cannot be
hashed) are answered in-band and the loop keeps serving; one mixed
stream gets the same response lines, the same ``stats`` sections and the
same served count on both; and a ``max_requests`` that could serve
nothing is refused up front.
"""

import io
import json
import socket

import pytest

from respdi.catalog import CatalogStore
from respdi.errors import SpecificationError
from respdi.service import QueryService, SocketQueryServer, serve
from respdi.service.netserver import MAX_REQUEST_CHARS
from respdi.table import Schema, Table

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
