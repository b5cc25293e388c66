"""A containment request's ``k`` is cast and checked like every other kind's.

Over both transports of the serve loop (stdin and a socket connection),
and over a plain and a 2-shard catalog: ``"k": "2"`` and ``"k": 2.5``
answer what ``"k": 2`` answers, and ``k`` below 1 is refused in-band
with the message the other kinds use, instead of answering ``[]`` or
silently dropping the last hit.  A request without ``k`` still gets
every hit.  The library entry points refuse such a ``k`` too.
"""

import io
import json
import socket

import pytest

from respdi.catalog import CatalogStore, ShardedCatalogStore
from respdi.discovery import DataLakeIndex
from respdi.errors import SpecificationError
from respdi.service import ContainmentQuery, QueryService, SocketQueryServer, serve
from respdi.table import Schema, Table

SCHEMA = Schema([("key", "categorical"), ("value", "numeric")])
KEY_RANGES = {"alpha": (0, 10), "beta": (0, 8), "gamma": (2, 10), "delta": (0, 5)}
TABLES = {
    name: Table.from_rows(SCHEMA, [(f"k{i}", float(i)) for i in range(*bounds)])
    for name, bounds in KEY_RANGES.items()
}
OPTS = dict(rng=7, num_hashes=128, sketch_size=16)
VALUES = [f"k{i}" for i in range(5)]


def _request(**fields):
    return {"op": "containment", "values": VALUES, "threshold": 0.5, **fields}


@pytest.fixture(params=["plain", "sharded"])
def catalog(request, tmp_path):
    directory = tmp_path / "cat"
    if request.param == "plain":
        CatalogStore.build(directory, TABLES, **OPTS)
    else:
        ShardedCatalogStore.build(directory, TABLES, num_shards=2, **OPTS)
    return directory


def _exchange(transport, service, requests):
    payload = "".join(json.dumps(request) + "\n" for request in requests)
    if transport == "stdin":
        out = io.StringIO()
        serve(service, io.StringIO(payload), out)
        lines = out.getvalue().splitlines()
    else:
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
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("transport", ["stdin", "socket"])
def test_containment_k_is_cast_and_checked(catalog, transport):
    full, two, as_text, as_float, zero, negative = _exchange(
        transport,
        QueryService(catalog),
        [
            _request(),
            _request(k=2),
            _request(k="2"),
            _request(k=2.5),
            _request(k=0),
            _request(k=-1),
        ],
    )
    assert full["ok"] and len(full["results"]) >= 3
    assert two["ok"] and two["results"] == full["results"][:2]
    assert as_text == two
    assert as_float == two
    for refused in (zero, negative):
        assert refused == {"ok": False, "error": "SpecificationError: k must be >= 1"}


def test_library_entry_points_refuse_k_below_one(catalog):
    index = DataLakeIndex(**OPTS)
    for name, table in TABLES.items():
        index.register(name, table)
    service = QueryService(catalog)
    for k in (0, -1):
        with pytest.raises(SpecificationError, match="k must be >= 1"):
            index.containment_search(VALUES, 0.5, k=k)
        with pytest.raises(SpecificationError, match="k must be >= 1"):
            service.query(ContainmentQuery(values=tuple(VALUES), threshold=0.5, k=k))
    assert len(index.containment_search(VALUES, 0.5, k=1)) == 1
