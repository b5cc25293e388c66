"""Answer one parsed ``respdi-catalog serve`` request.

:func:`build_query` turns a request object into a fingerprintable
:class:`~respdi.service.queries.Query`, and :func:`handle_request`
answers it through the shared :class:`QueryService` machinery — pinned
snapshots, generation-keyed cache, obs counters, and optionally the
persistent result cache.  Reading, parsing, counting and framing request
lines is the job of the one request loop,
:meth:`respdi.service.netserver.SocketQueryServer.serve_stream`, which
serves both stdin (:func:`respdi.service.serve`) and TCP connections.

Request ops::

    {"op": "keyword", "text": "demographics", "k": 10}
    {"op": "join", "values": ["a", "b"], "k": 5, "min_overlap": 1}
    {"op": "join", "csv": "query.csv", "column": "key", "k": 5}
    {"op": "union", "csv": "query.csv", "k": 5}
    {"op": "containment", "values": ["a", "b"], "threshold": 0.5, "k": 3}
    {"op": "match", "csv": "dirty.csv", "match_strength": "fuzzy",
     "keys": ["name"], "threshold": 0.85, "window": 8}
    {"op": "stats"}      # cache/snapshot counters
    {"op": "reload"}     # re-pin the latest committed generation
    {"op": "ping"}
    {"op": "stop"}       # handled by the loop: drain and end the stream

Every response carries ``ok`` plus either the rendered ``results`` and
the ``generation`` they were computed against, or an ``error`` string.
Responses render through :meth:`respdi.service.queries.Query.render`,
so their bytes are a deterministic function of (catalog generation,
request): the differential suite compares served lines across backends
and ``PYTHONHASHSEED`` values directly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from respdi.errors import RespdiError
from respdi.faults.plan import fault_point
from respdi.service.cache import is_hit
from respdi.service.queries import (
    ContainmentQuery,
    JoinQuery,
    KeywordQuery,
    MatchQuery,
    Query,
    UnionQuery,
)
from respdi.service.service import QueryService
from respdi.table import read_csv


def _require(request: Dict[str, Any], field: str) -> Any:
    value = request.get(field)
    if value is None:
        raise RespdiError(f"{request.get('op')!r} request needs {field!r}")
    return value


def _join_values(request: Dict[str, Any]) -> tuple:
    if "values" in request:
        return tuple(request["values"])
    csv_path = _require(request, "csv")
    column = _require(request, "column")
    return tuple(read_csv(csv_path).unique(column))


def build_query(request: Dict[str, Any]) -> Query:
    """Translate one request object into a fingerprintable :class:`Query`."""
    op = _require(request, "op")
    k = int(request.get("k", 10))
    if op == "keyword":
        return KeywordQuery(text=str(_require(request, "text")), k=k)
    if op == "union":
        return UnionQuery(table=read_csv(_require(request, "csv")), k=k)
    if op == "join":
        return JoinQuery(
            values=_join_values(request),
            k=k,
            min_overlap=int(request.get("min_overlap", 1)),
        )
    if op == "containment":
        return ContainmentQuery(
            values=tuple(_require(request, "values")),
            threshold=float(_require(request, "threshold")),
            k=None if request.get("k") is None else k,
        )
    if op == "match":
        return MatchQuery(
            table=read_csv(_require(request, "csv")),
            strength=str(_require(request, "match_strength")),
            keys=tuple(_require(request, "keys")),
            threshold=float(request.get("threshold", 0.85)),
            window=int(request.get("window", 8)),
        )
    raise RespdiError(f"unknown op {op!r}")


def handle_request(
    service: QueryService,
    request: Dict[str, Any],
    cached: bool = True,
    pcache: Optional[Any] = None,
) -> Dict[str, Any]:
    """Answer one already-parsed request.

    A failing request raises; the request loop answers it in-band.

    With *pcache* (a :class:`~respdi.service.pcache.PersistentResultCache`),
    query results are additionally served from — and stored to — the
    on-disk sidecar at *rendered* granularity: a persistent hit skips
    both the query computation and the render, and produces the same
    response bytes either way (the entry is keyed by the exact
    ``(generation, fingerprint)`` pair and checksum-gated on read).
    """
    fault_point("service.serve.request", op=request.get("op"))
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "op": "ping"}
    if op == "stats":
        stats = service.stats()
        if pcache is not None:
            stats["pcache"] = pcache.stats()
        return {"ok": True, "op": "stats", "stats": stats}
    if op == "reload":
        # The operator's (and the ingest daemon's) re-pin-on-demand: a
        # long-lived server picks up whatever generation is committed
        # right now, without waiting for the next query's token check.
        old, new = service.reload()
        return {
            "ok": True,
            "op": "reload",
            "previous_generation": old,
            "generation": new,
        }
    query = build_query(request)
    snapshot = service.snapshot()
    generation = snapshot.generation
    if pcache is not None:
        pcache.observe_generation(generation)
        payload = pcache.get(generation, query.fingerprint)
        if is_hit(payload):
            return {
                "ok": True,
                "op": op,
                "generation": generation,
                "results": payload,
            }
    result = service._query_at(query, snapshot, cached)
    rendered = query.render(result)
    if pcache is not None:
        pcache.put(generation, query.fingerprint, rendered, op=op)
    return {
        "ok": True,
        "op": op,
        "generation": generation,
        "results": rendered,
    }

