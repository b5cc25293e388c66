"""respdi.service — the concurrent read path over a persisted catalog.

Where :mod:`respdi.catalog` made discovery state durable, this package
makes it *servable*: one long-lived :class:`QueryService` answers
keyword / union / join / containment / match queries for any catalog,
plain or sharded.  It pins one :class:`Snapshot` per shard into a
:class:`ShardVector` (a plain store is its own single shard; readers see
exactly one committed generation per shard, even mid-refresh), scatters
each query over the shards and merges the ranked partials
(:func:`merge_ranked`), memoizes results in a bounded LRU keyed by
``(generation, query fingerprint)``, and fans batches out over
:mod:`respdi.parallel`.  ``respdi-catalog serve`` exposes the same
machinery as a JSON-lines request loop, and
``ResponsibleIntegrationPipeline.discover_sources(service=...)`` runs
pipeline discovery through it.

The loop is one :meth:`SocketQueryServer.serve_stream`, run once over
stdin/stdout by :func:`serve` and, under ``respdi-catalog serve
--port``, once per TCP connection of a multi-tenant socket server:
per-tenant token-bucket quotas and a bounded inflight gate
(:class:`AdmissionController`), p50/p99 latency histograms, and an
optional crash-safe on-disk result cache (:class:`PersistentResultCache`)
that warm-starts a restarted server with byte-identical responses.

Invariant the test suite enforces: a cached answer is byte-identical to
an uncached one, which is byte-identical to querying a cold
:class:`~respdi.discovery.lake_index.DataLakeIndex` over the same
tables, whatever the shard count.
"""

from respdi.service.admission import (
    AdmissionController,
    TokenBucket,
    parse_quota_specs,
)
from respdi.service.cache import QueryResultCache
from respdi.service.netserver import SocketQueryServer, serve
from respdi.service.pcache import PersistentResultCache, open_pcache
from respdi.service.queries import (
    ContainmentQuery,
    JoinQuery,
    KeywordQuery,
    MatchQuery,
    Query,
    UnionQuery,
)
from respdi.service.server import build_query, handle_request
from respdi.service.service import (
    QueryService,
    ShardVector,
    Snapshot,
    merge_ranked,
    pin_snapshot,
    reset_shared_services,
    shared_service,
)
from respdi.service.sharded import ShardedQueryService

__all__ = [
    "AdmissionController",
    "ContainmentQuery",
    "JoinQuery",
    "KeywordQuery",
    "MatchQuery",
    "PersistentResultCache",
    "Query",
    "QueryResultCache",
    "QueryService",
    "ShardVector",
    "ShardedQueryService",
    "Snapshot",
    "SocketQueryServer",
    "TokenBucket",
    "UnionQuery",
    "build_query",
    "handle_request",
    "merge_ranked",
    "open_pcache",
    "parse_quota_specs",
    "pin_snapshot",
    "reset_shared_services",
    "serve",
    "shared_service",
]
