"""Scatter-gather names, importable from this module as well.

Every catalog — plain or sharded — is served by the one
:class:`~respdi.service.service.QueryService`, which pins a
:class:`~respdi.service.service.ShardVector` and merges per-shard
partials with :func:`~respdi.service.service.merge_ranked`.
``ShardedQueryService`` is an alias of that class for callers that
import it under this name.
"""

from respdi.service.service import QueryService, merge_ranked

ShardedQueryService = QueryService

__all__ = ["ShardedQueryService", "merge_ranked"]
