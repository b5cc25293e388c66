"""respdi.catalog — a persistent, concurrent data-lake catalog.

Registering tables into a :class:`CatalogStore` persists their MinHash
signatures, keyword/joinability substrate, and transparency artifacts
(nutritional labels, datasheets) to a versioned, checksummed directory.
:meth:`CatalogStore.index` then rehydrates a
:class:`~respdi.discovery.lake_index.DataLakeIndex` — LSH Ensemble
partitions rebuilt from the stored signatures — without re-reading raw
data (the *warm start*), with query results identical to a cold build.
Many processes may read concurrently; writers serialize on a lock file
(:mod:`respdi.catalog.locking`).

Command line: ``respdi-catalog build|add|remove|refresh|query|verify|info``
(also ``python -m respdi.catalog``).
"""

from respdi.catalog.cli import main
from respdi.catalog.locking import break_stale_lock, writer_lock
from respdi.catalog.sharding import (
    ShardedCatalogStore,
    is_sharded,
    open_catalog,
    reshard,
    shard_for,
)
from respdi.catalog.store import (
    CATALOG_SCHEMA_VERSION,
    CatalogStore,
    load_catalog_index,
    table_fingerprint,
)

__all__ = [
    "CATALOG_SCHEMA_VERSION",
    "CatalogStore",
    "ShardedCatalogStore",
    "break_stale_lock",
    "is_sharded",
    "load_catalog_index",
    "main",
    "open_catalog",
    "reshard",
    "shard_for",
    "table_fingerprint",
    "writer_lock",
]
