"""The generation's wire shape for plain, 1-shard and 4-shard catalogs.

A plain catalog reports its generation as an int; a catalog with a
``SHARDS.json`` reports the per-shard vector as a list, one shard
included.  The shape reaches clients (the query response, both ``reload``
fields, ``stats``) and disk (a persistent-cache entry's filename hashes
the generation), so the values below were recorded from the service
that first shipped these layouts: rendering a 1-shard vector as a plain
int would rename its sidecar entries and orphan every existing one.
"""

import io
import json

import pytest

from respdi.catalog import CatalogStore, ShardedCatalogStore
from respdi.service import QueryService, open_pcache, serve
from respdi.table import Schema, Table

SCHEMA = Schema([("key", "categorical"), ("value", "numeric")])
OPTS = dict(rng=7, num_hashes=16, sketch_size=16)


def _table(tag, n=8):
    rows = [(f"{tag}_{i}", float(i)) for i in range(n)]
    return Table.from_rows(SCHEMA, rows)


TABLES = {"alpha": _table("a"), "beta": _table("b"), "gamma": _table("g")}

REQUESTS = [
    {"op": "keyword", "text": "alpha", "k": 4},
    {"op": "reload"},
    {"op": "stats"},
]

#: layout -> (shard count or None, generation on the wire, pcache entry).
EXPECTED = {
    "plain": (None, 2, "dac567b8bed5d2107467072db7fc3ec8.json"),
    "1-shard": (1, [2], "9e8bfdf5a5ead80bf0c8333abd9d3ead.json"),
    "4-shard": (4, [1, 2, 2, 1], "2330ed3e23b2621df91164008b8aade1.json"),
}


@pytest.mark.parametrize("layout", list(EXPECTED))
def test_generation_wire_shape_and_pcache_filename(tmp_path, layout):
    num_shards, generation, filename = EXPECTED[layout]
    directory = tmp_path / "cat"
    if num_shards is None:
        CatalogStore.build(directory, TABLES, **OPTS)
    else:
        ShardedCatalogStore.build(
            directory, TABLES, num_shards=num_shards, **OPTS
        )
    sidecar = tmp_path / "pcache"
    out = io.StringIO()
    serve(
        QueryService(directory, cache_size=8),
        io.StringIO("".join(json.dumps(r) + "\n" for r in REQUESTS)),
        out,
        pcache=open_pcache(directory, directory=sidecar),
    )
    keyword, reload, stats = (
        json.loads(line) for line in out.getvalue().splitlines()
    )

    assert keyword["ok"] and keyword["generation"] == generation
    assert reload["previous_generation"] == generation
    assert reload["generation"] == generation
    assert stats["stats"]["generation"] == generation
    assert stats["stats"]["committed_generation"] == generation
    assert stats["stats"].get("shards") == num_shards
    assert sorted(path.name for path in sidecar.iterdir()) == [filename]
