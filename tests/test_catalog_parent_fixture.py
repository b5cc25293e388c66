"""Catalogs written while commits still wrote an LSH Ensemble file work as-is.

``tests/data/parent_catalogs`` holds a plain and a 2-shard catalog as
commit ``ed86a99`` wrote them (see ``tests/data/gen_parent_catalogs.py``):
every manifest lists an ``ensemble-<gen>.npz`` under ``files`` and names
it in ``ensemble_file``.  Nothing ever read that file, and later commits
no longer write it, so no migration step exists.  Such a catalog must
open, verify clean and answer every discovery query exactly as a cold
index over the same tables does, and its first commit must drop the
ensemble from the manifest and from disk.
"""

import shutil
from pathlib import Path

import pytest
import tests.data.gen_parent_catalogs as gen

from respdi.catalog import ShardedCatalogStore, open_catalog, table_fingerprint
from respdi.catalog.store import read_manifest
from respdi.discovery import DataLakeIndex
from respdi.service import (
    ContainmentQuery,
    JoinQuery,
    KeywordQuery,
    QueryService,
    UnionQuery,
)
from respdi.table import Schema, Table

FIXTURES = Path(__file__).parent / "data" / "parent_catalogs"
CITIES = ("lisbon", "porto", "braga", "faro")

#: One changed table per shard of the 2-shard layout ("people" routes to
#: shard 0, "orders" to shard 1), so every manifest commits exactly once.
CHANGED = {
    "people": Table.from_rows(
        Schema([("name", "categorical"), ("city", "categorical"), ("age", "numeric")]),
        [(f"person_{i}", CITIES[(i + 1) % 4], float(30 + i)) for i in range(8)],
    ),
    "orders": Table.from_rows(
        Schema([("customer", "categorical"), ("city", "categorical"), ("amount", "numeric")]),
        [(f"person_{i % 3}", CITIES[i % 4], float(7 * i)) for i in range(8)],
    ),
}


def _manifest_dirs(store):
    if isinstance(store, ShardedCatalogStore):
        return [shard.directory for shard in store.shards]
    return [store.directory]


def _assert_answers_like_cold_index(directory, tables):
    cold = DataLakeIndex(**gen.OPTS)
    for name, table in tables.items():
        cold.register(name, table, gen.DESCRIPTIONS[name])
    queries = [
        KeywordQuery(text="city", k=5),
        UnionQuery(table=tables["people"], k=5),
        JoinQuery(values=CITIES, k=5),
        ContainmentQuery(values=CITIES, threshold=0.3),
    ]
    service = QueryService(directory)
    for query in queries:
        served = service.query(query, cached=False)
        assert served, f"{query.kind} found nothing: the check would be vacuous"
        assert repr(served) == repr(query.run(cold)), query.kind


@pytest.mark.parametrize("layout", ["plain", "sharded"])
def test_parent_catalog_serves_then_drops_its_ensemble_at_first_commit(
    layout, tmp_path
):
    directory = tmp_path / layout
    shutil.copytree(FIXTURES / layout, directory)
    store = open_catalog(directory)
    manifest_dirs = _manifest_dirs(store)
    before = {path: read_manifest(path) for path in manifest_dirs}
    for path, manifest in before.items():
        ensemble = manifest["ensemble_file"]
        assert ensemble.startswith("ensemble-") and ensemble in manifest["files"]
        assert (path / ensemble).is_file()
    assert store.verify() == []
    tables = gen.parent_tables()
    assert {name: store.meta(name)["fingerprint"] for name in store.names} == {
        name: table_fingerprint(table) for name, table in tables.items()
    }
    _assert_answers_like_cold_index(directory, tables)

    updated = store.refresh_many({**tables, **CHANGED})
    assert updated == {name: name in CHANGED for name in tables}

    for path in manifest_dirs:
        manifest = read_manifest(path)
        assert (
            manifest["ensemble_generation"]
            == before[path]["ensemble_generation"] + 1
        )
        assert "ensemble_file" not in manifest
        assert [name for name in manifest["files"] if "ensemble" in name] == []
        assert list(path.glob("ensemble*")) == []
    assert open_catalog(directory).verify() == []
    _assert_answers_like_cold_index(directory, {**tables, **CHANGED})
