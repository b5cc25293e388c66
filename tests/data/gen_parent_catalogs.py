"""Write the catalogs under ``parent_catalogs/`` as commit ``ed86a99`` wrote them.

``ed86a99`` is the last commit whose catalog commits also wrote a
whole-store LSH Ensemble file (``ensemble-<gen>.npz``, named by the
manifest's ``ensemble_file`` key).  No reader ever loaded that file, and
later commits stop writing it.  The two catalogs here are the on-disk
proof that catalogs written before that change still open, verify and
serve, and drop the file at their first commit
(``tests/test_catalog_parent_fixture.py``):

* ``parent_catalogs/plain``   -- one :class:`CatalogStore`;
* ``parent_catalogs/sharded`` -- a 2-shard :class:`ShardedCatalogStore`.

Both hold the three 8-row tables of :func:`parent_tables`, built with
``rng=7, num_hashes=16, sketch_size=16``.  The files were produced by
copying this script into an export of ``ed86a99`` and running it there:

    mkdir "$DIR" && git archive ed86a99 | tar -x -C "$DIR"
    cp tests/data/gen_parent_catalogs.py "$DIR/tests/data/"
    (cd "$DIR" && PYTHONPATH=src python tests/data/gen_parent_catalogs.py)
    cp -r "$DIR/tests/data/parent_catalogs" tests/data/

Running it at a later commit writes catalogs without the ensemble file,
which would no longer test anything, so it refuses to overwrite an
existing directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

from respdi.catalog import CatalogStore, ShardedCatalogStore
from respdi.table import Schema, Table

OUT = Path(__file__).with_name("parent_catalogs")
OPTS = dict(rng=7, num_hashes=16, sketch_size=16)
NUM_SHARDS = 2

#: Keyword-searchable descriptions, stored in each entry's meta.json.
DESCRIPTIONS = {
    "cities": "city populations",
    "people": "residents and their home city",
    "orders": "customer orders shipped to a city",
}

_CITIES = ["lisbon", "porto", "braga", "faro", "evora", "coimbra", "aveiro", "leiria"]


def parent_tables() -> dict:
    """The three tables, in build order (they route to both shards)."""
    cities = Table.from_rows(
        Schema([("city", "categorical"), ("population", "numeric")]),
        [(city, float(1000 * (i + 1))) for i, city in enumerate(_CITIES)],
    )
    people = Table.from_rows(
        Schema([("name", "categorical"), ("city", "categorical"), ("age", "numeric")]),
        [(f"person_{i}", _CITIES[i % 4], float(20 + 3 * i)) for i in range(8)],
    )
    orders = Table.from_rows(
        Schema([("customer", "categorical"), ("city", "categorical"), ("amount", "numeric")]),
        [(f"person_{i % 5}", _CITIES[2 + i % 6], float(10 * i + 5)) for i in range(8)],
    )
    return {"cities": cities, "people": people, "orders": orders}


def main() -> int:
    if OUT.exists():
        print(f"{OUT} exists; it must keep the bytes ed86a99 wrote", file=sys.stderr)
        return 1
    tables = parent_tables()
    CatalogStore.build(OUT / "plain", tables, descriptions=DESCRIPTIONS, **OPTS)
    ShardedCatalogStore.build(
        OUT / "sharded", tables, descriptions=DESCRIPTIONS, num_shards=NUM_SHARDS, **OPTS
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
