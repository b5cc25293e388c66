"""Sharded catalogs: N independently-locked stores behind one facade.

A single :class:`~respdi.catalog.store.CatalogStore` serializes every
mutation on one writer lock and publishes every commit through one
manifest — correct, but a scaling bottleneck: two writers touching
disjoint tables still contend, and one bulk build is one giant critical
section.  :class:`ShardedCatalogStore` partitions the catalog over
``num_shards`` directories, each a *complete* ``CatalogStore`` (own
manifest, own entries, own lock), so builds and refreshes fan out
shard-parallel over :mod:`respdi.parallel` and writers on different
shards never wait on each other.

Layout::

    <catalog>/
      SHARDS.json            # shard count, shard dirs, hasher fingerprint
      shard-0000/            # a full CatalogStore (MANIFEST.json, ...)
      shard-0001/
      ...

Routing is by :func:`shard_for` — a stable blake2b fingerprint of the
table's *name* reduced mod ``num_shards``.  The name, not the content
fingerprint: content changes on every refresh, and an entry must never
migrate between shards when its bytes change (the refresh would look for
it on the wrong shard).  blake2b makes the route a pure function of the
name — identical across processes, platforms, and ``PYTHONHASHSEED``
values, like every other hash in the catalog.

Every shard shares **one** :class:`~respdi.discovery.minhash.MinHasher`
(built once at :meth:`ShardedCatalogStore.create`, persisted per shard,
fingerprint pinned in ``SHARDS.json``).  That is what makes shard-local
sketches globally comparable: a scatter-gathered query scores each
shard's candidates with the same hash family a single unsharded store
would have used, so merged results can be byte-identical to unsharded
ones (see :mod:`respdi.service.service`).

Crash semantics compose from the per-shard commit protocol: each shard
publishes atomically via its own manifest rename, so a writer killed
mid-fan-out leaves every shard *independently* complete-old or
complete-new — readers pinned to a generation vector observe one
committed state per shard throughout.  ``SHARDS.json`` itself is written
last during ``create`` (atomic tmp+rename), so a half-created sharded
catalog is simply "not a catalog yet", never a torn one.  The fault
points ``shard.route`` / ``shard.commit`` / ``shard.gather`` expose
routing, the per-shard commit fan-out, and the query-side merge to the
crash matrix in ``tests/test_sharded_crash.py``.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import defaultdict
from hashlib import blake2b
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from respdi import obs
from respdi._fsutil import atomic_write_text
from respdi.catalog.store import (
    MANIFEST_FILENAME,
    CatalogStore,
    table_fingerprint,  # noqa: F401  (re-exported for shard-aware callers)
)
from respdi.discovery.minhash import MinHasher
from respdi.errors import CatalogCorruptError, SpecificationError
from respdi.faults.plan import fault_point
from respdi.parallel import ExecutionContext, map_chunked
from respdi.profiling.datasheets import Datasheet
from respdi.table import Table

PathLike = Union[str, Path]

#: On-disk shard-map format version; bump on incompatible layout changes.
SHARDS_SCHEMA_VERSION = 1

SHARDS_FILENAME = "SHARDS.json"


def shard_dirname(index: int) -> str:
    """The directory name of shard *index* (zero-padded, sorts naturally)."""
    return f"shard-{index:04d}"


def shard_for(name: str, num_shards: int) -> int:
    """The shard index responsible for table *name*.

    A pure function of ``(name, num_shards)``: blake2b over the UTF-8
    name, reduced mod the shard count.  Stable across processes and
    ``PYTHONHASHSEED`` values (property-tested in
    ``tests/test_catalog_sharding.py``), so every process routes every
    table identically without coordination.
    """
    if num_shards < 1:
        raise SpecificationError("num_shards must be >= 1")
    digest = blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def is_sharded(directory: PathLike) -> bool:
    """True when *directory* holds a sharded catalog (has ``SHARDS.json``)."""
    return (Path(directory) / SHARDS_FILENAME).is_file()


def read_shard_spec(directory: PathLike) -> dict:
    """Parse ``SHARDS.json`` without opening the shards."""
    spec_path = Path(directory) / SHARDS_FILENAME
    try:
        with spec_path.open() as handle:
            spec = json.load(handle)
    except OSError:
        raise SpecificationError(
            f"{directory} is not a sharded catalog (no {SHARDS_FILENAME})"
        ) from None
    except ValueError as exc:
        raise CatalogCorruptError(
            f"{spec_path} is not valid JSON: {exc}"
        ) from None
    version = spec.get("schema_version")
    if version != SHARDS_SCHEMA_VERSION:
        raise SpecificationError(
            f"shard map schema_version {version!r} is not supported "
            f"(this library reads {SHARDS_SCHEMA_VERSION})"
        )
    return spec


class _ShardAddTask:
    """Register one shard's routed tables (picklable for ``processes``).

    Each worker opens its shard store *from disk* — no shared store
    object, no shared lock — and registers its subset under that shard's
    own writer lock with one commit.  ``shard.commit`` fires before the
    mutation so the crash matrix can kill a fan-out between shard
    commits and assert per-shard old-or-new.
    """

    __slots__ = ("directory", "descriptions", "store_data")

    def __init__(self, directory: str, descriptions, store_data: bool) -> None:
        self.directory = directory
        self.descriptions = descriptions
        self.store_data = store_data

    def __call__(self, payload: Tuple[int, Dict[str, Table]]) -> int:
        index, tables = payload
        fault_point("shard.commit", shard=index, op="add_tables")
        shard = CatalogStore.open(Path(self.directory) / shard_dirname(index))
        shard.add_tables(
            tables,
            descriptions={
                name: self.descriptions[name]
                for name in tables
                if name in self.descriptions
            },
            store_data=self.store_data,
        )
        return index


class _ShardRefreshTask:
    """Refresh one shard's routed tables (picklable for ``processes``)."""

    __slots__ = ("directory",)

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def __call__(
        self, payload: Tuple[int, Dict[str, Table]]
    ) -> Dict[str, bool]:
        index, tables = payload
        fault_point("shard.commit", shard=index, op="refresh_many")
        shard = CatalogStore.open(Path(self.directory) / shard_dirname(index))
        return shard.refresh_many(tables)


class ShardedCatalogStore:
    """N independently-locked :class:`CatalogStore` shards, one facade.

    Single-table operations route to exactly one shard and cost exactly
    one shard's lock; bulk operations (:meth:`build` via
    :meth:`add_tables`, :meth:`refresh_many`) group tables by shard and
    fan the per-shard work out over :mod:`respdi.parallel` — with the
    ``processes`` backend, shard commits genuinely overlap because each
    worker holds only its own shard's lock.
    """

    def __init__(
        self, directory: PathLike, spec: dict, shards: List[CatalogStore]
    ) -> None:
        self.directory = Path(directory)
        self._spec = spec
        self.shards = shards

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: PathLike,
        num_shards: int = 4,
        num_hashes: int = 128,
        sketch_size: int = 64,
        num_partitions: int = 4,
        values_per_column: int = 50,
        rng=None,
        hasher: Optional[MinHasher] = None,
    ) -> "ShardedCatalogStore":
        """Initialize an empty *num_shards*-way sharded catalog.

        The shard directories are created first; ``SHARDS.json`` — the
        file that makes the directory *be* a sharded catalog — is
        written last, atomically, so a crash mid-create leaves behind
        directories :meth:`open` refuses, never a torn catalog.
        """
        if num_shards < 1:
            raise SpecificationError("num_shards must be >= 1")
        directory = Path(directory)
        if (directory / SHARDS_FILENAME).exists():
            raise SpecificationError(
                f"{directory} already holds a sharded catalog"
            )
        if (directory / MANIFEST_FILENAME).exists():
            raise SpecificationError(
                f"{directory} already holds an unsharded catalog"
            )
        directory.mkdir(parents=True, exist_ok=True)
        if hasher is None:
            hasher = MinHasher(num_hashes, rng)
        shards = [
            CatalogStore.create(
                directory / shard_dirname(index),
                num_hashes=num_hashes,
                sketch_size=sketch_size,
                num_partitions=num_partitions,
                values_per_column=values_per_column,
                rng=rng,
                hasher=hasher,
            )
            for index in range(num_shards)
        ]
        spec = {
            "schema_version": SHARDS_SCHEMA_VERSION,
            "num_shards": num_shards,
            "shards": [shard_dirname(index) for index in range(num_shards)],
            "hasher_fingerprint": hasher.fingerprint,
            "seed": rng if isinstance(rng, int) else None,
        }
        atomic_write_text(
            directory / SHARDS_FILENAME,
            json.dumps(spec, indent=2, sort_keys=True),
        )
        return cls(directory, spec, shards)

    @classmethod
    def open(cls, directory: PathLike) -> "ShardedCatalogStore":
        """Open an existing sharded catalog, validating the shard map."""
        directory = Path(directory)
        with obs.trace("catalog.shards.open", directory=str(directory)):
            spec = read_shard_spec(directory)
            shards = [
                CatalogStore.open(directory / dirname)
                for dirname in spec["shards"]
            ]
            expected = spec.get("hasher_fingerprint")
            for dirname, shard in zip(spec["shards"], shards):
                if shard.hasher.fingerprint != expected:
                    raise CatalogCorruptError(
                        f"shard {dirname} uses a different hash family than "
                        "the shard map pins (mixed-hasher state)"
                    )
            return cls(directory, spec, shards)

    @classmethod
    def build(
        cls,
        directory: PathLike,
        tables: Dict[str, Table],
        descriptions: Optional[Dict[str, str]] = None,
        store_data: bool = False,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
        num_shards: int = 4,
        **create_options,
    ) -> "ShardedCatalogStore":
        """Create a sharded catalog and register every table (cold build).

        Tables route to their shards first; each shard's subset is then
        built by an independent worker holding only that shard's lock,
        so with the ``processes`` backend the expensive sketching *and*
        the commits run genuinely in parallel (``benchmarks/bench_shards.py``
        measures the speedup and asserts result identity).
        """
        store = cls.create(directory, num_shards=num_shards, **create_options)
        store.add_tables(
            tables,
            descriptions=descriptions,
            store_data=store_data,
            context=context,
            n_jobs=n_jobs,
        )
        return store

    # -- shard-map introspection ---------------------------------------------

    @property
    def num_shards(self) -> int:
        return int(self._spec["num_shards"])

    @property
    def hasher(self) -> MinHasher:
        """The hash family every shard shares."""
        return self.shards[0].hasher

    @property
    def num_partitions(self) -> int:
        return self.shards[0].num_partitions

    @property
    def generations(self) -> Tuple[int, ...]:
        """The per-shard generation vector this facade currently reflects.

        One component per shard, in shard order; each component has the
        single-store meaning (one immutable committed shard state), so
        the whole tuple names one committed state *per shard* — the key
        the scatter-gather service pins snapshots and caches results
        under.
        """
        return tuple(int(shard.generation) for shard in self.shards)

    @property
    def names(self) -> List[str]:
        """Registered table names: shard order, registration order within."""
        return [name for shard in self.shards for name in shard.names]

    def __contains__(self, name: str) -> bool:
        return name in self.shards[shard_for(name, self.num_shards)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def shard_of(self, name: str) -> CatalogStore:
        """The shard store responsible for *name* (routing fault-pointed)."""
        index = shard_for(name, self.num_shards)
        fault_point("shard.route", table=name, shard=index)
        return self.shards[index]

    def _route_tables(
        self, tables: Dict[str, Table]
    ) -> Dict[int, Dict[str, Table]]:
        """Group *tables* by shard index, preserving input order per shard."""
        routed: Dict[int, Dict[str, Table]] = defaultdict(dict)
        for name, table in tables.items():
            index = shard_for(name, self.num_shards)
            fault_point("shard.route", table=name, shard=index)
            routed[index][name] = table
        return routed

    # -- mutation ------------------------------------------------------------

    def add_tables(
        self,
        tables: Dict[str, Table],
        descriptions: Optional[Dict[str, str]] = None,
        store_data: bool = False,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        """Bulk-register *tables*, fanning out one worker per shard."""
        if not tables:
            return
        descriptions = dict(descriptions or {})
        routed = self._route_tables(tables)
        payloads = [
            (index, routed[index]) for index in sorted(routed)
        ]
        with obs.trace(
            "catalog.shards.build", tables=len(tables), shards=len(payloads)
        ):
            map_chunked(
                _ShardAddTask(str(self.directory), descriptions, store_data),
                payloads,
                context=context,
                n_jobs=n_jobs,
                label="catalog.shards.build",
            )
        self.reload()

    def refresh_many(
        self,
        tables: Dict[str, Table],
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> Dict[str, bool]:
        """Refresh every table in *tables*; returns ``{name: rebuilt?}``.

        Membership is validated up front (matching the unsharded
        contract: an unknown name raises before *any* shard commits),
        then each shard refreshes its routed subset independently —
        unchanged tables cost one fingerprint, changed ones re-sketch
        and publish under their own shard's lock only.
        """
        routed = self._route_tables(tables)
        for index, subset in routed.items():
            shard = self.shards[index]
            for name in subset:
                if name not in shard:
                    raise SpecificationError(f"table {name!r} is not cataloged")
        payloads = [(index, routed[index]) for index in sorted(routed)]
        with obs.trace(
            "catalog.shards.refresh_many",
            tables=len(tables),
            shards=len(payloads),
        ):
            refreshed = map_chunked(
                _ShardRefreshTask(str(self.directory)),
                payloads,
                context=context,
                n_jobs=n_jobs,
                label="catalog.shards.refresh_many",
            )
        merged: Dict[str, bool] = {}
        for per_shard in refreshed:
            merged.update(per_shard)
        self.reload()
        return {name: merged[name] for name in tables}

    def add_table(self, name: str, table: Table, **kwargs) -> None:
        """Route *name* to its shard and register it there."""
        self.shard_of(name).add_table(name, table, **kwargs)

    def remove_table(self, name: str) -> None:
        self.shard_of(name).remove_table(name)

    def refresh(self, name: str, table: Table) -> bool:
        return self.shard_of(name).refresh(name, table)

    def reload(self) -> None:
        """Re-read every shard manifest (after an out-of-band commit).

        Shard workers mutate their stores through *fresh* opens (their
        own process, their own lock); the facade's shard objects then
        hold pre-commit manifests.  One cheap re-open per shard brings
        the facade back to the latest committed state everywhere.
        """
        self.shards = [
            CatalogStore.open(self.directory / dirname)
            for dirname in self._spec["shards"]
        ]

    # -- per-entry access (routed) -------------------------------------------

    def meta(self, name: str) -> dict:
        return self.shard_of(name).meta(name)

    def table(self, name: str) -> Table:
        return self.shard_of(name).table(name)

    def label(self, name: str):
        return self.shard_of(name).label(name)

    def datasheet(self, name: str) -> Optional[Datasheet]:
        return self.shard_of(name).datasheet(name)

    # -- integrity -----------------------------------------------------------

    def verify(self) -> List[str]:
        """Every shard's problems, prefixed by shard directory.

        One corrupt shard does not hide the others' health: each shard
        verifies independently (the CI smoke test corrupts one shard and
        asserts the siblings still verify clean on their own).
        """
        problems: List[str] = []
        expected = self._spec.get("hasher_fingerprint")
        for dirname, shard in zip(self._spec["shards"], self.shards):
            if shard.hasher.fingerprint != expected:
                problems.append(
                    f"{dirname}: hasher fingerprint does not match shard map"
                )
            problems.extend(
                f"{dirname}: {problem}" for problem in shard.verify()
            )
        return problems


def open_catalog(directory: PathLike) -> Union[CatalogStore, ShardedCatalogStore]:
    """Open *directory* as whichever catalog flavor it holds.

    The CLI's transparency hook: a sharded catalog is recognized by its
    ``SHARDS.json`` and everything downstream (query, info, verify,
    serve) works against either flavor through the shared surface.
    """
    if is_sharded(directory):
        return ShardedCatalogStore.open(directory)
    return CatalogStore.open(directory)


def reshard(
    source_directory: PathLike,
    dest_directory: Optional[PathLike] = None,
    num_shards: int = 4,
    in_place: bool = False,
) -> ShardedCatalogStore:
    """Re-partition a catalog into *num_shards* shards.

    The source may be sharded or plain.  No re-sketching happens: the
    destination shards are created around the **source's own hasher**
    (routing alone changes, never sketch bytes), and every entry's
    committed files are adopted verbatim via
    :meth:`CatalogStore.adopt_entries`, re-checksummed on the way in.
    Query results against the destination are therefore byte-identical
    to the source's — the differential suite asserts it.

    Two modes:

    * **copy** (default): write the resharded catalog to
      *dest_directory*, which must be a **new** directory (or an
      existing empty one) — reshard never writes into a directory that
      already holds anything, so it can never clobber a live catalog, a
      half-finished previous reshard, or unrelated files.  The source is
      left untouched, so the operation is trivially abortable: delete
      the destination and nothing happened.

    * **in-place** (``in_place=True``): build the resharded catalog into
      a sibling temp directory (*dest_directory* if given, else
      ``<source>.reshard.tmp``), then swap it over the source path with
      two directory renames — source → ``<source>.reshard.old``, temp →
      source — and remove the backup.  Each rename is atomic, so a crash
      anywhere leaves a **complete** catalog at either the source path
      or the backup/temp path, never a torn one.  The only non-atomic
      instant is between the two renames, when the source path is
      briefly absent and the backup holds the full original; recovery
      from any interruption is "rename whichever complete directory
      survives back to the source path".  A leftover
      ``<source>.reshard.old`` from an interrupted swap makes the next
      in-place reshard refuse to run until an operator inspects it.
    """
    source_path = Path(source_directory)
    if in_place:
        return _reshard_in_place(source_path, dest_directory, num_shards)
    if dest_directory is None:
        raise SpecificationError(
            "reshard needs a destination directory (or in_place=True)"
        )
    dest = Path(dest_directory)
    if dest.exists() and (not dest.is_dir() or any(dest.iterdir())):
        raise SpecificationError(
            f"reshard destination {dest} exists and is not empty; reshard "
            "writes a NEW directory — pick a fresh path (or remove the "
            "existing one first)"
        )
    source = open_catalog(source_directory)
    source_stores = (
        source.shards if isinstance(source, ShardedCatalogStore) else [source]
    )
    first = source_stores[0]
    dest = ShardedCatalogStore.create(
        dest_directory,
        num_shards=num_shards,
        num_hashes=first.num_hashes,
        sketch_size=first.sketch_size,
        num_partitions=first.num_partitions,
        values_per_column=first.values_per_column,
        hasher=first.hasher,
    )
    with obs.trace(
        "catalog.reshard",
        source=str(source_directory),
        shards=num_shards,
    ):
        for store in source_stores:
            routed: Dict[int, List[str]] = defaultdict(list)
            for name in store.names:
                index = shard_for(name, num_shards)
                fault_point("shard.route", table=name, shard=index)
                routed[index].append(name)
            for index in sorted(routed):
                fault_point("shard.commit", shard=index, op="adopt_entries")
                dest.shards[index].adopt_entries(store, routed[index])
    return dest


def _reshard_in_place(
    source: Path, tmp_directory: Optional[PathLike], num_shards: int
) -> ShardedCatalogStore:
    """Reshard *source* onto its own path via temp-build + rename swap."""
    if not source.is_dir():
        raise SpecificationError(f"{source} is not a catalog directory")
    tmp = (
        Path(tmp_directory)
        if tmp_directory is not None
        else source.parent / (source.name + ".reshard.tmp")
    )
    backup = source.parent / (source.name + ".reshard.old")
    if backup.exists():
        raise SpecificationError(
            f"{backup} exists — a previous in-place reshard was interrupted "
            "mid-swap.  It holds a complete pre-reshard catalog: inspect it, "
            "restore it over the source if needed, then remove it."
        )
    if tmp.exists() and any(tmp.iterdir()):
        raise SpecificationError(
            f"{tmp} exists and is not empty — a previous in-place reshard "
            "left a temp build behind.  Inspect and remove it first."
        )
    reshard(source, tmp, num_shards)
    with obs.trace("catalog.reshard.swap", source=str(source)):
        # Both renames are atomic directory moves on the same filesystem
        # (tmp is a sibling of source unless the operator chose otherwise);
        # a crash between them leaves the complete original at *backup*.
        os.rename(source, backup)
        os.rename(tmp, source)
        shutil.rmtree(backup)
    return ShardedCatalogStore.open(source)
