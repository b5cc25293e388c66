"""The on-disk catalog: persisted discovery state with warm starts.

A :class:`CatalogStore` is a directory holding, per registered table,
everything :class:`~respdi.discovery.lake_index.DataLakeIndex` needs to
answer discovery queries — MinHash/Lazo sketches, keyword token counts,
joinability column values, correlation sketches — plus optional
transparency artifacts (nutritional label, datasheet) and optionally
the data itself.  Opening a catalog and calling :meth:`CatalogStore.index`
rehydrates a fully-loaded index *without touching raw data* (the warm
start); because the warm path registers the very same
:class:`~respdi.discovery.lake_index.TableArtifacts` the cold path
builds, warm and cold query results are identical.

Layout::

    <catalog>/
      MANIFEST.json          # schema version, config, generation,
                             # per-file checksums
      hasher.npz             # the shared MinHasher's coefficients
      writer.lock            # transient: present only while a writer runs
      entries/<dir>/         # one directory per registered table
        meta.json sketches.npz columns.json keyword.json features.json
        [label.json] [datasheet.json] [data.csv]

Integrity and concurrency:

* every file's blake2b checksum is recorded in the manifest at write
  time and re-verified at read time (:class:`CatalogCorruptError` on
  mismatch), and the manifest pins the hasher fingerprint so sketches
  from a different hash family are rejected instead of silently
  producing garbage similarities;
* writers serialize on a lock file (:mod:`respdi.catalog.locking`) and
  commit by writing the changed entry directories and then atomically
  replacing the manifest — a commit's only durable write outside the
  entries — so readers, which never lock, always see a consistent
  snapshot; entry directories orphaned by a crash are garbage-collected
  by the next writer, and ``*.tmp`` residue past its grace period is
  swept by :meth:`CatalogStore.open`.

These guarantees are machine-checked: ``tests/test_crash_consistency.py``
kills every mutation at every :func:`~respdi.faults.fault_point` it
crosses (write, fsync, rename, commit, lock transitions) and asserts the
surviving store always opens, verifies clean, and equals the complete
old or complete new state.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import threading
import time
from collections import Counter
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Hashable, List, MutableMapping, Optional, Tuple, Union

import numpy as np

from respdi import obs
from respdi._fsutil import atomic_write_text
from respdi.catalog.locking import writer_lock
from respdi.discovery.correlation_sketches import CorrelationSketch
from respdi.discovery.lake_index import (
    DataLakeIndex,
    TableArtifacts,
    build_table_artifacts,
)
from respdi.discovery.lazo import LazoSketch
from respdi.discovery.minhash import MinHasher, MinHashSignature
from respdi.discovery.serialize import (
    minhasher_from_npz,
    minhasher_to_npz,
    signatures_from_arrays,
    signatures_to_npz,
)
from respdi.errors import CatalogCorruptError, SpecificationError
from respdi.faults.plan import fault_point
from respdi.parallel import ExecutionContext, map_tables
from respdi.profiling.datasheets import Datasheet
from respdi.profiling.export import datasheet_to_dict, label_to_dict
from respdi.profiling.labels import NutritionalLabel, build_nutritional_label
from respdi.profiling.load import dict_to_datasheet, dict_to_label
from respdi.table import Table, read_csv, write_csv
from respdi.table.hashing import digest_categorical

PathLike = Union[str, Path]

#: On-disk manifest format version; bump on incompatible layout changes.
CATALOG_SCHEMA_VERSION = 1

MANIFEST_FILENAME = "MANIFEST.json"
HASHER_FILENAME = "hasher.npz"
ENTRIES_DIRNAME = "entries"


def _checksum(data: bytes) -> str:
    return blake2b(data, digest_size=16).hexdigest()


def read_manifest(directory: PathLike) -> dict:
    """Parse ``MANIFEST.json`` without opening the full catalog.

    This is the cheap read the service layer polls for generation
    changes: no hasher load, no checksum verification, no
    ``catalog.open`` counter.  The manifest itself is written atomically,
    so the result is always one complete committed manifest (a torn file
    raises :class:`CatalogCorruptError`, matching :meth:`CatalogStore.open`).
    """
    manifest_path = Path(directory) / MANIFEST_FILENAME
    try:
        with manifest_path.open() as handle:
            return json.load(handle)
    except OSError:
        raise SpecificationError(
            f"{directory} is not a catalog (no {MANIFEST_FILENAME})"
        ) from None
    except ValueError as exc:
        raise CatalogCorruptError(
            f"{manifest_path} is not valid JSON: {exc}"
        ) from None


def _file_checksum(path: Path) -> str:
    return _checksum(path.read_bytes())


def table_fingerprint(table: Table) -> str:
    """Content fingerprint of a table: schema plus every cell, hashed.

    Stable across processes (blake2b over array bytes / value reprs),
    so :meth:`CatalogStore.refresh` can skip re-sketching unchanged
    tables no matter which process registered them.
    """
    digest = blake2b(digest_size=16)
    digest.update(
        repr([(spec.name, spec.ctype.value) for spec in table.schema]).encode()
    )
    for spec in table.schema:
        values = table.column(spec.name)
        if spec.is_numeric:
            digest.update(np.ascontiguousarray(values, dtype=float).tobytes())
        else:
            # Streamed: same bytes as ``repr(list(values)).encode()``
            # without materializing one giant string per column.
            digest_categorical(digest, values)
    return digest.hexdigest()


def _entry_dirname(name: str, fingerprint: str) -> str:
    slug = re.sub(r"[^a-z0-9_-]+", "_", name.lower())[:40] or "table"
    name_hash = blake2b(name.encode(), digest_size=4).hexdigest()
    return f"{slug}-{name_hash}-{fingerprint[:8]}"


class _FingerprintTask:
    """Fingerprint one ``(name, table)`` pair (picklable for ``processes``)."""

    __slots__ = ()

    def __call__(self, name: str, table: Table) -> str:
        return table_fingerprint(table)


class _EntrySketchTask:
    """Fingerprint *and* sketch one table for a catalog entry.

    Module-level so the ``processes`` backend can pickle it.  Returns
    ``(fingerprint, artifacts)`` — everything :meth:`CatalogStore._write_entry`
    would otherwise compute inline, moved off the writer's critical path.
    """

    __slots__ = ("descriptions", "hasher", "sketch_size", "values_per_column")

    def __init__(self, descriptions, hasher, sketch_size, values_per_column):
        self.descriptions = descriptions
        self.hasher = hasher
        self.sketch_size = sketch_size
        self.values_per_column = values_per_column

    def __call__(self, name: str, table: Table) -> Tuple[str, TableArtifacts]:
        artifacts = build_table_artifacts(
            name,
            table,
            self.descriptions.get(name),
            hasher=self.hasher,
            sketch_size=self.sketch_size,
            values_per_column=self.values_per_column,
        )
        return table_fingerprint(table), artifacts


class _LazyTables(MutableMapping):
    """``DataLakeIndex.tables`` backed by the catalog's stored CSVs.

    Tables registered cold through the index live in memory as usual;
    tables whose data the catalog stored are parsed on first access.
    """

    def __init__(self, store: "CatalogStore", stored_names) -> None:
        self._store = store
        self._stored = set(stored_names)
        self._loaded: Dict[str, Table] = {}

    def __getitem__(self, name: str) -> Table:
        if name in self._loaded:
            return self._loaded[name]
        if name in self._stored:
            table = self._store.table(name)
            self._loaded[name] = table
            return table
        raise KeyError(name)

    def __setitem__(self, name: str, table: Table) -> None:
        self._loaded[name] = table

    def __delitem__(self, name: str) -> None:
        self._stored.discard(name)
        if name in self._loaded:
            del self._loaded[name]

    def __iter__(self):
        return iter(self._stored | set(self._loaded))

    def __len__(self) -> int:
        return len(self._stored | set(self._loaded))


class CatalogStore:
    """A persistent, concurrent catalog of discovery state for one lake."""

    #: Seconds a mutator waits for the writer lock before raising
    #: :class:`~respdi.errors.CatalogLockedError`.
    lock_timeout: float = 10.0

    #: Age (seconds, by mtime) past which an orphaned ``*.tmp`` file —
    #: the residue of a writer crashed between tmp-write and rename — is
    #: swept by :meth:`open`.  Young tmps are left alone: they may belong
    #: to a writer mid-flight right now.
    tmp_sweep_grace: float = 60.0

    def __init__(self, directory: PathLike, manifest: dict, hasher: MinHasher) -> None:
        self.directory = Path(directory)
        self._manifest = manifest
        self.hasher = hasher
        self._tlock = threading.RLock()
        self._index_cache: Optional[DataLakeIndex] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: PathLike,
        num_hashes: int = 128,
        sketch_size: int = 64,
        num_partitions: int = 4,
        values_per_column: int = 50,
        rng=None,
        hasher: Optional[MinHasher] = None,
    ) -> "CatalogStore":
        """Initialize an empty catalog at *directory*.

        *rng* seeds the shared :class:`MinHasher`; the same seed always
        yields the same hash family, so a catalog created with
        ``rng=7`` is sketch-compatible with ``DataLakeIndex(rng=7)``.
        A caller that must share one hash family across several stores —
        the shards of a :class:`~respdi.catalog.sharding.ShardedCatalogStore`
        — passes the built *hasher* directly instead.
        """
        directory = Path(directory)
        if (directory / MANIFEST_FILENAME).exists():
            raise SpecificationError(f"{directory} already holds a catalog")
        directory.mkdir(parents=True, exist_ok=True)
        (directory / ENTRIES_DIRNAME).mkdir(exist_ok=True)
        if hasher is None:
            hasher = MinHasher(num_hashes, rng)
        elif hasher.num_hashes != num_hashes:
            raise SpecificationError(
                f"explicit hasher has {hasher.num_hashes} hash functions, "
                f"but num_hashes={num_hashes} was requested"
            )
        manifest = {
            "schema_version": CATALOG_SCHEMA_VERSION,
            "num_hashes": num_hashes,
            "sketch_size": sketch_size,
            "num_partitions": num_partitions,
            "values_per_column": values_per_column,
            "seed": rng if isinstance(rng, int) else None,
            "hasher_fingerprint": hasher.fingerprint,
            "files": {},
            "entries": {},
            "ensemble_generation": 1,
        }
        store = cls(directory, manifest, hasher)
        with writer_lock(directory, timeout=cls.lock_timeout):
            minhasher_to_npz(directory / HASHER_FILENAME, hasher)
            manifest["files"][HASHER_FILENAME] = _file_checksum(
                directory / HASHER_FILENAME
            )
            store._write_manifest()
        return store

    @classmethod
    def open(cls, directory: PathLike) -> "CatalogStore":
        """Open an existing catalog, validating version and hasher."""
        directory = Path(directory)
        with obs.trace("catalog.open", directory=str(directory)):
            obs.inc("catalog.open")
            manifest = read_manifest(directory)
            version = manifest.get("schema_version")
            if version != CATALOG_SCHEMA_VERSION:
                raise SpecificationError(
                    f"catalog schema_version {version!r} is not supported "
                    f"(this library reads {CATALOG_SCHEMA_VERSION})"
                )
            hasher_path = directory / HASHER_FILENAME
            expected = manifest.get("files", {}).get(HASHER_FILENAME)
            try:
                data = hasher_path.read_bytes()
            except OSError:
                raise CatalogCorruptError(f"{hasher_path} is missing") from None
            if expected is not None and _checksum(data) != expected:
                raise CatalogCorruptError(
                    f"{hasher_path} does not match its manifest checksum"
                )
            hasher = minhasher_from_npz(hasher_path)
            if hasher.fingerprint != manifest.get("hasher_fingerprint"):
                raise CatalogCorruptError(
                    "persisted hasher does not match the manifest fingerprint "
                    "(mixed-hasher state)"
                )
            cls._sweep_orphan_tmps(directory)
            return cls(directory, manifest, hasher)

    @classmethod
    def build(
        cls,
        directory: PathLike,
        tables: Dict[str, Table],
        descriptions: Optional[Dict[str, str]] = None,
        store_data: bool = False,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
        **create_options,
    ) -> "CatalogStore":
        """Create a catalog and register every table in *tables* (cold build).

        Fingerprinting and sketching fan out per table under the resolved
        :class:`~respdi.parallel.ExecutionContext`; entries are then
        written in input order under one writer lock and published by a
        single commit, so the resulting bytes are identical to a serial
        build (and to the pre-parallel per-table-commit layout).
        """
        store = cls.create(directory, **create_options)
        store.add_tables(
            tables,
            descriptions=descriptions,
            store_data=store_data,
            context=context,
            n_jobs=n_jobs,
        )
        return store

    def add_tables(
        self,
        tables: Dict[str, Table],
        descriptions: Optional[Dict[str, str]] = None,
        store_data: bool = False,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        """Register every table in *tables* under one commit (bulk add).

        The sketch fan-out and single-commit publication of :meth:`build`,
        available on an already-created store — the per-shard worker of a
        sharded build calls this on its shard.  Entries are written in
        input order, so the resulting bytes match a sequence of
        :meth:`add_table` calls collapsed into one generation bump.
        """
        if not tables:
            return
        descriptions = dict(descriptions or {})
        task = _EntrySketchTask(
            descriptions, self.hasher, self.sketch_size, self.values_per_column
        )
        with obs.trace("catalog.build", tables=len(tables)):
            sketched = map_tables(
                task, tables, context=context, n_jobs=n_jobs, label="catalog.build"
            )
            with self._tlock, writer_lock(
                self.directory, timeout=self.lock_timeout
            ):
                self._sync_manifest_locked()
                for name in tables:
                    if name in self._manifest["entries"]:
                        raise SpecificationError(
                            f"table {name!r} is already cataloged (use refresh)"
                        )
                for name, table in tables.items():
                    fingerprint, artifacts = sketched[name]
                    self._write_entry(
                        name,
                        table,
                        description=descriptions.get(name),
                        sensitive_columns=None,
                        target_column=None,
                        store_data=store_data,
                        artifacts=artifacts,
                        fingerprint=fingerprint,
                    )
                self._commit()

    def adopt_entries(self, source: "CatalogStore", names: List[str]) -> None:
        """Copy committed entries from *source* into this store (no re-sketch).

        The file-level migration primitive behind resharding: both stores
        must share one hash family (checked via the hasher fingerprint),
        so the source's entry files — sketches, token counts, metadata —
        are valid here byte-for-byte.  Entry directories are copied,
        re-checksummed against the source manifest, recorded in this
        store's manifest in the given order, and published by one commit.
        """
        if source.hasher.fingerprint != self.hasher.fingerprint:
            raise SpecificationError(
                "cannot adopt entries across different hash families"
            )
        if not names:
            return
        with self._tlock, writer_lock(self.directory, timeout=self.lock_timeout):
            self._sync_manifest_locked()
            for name in names:
                record = source._require_entry(name)
                if name in self._manifest["entries"]:
                    raise SpecificationError(
                        f"table {name!r} is already cataloged here"
                    )
                source_dir = source._entry_dir(record)
                dest_dir = self.directory / ENTRIES_DIRNAME / record["dir"]
                if dest_dir.exists():
                    shutil.rmtree(dest_dir)
                shutil.copytree(source_dir, dest_dir)
                for filename, expected in record["files"].items():
                    if _file_checksum(dest_dir / filename) != expected:
                        raise CatalogCorruptError(
                            f"entry {name!r}: {filename} changed during adoption"
                        )
                self._manifest["entries"][name] = json.loads(
                    json.dumps(record)
                )
            self._commit()

    # -- manifest-backed configuration ---------------------------------------

    @property
    def num_hashes(self) -> int:
        return int(self._manifest["num_hashes"])

    @property
    def sketch_size(self) -> int:
        return int(self._manifest["sketch_size"])

    @property
    def num_partitions(self) -> int:
        return int(self._manifest["num_partitions"])

    @property
    def values_per_column(self) -> int:
        return int(self._manifest["values_per_column"])

    @property
    def generation(self) -> int:
        """The manifest generation this store object currently reflects.

        :meth:`create` writes generation 1 and every successful commit
        advances it by exactly one, so the pair ``(directory,
        generation)`` names one immutable committed catalog state — the
        key the service layer pins snapshots and caches query results
        under.  The manifest key keeps its historical name,
        ``ensemble_generation``, from when each commit also wrote a
        generation-numbered ensemble file.
        """
        return int(self._manifest.get("ensemble_generation", 0))

    @property
    def names(self) -> List[str]:
        """Registered table names, in registration order."""
        return list(self._manifest["entries"])

    def at_manifest(self, manifest: dict) -> "CatalogStore":
        """A read-only sibling store pinned to *manifest*.

        The returned store shares this store's directory and validated
        hasher but reads entries through the given (already committed)
        manifest — the substrate of a snapshot handle.  Mutating through
        it is not supported: writers must go through a store whose
        manifest tracks disk.
        """
        return CatalogStore(self.directory, manifest, self.hasher)

    def __contains__(self, name: str) -> bool:
        return name in self._manifest["entries"]

    def __len__(self) -> int:
        return len(self._manifest["entries"])

    def meta(self, name: str) -> dict:
        """The persisted metadata record for *name* (a fresh dict)."""
        return dict(json.loads(self._read_entry_bytes(name, "meta.json")))

    # -- crash hygiene -------------------------------------------------------

    @classmethod
    def _sweep_orphan_tmps(cls, directory: Path) -> int:
        """Unlink ``*.tmp`` residue older than :attr:`tmp_sweep_grace`.

        A writer crashed between tmp-write and rename leaves
        ``.<name>.<random>.tmp`` files in the catalog root or an entry
        directory.  They are never referenced by a manifest, so they are
        noise, not corruption — but left alone they accumulate forever.
        Swept count lands on the ``catalog.orphans.swept`` counter.
        """
        candidates = list(directory.glob(".*.tmp"))
        entries_dir = directory / ENTRIES_DIRNAME
        if entries_dir.is_dir():
            candidates.extend(entries_dir.glob("*/.*.tmp"))
        now = time.time()
        swept = 0
        for path in candidates:
            try:
                if now - path.stat().st_mtime < cls.tmp_sweep_grace:
                    continue
                path.unlink()
            except OSError:
                continue
            swept += 1
        if swept:
            obs.inc("catalog.orphans.swept", swept)
        return swept

    def _sync_manifest_locked(self) -> None:
        """Re-read the on-disk manifest; call only under the writer lock.

        A store object opened before another *process* committed holds a
        stale in-memory manifest; mutating from it would un-publish that
        writer's entries (a lost update).  Re-reading at lock
        acquisition makes every mutation read-modify-write against the
        latest committed snapshot.
        """
        try:
            text = (self.directory / MANIFEST_FILENAME).read_text()
            manifest = json.loads(text)
        except (OSError, ValueError):  # pragma: no cover - manifest is atomic
            return
        if manifest != self._manifest:
            self._manifest = manifest
            self._index_cache = None

    # -- mutation ------------------------------------------------------------

    def add_table(
        self,
        name: str,
        table: Table,
        description: Optional[str] = None,
        sensitive_columns: Optional[Tuple[str, ...]] = None,
        target_column: Optional[str] = None,
        datasheet: Optional[Datasheet] = None,
        store_data: bool = False,
    ) -> None:
        """Sketch *table* and persist its catalog entry.

        When *sensitive_columns* is given a nutritional label is built
        and stored alongside the sketches; a caller-built *datasheet*
        and (with *store_data*) the data itself can ride along too.
        """
        with self._tlock, writer_lock(self.directory, timeout=self.lock_timeout):
            self._sync_manifest_locked()
            if name in self._manifest["entries"]:
                raise SpecificationError(
                    f"table {name!r} is already cataloged (use refresh)"
                )
            self._write_entry(
                name,
                table,
                description=description,
                sensitive_columns=sensitive_columns,
                target_column=target_column,
                datasheet=datasheet,
                store_data=store_data,
            )
            self._commit()

    def remove_table(self, name: str) -> None:
        """Drop *name* from the catalog (entry files are garbage-collected)."""
        with self._tlock, writer_lock(self.directory, timeout=self.lock_timeout):
            self._sync_manifest_locked()
            if name not in self._manifest["entries"]:
                raise SpecificationError(f"table {name!r} is not cataloged")
            del self._manifest["entries"][name]
            self._commit()

    def refresh(self, name: str, table: Table) -> bool:
        """Re-sketch *name* only if its content changed.

        Returns True when the entry was rebuilt, False when the stored
        fingerprint already matches *table* (nothing rewritten).
        """
        with self._tlock, writer_lock(self.directory, timeout=self.lock_timeout):
            self._sync_manifest_locked()
            record = self._manifest["entries"].get(name)
            if record is None:
                raise SpecificationError(f"table {name!r} is not cataloged")
            fingerprint = table_fingerprint(table)
            if fingerprint == record["fingerprint"]:
                obs.inc("catalog.hit")
                return False
            obs.inc("catalog.rebuild")
            self._rewrite_changed_entry(name, table, fingerprint)
            self._commit()
            return True

    def refresh_many(
        self,
        tables: Dict[str, Table],
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> Dict[str, bool]:
        """Refresh every table in *tables*; returns ``{name: rebuilt?}``.

        Fingerprints are compared against the manifest *before* any
        sketch work is scheduled: a no-op refresh (nothing changed) costs
        one fingerprint per table and exactly zero sketch calls.  Only
        the changed subset fans out for re-sketching, and one commit
        publishes all rebuilt entries.
        """
        with self._tlock, writer_lock(self.directory, timeout=self.lock_timeout):
            self._sync_manifest_locked()
            for name in tables:
                if name not in self._manifest["entries"]:
                    raise SpecificationError(f"table {name!r} is not cataloged")
            with obs.trace("catalog.refresh_many", tables=len(tables)):
                fingerprints = map_tables(
                    _FingerprintTask(),
                    tables,
                    context=context,
                    n_jobs=n_jobs,
                    label="catalog.fingerprint",
                )
                changed = {
                    name: table
                    for name, table in tables.items()
                    if fingerprints[name]
                    != self._manifest["entries"][name]["fingerprint"]
                }
                obs.inc("catalog.hit", len(tables) - len(changed))
                if not changed:
                    return {name: False for name in tables}
                obs.inc("catalog.rebuild", len(changed))
                metas = {name: self.meta(name) for name in changed}
                task = _EntrySketchTask(
                    {
                        name: meta.get("description")
                        for name, meta in metas.items()
                    },
                    self.hasher,
                    self.sketch_size,
                    self.values_per_column,
                )
                sketched = map_tables(
                    task,
                    changed,
                    context=context,
                    n_jobs=n_jobs,
                    label="catalog.refresh_many",
                )
                for name, table in changed.items():
                    fingerprint, artifacts = sketched[name]
                    self._rewrite_changed_entry(
                        name, table, fingerprint, artifacts=artifacts,
                        meta=metas[name],
                    )
                self._commit()
            return {name: name in changed for name in tables}

    def _rewrite_changed_entry(
        self,
        name: str,
        table: Table,
        fingerprint: str,
        artifacts: Optional[TableArtifacts] = None,
        meta: Optional[dict] = None,
    ) -> None:
        """Replace *name*'s entry in the manifest, preserving its metadata."""
        meta = self.meta(name) if meta is None else meta
        del self._manifest["entries"][name]
        self._write_entry(
            name,
            table,
            description=meta.get("description"),
            sensitive_columns=(
                tuple(meta["sensitive_columns"])
                if meta.get("sensitive_columns")
                else None
            ),
            target_column=meta.get("target_column"),
            store_data=bool(meta.get("stored_data")),
            artifacts=artifacts,
            fingerprint=fingerprint,
        )

    # -- the warm start ------------------------------------------------------

    def index(self) -> DataLakeIndex:
        """A :class:`DataLakeIndex` rehydrated from persisted artifacts.

        No raw data is read (stored tables load lazily on access).  The
        result is cached until the next mutation; repeated calls count
        as ``catalog.hit``.
        """
        with self._tlock:
            if self._index_cache is not None:
                obs.inc("catalog.hit")
                return self._index_cache
            with obs.trace("catalog.warm_start", entries=len(self)):
                index = DataLakeIndex(
                    num_hashes=self.num_hashes,
                    sketch_size=self.sketch_size,
                    num_partitions=self.num_partitions,
                    hasher=self.hasher,
                )
                index.keyword.values_per_column = self.values_per_column
                stored = []
                for name, record in self._manifest["entries"].items():
                    index.register_artifacts(self._load_artifacts(name))
                    if record.get("stored_data"):
                        stored.append(name)
                index.tables = _LazyTables(self, stored)
                self._index_cache = index
            return index

    # -- per-entry artifact access -------------------------------------------

    def table(self, name: str) -> Table:
        """The stored data for *name* (only with ``store_data=True``)."""
        record = self._require_entry(name)
        if "data.csv" not in record["files"]:
            raise SpecificationError(
                f"table {name!r} was cataloged without store_data"
            )
        self._read_entry_bytes(name, "data.csv")  # checksum gate
        return read_csv(self._entry_dir(record) / "data.csv")

    def label(self, name: str) -> Optional[NutritionalLabel]:
        """The stored nutritional label for *name*, or None."""
        record = self._require_entry(name)
        if "label.json" not in record["files"]:
            return None
        payload = json.loads(self._read_entry_bytes(name, "label.json"))
        return dict_to_label(payload)

    def datasheet(self, name: str) -> Optional[Datasheet]:
        """The stored datasheet for *name*, or None."""
        record = self._require_entry(name)
        if "datasheet.json" not in record["files"]:
            return None
        payload = json.loads(self._read_entry_bytes(name, "datasheet.json"))
        return dict_to_datasheet(payload)

    # -- integrity -----------------------------------------------------------

    def verify(self) -> List[str]:
        """Check every cataloged file against its manifest checksum.

        Returns a list of human-readable problems (empty = healthy).
        Unlike the read path, which fails fast, this walks everything.
        """
        problems: List[str] = []
        for filename, expected in self._manifest.get("files", {}).items():
            path = self.directory / filename
            try:
                actual = _file_checksum(path)
            except OSError:
                problems.append(f"{filename}: missing")
                continue
            if actual != expected:
                problems.append(f"{filename}: checksum mismatch")
        if self.hasher.fingerprint != self._manifest.get("hasher_fingerprint"):
            problems.append("hasher fingerprint does not match manifest")
        for name, record in self._manifest["entries"].items():
            entry_dir = self._entry_dir(record)
            if not entry_dir.is_dir():
                problems.append(f"entry {name!r}: directory {record['dir']} missing")
                continue
            for filename, expected in record["files"].items():
                path = entry_dir / filename
                try:
                    actual = _file_checksum(path)
                except OSError:
                    problems.append(f"entry {name!r}: {filename} missing")
                    continue
                if actual != expected:
                    problems.append(f"entry {name!r}: {filename} checksum mismatch")
        return problems

    # -- internals -----------------------------------------------------------

    def _require_entry(self, name: str) -> dict:
        record = self._manifest["entries"].get(name)
        if record is None:
            raise SpecificationError(f"table {name!r} is not cataloged")
        return record

    def _entry_dir(self, record: dict) -> Path:
        return self.directory / ENTRIES_DIRNAME / record["dir"]

    def _read_entry_bytes(self, name: str, filename: str) -> bytes:
        record = self._require_entry(name)
        expected = record["files"].get(filename)
        if expected is None:
            raise CatalogCorruptError(
                f"entry {name!r} has no {filename} in the manifest"
            )
        path = self._entry_dir(record) / filename
        try:
            data = path.read_bytes()
        except OSError:
            raise CatalogCorruptError(f"{path} is missing") from None
        fault_point("catalog.entry.read", name=name, filename=filename)
        if _checksum(data) != expected:
            raise CatalogCorruptError(
                f"{path} does not match its manifest checksum "
                "(corrupted or tampered entry)"
            )
        return data

    def _entry_signatures(self, name: str) -> Dict[str, MinHashSignature]:
        data = self._read_entry_bytes(name, "sketches.npz")
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            arrays = {member: archive[member] for member in archive.files}
        return signatures_from_arrays(
            arrays, self.hasher, source=f"entry {name!r} sketches"
        )

    def _load_artifacts(self, name: str) -> TableArtifacts:
        meta = self.meta(name)
        token_counts = Counter(
            {
                token: int(count)
                for token, count in json.loads(
                    self._read_entry_bytes(name, "keyword.json")
                ).items()
            }
        )
        column_values: Dict[str, List[Hashable]] = {
            column: list(values)
            for column, values in json.loads(
                self._read_entry_bytes(name, "columns.json")
            ).items()
        }
        column_sketches = {
            column: LazoSketch(
                signature=signature, cardinality=signature.cardinality
            )
            for column, signature in self._entry_signatures(name).items()
        }
        feature_sketches: Dict[Tuple[str, str], CorrelationSketch] = {}
        for sketch in json.loads(self._read_entry_bytes(name, "features.json"))[
            "sketches"
        ]:
            feature_sketches[
                (sketch["key_column"], sketch["feature_column"])
            ] = CorrelationSketch(
                entries=tuple(
                    (int(h), key, float(value)) for h, key, value in sketch["entries"]
                ),
                num_keys=int(sketch["num_keys"]),
                seed=int(sketch["seed"]),
            )
        return TableArtifacts(
            name=name,
            description=meta.get("description"),
            schema=[tuple(pair) for pair in meta["schema"]],
            row_count=int(meta["row_count"]),
            token_counts=token_counts,
            column_values=column_values,
            column_sketches=column_sketches,
            feature_sketches=feature_sketches,
        )

    def _write_entry(
        self,
        name: str,
        table: Table,
        description: Optional[str],
        sensitive_columns: Optional[Tuple[str, ...]],
        target_column: Optional[str],
        datasheet: Optional[Datasheet] = None,
        store_data: bool = False,
        artifacts: Optional[TableArtifacts] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        if artifacts is None:
            artifacts = build_table_artifacts(
                name,
                table,
                description,
                hasher=self.hasher,
                sketch_size=self.sketch_size,
                values_per_column=self.values_per_column,
            )
        if fingerprint is None:
            fingerprint = table_fingerprint(table)
        dirname = _entry_dirname(name, fingerprint)
        entry_dir = self.directory / ENTRIES_DIRNAME / dirname
        if entry_dir.exists():
            shutil.rmtree(entry_dir)
        entry_dir.mkdir(parents=True)

        meta = {
            "name": name,
            "description": description,
            "schema": [list(pair) for pair in artifacts.schema],
            "row_count": artifacts.row_count,
            "fingerprint": fingerprint,
            "sensitive_columns": (
                list(sensitive_columns) if sensitive_columns else None
            ),
            "target_column": target_column,
            "stored_data": bool(store_data),
        }
        atomic_write_text(
            entry_dir / "meta.json", json.dumps(meta, indent=2, sort_keys=True)
        )
        signatures = {
            column: sketch.signature
            for column, sketch in artifacts.column_sketches.items()
        }
        signatures_to_npz(entry_dir / "sketches.npz", signatures, self.hasher)
        atomic_write_text(
            entry_dir / "columns.json",
            json.dumps(artifacts.column_values, indent=2),
        )
        # Token order is Counter insertion order; keep it (no sort_keys) so
        # the warm index accumulates TF-IDF sums in the cold order and
        # scores stay bit-identical.
        atomic_write_text(
            entry_dir / "keyword.json",
            json.dumps(dict(artifacts.token_counts), indent=2),
        )
        atomic_write_text(
            entry_dir / "features.json",
            json.dumps(
                {
                    "sketches": [
                        {
                            "key_column": key_column,
                            "feature_column": feature_column,
                            "seed": sketch.seed,
                            "num_keys": sketch.num_keys,
                            "entries": [list(entry) for entry in sketch.entries],
                        }
                        for (key_column, feature_column), sketch in (
                            artifacts.feature_sketches.items()
                        )
                    ]
                },
                indent=2,
            ),
        )
        if sensitive_columns:
            label = build_nutritional_label(
                table, sensitive_columns, target_column=target_column
            )
            atomic_write_text(
                entry_dir / "label.json",
                json.dumps(label_to_dict(label), indent=2),
            )
        if datasheet is not None:
            atomic_write_text(
                entry_dir / "datasheet.json",
                json.dumps(datasheet_to_dict(datasheet), indent=2),
            )
        if store_data:
            write_csv(table, entry_dir / "data.csv")

        self._manifest["entries"][name] = {
            "dir": dirname,
            "fingerprint": fingerprint,
            "row_count": artifacts.row_count,
            "stored_data": bool(store_data),
            # *.tmp residue (a crashed writer's half-finished atomic
            # write) must never be checksummed into the manifest: it is
            # sweepable noise, and manifesting it would turn the later
            # sweep into a phantom "file missing" corruption.
            "files": {
                path.name: _file_checksum(path)
                for path in sorted(entry_dir.iterdir())
                if not path.name.endswith(".tmp")
            },
        }

    def _write_manifest(self) -> None:
        # Entry order is registration order; do NOT sort keys here, or
        # warm registration order (and hence parity with the cold index)
        # would silently change.
        atomic_write_text(
            self.directory / MANIFEST_FILENAME,
            json.dumps(self._manifest, indent=2),
        )

    def _commit(self) -> None:
        """Publish the in-memory manifest as the next generation, then GC.

        The entry files are already written, so the manifest swap is the
        commit's one durable write: a crash before it leaves the old
        generation, after it the new one.
        """
        self._manifest["ensemble_generation"] = self.generation + 1
        # A catalog written while commits also wrote a whole-store LSH
        # Ensemble file still lists it; nothing reads it, so the first
        # commit unlists it and _gc unlinks it.
        self._manifest.pop("ensemble_file", None)
        files = self._manifest["files"]
        for filename in [name for name in files if name.startswith("ensemble")]:
            del files[filename]
        fault_point("catalog.commit.manifest")
        self._write_manifest()
        fault_point("catalog.commit.gc")
        self._gc()
        self._index_cache = None

    def _gc(self) -> None:
        referenced = {
            record["dir"] for record in self._manifest["entries"].values()
        }
        for child in self.directory.glob("ensemble*.npz"):
            try:
                child.unlink()
            except OSError:  # pragma: no cover - concurrent sweep
                pass
        entries_dir = self.directory / ENTRIES_DIRNAME
        if not entries_dir.is_dir():
            return
        for child in entries_dir.iterdir():
            if child.is_dir() and child.name not in referenced:
                shutil.rmtree(child, ignore_errors=True)


def load_catalog_index(directory: PathLike) -> DataLakeIndex:
    """One-call warm start: open the catalog and rehydrate its index."""
    return CatalogStore.open(directory).index()
