"""A crash-safe, checksum-gated persistent result cache (the sidecar tier).

The in-memory :class:`~respdi.service.cache.QueryResultCache` dies with
its process; a server restart pays every query again.  This module adds
the deliberate persistence the PR 5 crash matrix proved was *absent*: a
generation-keyed on-disk sidecar of **rendered** results, so a warm
restart answers repeated queries without recomputing — and does it under
the same durability discipline as the catalog itself.

Why rendered results (plain JSON data from :meth:`Query.render`), not
pickled result objects: the serve loop's response bytes are already a
deterministic function of ``(generation, query fingerprint)``, JSON
round-trips losslessly (document order is insertion order, float repr is
shortest-round-trip), and a textual payload can be checksum-gated
exactly like a manifest.  A persistent hit therefore yields the *same
response line* the uncached path would produce — the serve differential
suite asserts byte identity across {no cache, memory cache, persistent
cache} × {plain, sharded} × {stdin, socket}, including across a restart.

Crash-safety contract (machine-checked by ``tests/test_pcache_crash.py``):

* every entry file is written via :func:`respdi._fsutil.atomic_write_text`
  (tmp + fsync + rename), so a kill at any step leaves either no entry
  or a complete one — never a torn file that parses;
* every read re-derives the payload checksum; a mismatch (bit rot,
  manual corruption, a torn write that somehow survived) is **discarded
  and deleted**, counted as ``service.pcache.corrupt``, and treated as a
  miss — a corrupt entry is rebuilt, never served;
* keys embed the catalog generation (an int, or the per-shard vector),
  so entries from superseded generations can never satisfy a lookup and
  are swept once the service observes the generation advance.

Fault points ``service.pcache.lookup`` / ``.store`` / ``.sweep`` expose
the tier to the kill-at-every-step crash matrix.
"""

from __future__ import annotations

import json
import threading
from hashlib import blake2b
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from respdi import obs
from respdi._fsutil import atomic_write_text
from respdi.errors import SpecificationError
from respdi.faults.plan import fault_point
from respdi.service.cache import _ABSENT, Generation, listed_generation, normalize_generation

PathLike = Union[str, Path]

#: On-disk entry format version; bump on incompatible changes (readers
#: discard entries from other versions as stale, not corrupt).
PCACHE_SCHEMA_VERSION = 1

#: Default sidecar directory name, created next to (or inside) the
#: catalog it accelerates.
PCACHE_DIRNAME = "pcache.d"


def _payload_checksum(payload: Any) -> str:
    """blake2b over the canonical (sorted, compact) JSON of *payload*."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def entry_filename(generation: Generation, fingerprint: str) -> str:
    """The sidecar filename for one ``(generation, fingerprint)`` key.

    A digest of the full key, so filenames stay short and filesystem-safe
    whatever the generation shape; the generation is also stored *inside*
    the entry, which is what sweeps and audits read.
    """
    generation = normalize_generation(generation)
    digest = blake2b(digest_size=16)
    digest.update(repr(generation).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(fingerprint.encode("utf-8"))
    return f"{digest.hexdigest()}.json"


class PersistentResultCache:
    """Generation-keyed rendered-result store under one sidecar directory.

    Thread-safe (one lock around the entry count and every unlink the
    cache makes) and bounded: past *max_entries* files, the oldest
    entries (by mtime) are evicted on store.  The entry count lives in
    memory: one listing seeds it at open, each store adds one, each
    unlink the cache makes subtracts one, and every listing re-seeds it.
    So a store lists the directory only once the count passes
    *max_entries*, and a full sidecar lists on every store.  The count
    does not see stores made by other processes: one process keeps at
    most *max_entries* entries, and P processes sharing one sidecar keep
    at most about P × *max_entries*.  An entry unlinked by someone else
    between a listing and its use is already gone: it is not evicted,
    swept or counted corrupt.  ``len`` and ``stats()["size"]`` list the
    directory.  Counts
    (``service.pcache.hit/miss/store/evict/corrupt/swept``) live in the
    cache's own always-on :class:`~respdi.obs.ComponentRegistry`, which
    ``stats`` reads and which reaches the global registry while
    :mod:`respdi.obs` is enabled.
    """

    def __init__(self, directory: PathLike, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise SpecificationError("pcache max_entries must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self.metrics = obs.ComponentRegistry()
        #: Last generation observed via :meth:`observe_generation`; sweeps
        #: fire only when it advances.
        self._seen_generation: Optional[Generation] = None
        #: Entries in the sidecar as far as this process knows; changed
        #: only under ``_lock``.  An over-count only brings the next
        #: listing forward.
        self._count = 0
        with self._lock:
            self._entry_files()  # seeds _count

    # -- read path -------------------------------------------------------------

    def get(self, generation: Generation, fingerprint: str) -> Any:
        """The persisted payload for the key, or the miss sentinel.

        Check with :func:`respdi.service.cache.is_hit`.  A present but
        unreadable/corrupt entry is deleted, counted, and reported as a
        miss — the caller recomputes and overwrites it.
        """
        generation = normalize_generation(generation)
        fault_point("service.pcache.lookup", generation=generation)
        path = self.directory / entry_filename(generation, fingerprint)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            payload = _ABSENT
        else:
            payload = self._validate(path, raw, generation, fingerprint)
        self.metrics.inc(
            "service.pcache.miss" if payload is _ABSENT else "service.pcache.hit"
        )
        return payload

    def _validate(
        self, path: Path, raw: str, generation: Generation, fingerprint: str
    ) -> Any:
        """Parse + checksum-gate one entry; discard (and delete) failures."""
        try:
            entry = json.loads(raw)
            if entry.get("schema_version") != PCACHE_SCHEMA_VERSION:
                # A foreign format version is stale, not corrupt: drop it
                # silently and recompute.
                self._discard(path, corrupt=False)
                return _ABSENT
            stored_generation = normalize_generation(entry["generation"])
            payload = entry["payload"]
            checksum = entry["checksum"]
        except (ValueError, KeyError, TypeError):
            self._discard(path, corrupt=True)
            return _ABSENT
        if (
            stored_generation != generation
            or entry.get("fingerprint") != fingerprint
            or _payload_checksum(payload) != checksum
        ):
            self._discard(path, corrupt=True)
            return _ABSENT
        return payload

    def _discard(self, path: Path, corrupt: bool) -> None:
        with self._lock:
            self._unlink(path)
        if corrupt:
            self.metrics.inc("service.pcache.corrupt")

    # -- write path ------------------------------------------------------------

    def put(
        self,
        generation: Generation,
        fingerprint: str,
        payload: Any,
        op: Optional[str] = None,
    ) -> None:
        """Persist *payload* under the key, atomically, then bound size.

        *payload* must be JSON-serializable (rendered results are).  The
        entry embeds its own checksum so a later reader can gate on it
        without any external metadata.
        """
        generation = normalize_generation(generation)
        fault_point("service.pcache.store", generation=generation)
        entry = {
            "schema_version": PCACHE_SCHEMA_VERSION,
            "generation": listed_generation(generation),
            "fingerprint": fingerprint,
            "op": op,
            "checksum": _payload_checksum(payload),
            "payload": payload,
        }
        path = self.directory / entry_filename(generation, fingerprint)
        # NOT sort_keys: sorting would reorder keys inside the payload
        # and break byte identity between a persistent hit and the
        # freshly rendered response (the checksum canonicalizes on its
        # own, so gating never depends on this ordering).
        atomic_write_text(path, json.dumps(entry))
        self.metrics.inc("service.pcache.store")
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """Count the new entry; past ``max_entries``, list the sidecar and
        drop oldest-mtime entries down to it (LRU-by-write)."""
        evicted = 0
        with self._lock:
            self._count += 1
            if self._count <= self.max_entries:
                return
            stamped = []
            for path in self._entry_files():
                try:
                    stamped.append((path.stat().st_mtime_ns, path.name, path))
                except FileNotFoundError:
                    continue  # unlinked since the listing: already gone
            self._count = len(stamped)
            stamped.sort()
            for _, _, path in stamped[: max(0, len(stamped) - self.max_entries)]:
                evicted += self._unlink(path)
        if evicted:
            self.metrics.inc("service.pcache.evict", evicted)

    # -- maintenance -----------------------------------------------------------

    def observe_generation(self, generation: Generation) -> int:
        """Sweep stale entries iff *generation* advanced past the last seen.

        The serve path calls this per request; the sweep itself only runs
        on an actual generation change, so steady-state requests cost one
        comparison.  Returns the number of entries swept.
        """
        generation = normalize_generation(generation)
        with self._lock:
            if self._seen_generation == generation:
                return 0
            self._seen_generation = generation
        return self.sweep_stale(generation)

    def sweep_stale(self, current_generation: Generation) -> int:
        """Delete every entry persisted under an older generation.

        Mirrors :meth:`QueryResultCache.evict_stale_generations`: per-key
        generations only advance, so ``<`` against the same shape means
        superseded.  Entries of a *different* shape (int vs. vector —
        a catalog resharded underneath its sidecar) are swept too: their
        keys can never be looked up again.
        """
        current_generation = normalize_generation(current_generation)
        fault_point("service.pcache.sweep", generation=current_generation)
        swept = 0
        with self._lock:
            files = self._entry_files()
        for path in files:
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                stored = normalize_generation(entry["generation"])
            except FileNotFoundError:
                continue  # unlinked since the listing: already gone
            except (OSError, ValueError, KeyError, TypeError):
                self._discard(path, corrupt=True)
                continue
            if type(stored) is not type(current_generation):
                stale = True  # int vs. vector: a resharded catalog
            elif isinstance(stored, tuple) and len(stored) != len(
                current_generation
            ):
                stale = True  # different shard count: same story
            else:
                stale = stored < current_generation
            if stale:
                with self._lock:
                    swept += self._unlink(path)
        if swept:
            self.metrics.inc("service.pcache.swept", swept)
        return swept

    def verify(self) -> List[str]:
        """Checksum-audit every entry; returns problem descriptions.

        Unlike the read path (which silently discards and recomputes),
        ``verify`` *reports* — it is the CI smoke gate's view of the
        sidecar.  Nothing is deleted.
        """
        problems: List[str] = []
        with self._lock:
            files = self._entry_files()
        for path in files:
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                continue  # unlinked since the listing: already gone
            except (OSError, ValueError) as exc:
                problems.append(f"{path.name}: unreadable ({exc})")
                continue
            try:
                if _payload_checksum(entry["payload"]) != entry["checksum"]:
                    problems.append(f"{path.name}: checksum mismatch")
            except (KeyError, TypeError):
                problems.append(f"{path.name}: malformed entry")
        return problems

    def clear(self) -> None:
        with self._lock:
            for path in self._entry_files():
                self._unlink(path)

    def _entry_files(self) -> List[Path]:
        """List the sidecar's entries and re-seed ``_count``; hold ``_lock``."""
        try:
            files = [
                path
                for path in self.directory.iterdir()
                if path.suffix == ".json" and not path.name.startswith(".")
            ]
        except OSError:
            files = []
        self._count = len(files)
        return files

    def _unlink(self, path: Path) -> bool:
        """Delete one entry and count it out; hold ``_lock``.  False if it
        was not deleted (another process got there first, say)."""
        try:
            path.unlink()
        except OSError:
            return False
        self._count = max(0, self._count - 1)
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entry_files())

    def stats(self) -> Dict[str, Any]:
        count = self.metrics.count
        return {
            "directory": str(self.directory),
            "size": len(self),
            "max_entries": self.max_entries,
            "hits": count("service.pcache.hit"),
            "misses": count("service.pcache.miss"),
            "stores": count("service.pcache.store"),
            "evictions": count("service.pcache.evict"),
            "corrupt_discarded": count("service.pcache.corrupt"),
            "swept": count("service.pcache.swept"),
        }


def sidecar_directory(catalog_directory: PathLike) -> Path:
    """The default sidecar location for a catalog: ``<catalog>/pcache.d``.

    Inside the catalog directory so one path names the whole serving
    state, but invisible to the catalog itself: the store's manifest
    never references it, ``verify`` never reads it, and the orphan-tmp
    sweep does not look there.
    """
    return Path(catalog_directory) / PCACHE_DIRNAME


def open_pcache(
    catalog_directory: PathLike,
    directory: Optional[PathLike] = None,
    max_entries: int = 4096,
) -> PersistentResultCache:
    """A :class:`PersistentResultCache` for *catalog_directory*.

    *directory* overrides the default sidecar path (e.g. to put the
    cache on faster or more expendable storage than the catalog).
    """
    if directory is None:
        directory = sidecar_directory(catalog_directory)
    return PersistentResultCache(directory, max_entries=max_entries)
