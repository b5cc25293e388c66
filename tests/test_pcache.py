"""Persistent result cache unit coverage: the crash-safe sidecar tier.

The contracts, one at a time: round-trip (put → get yields the payload,
restart included), checksum gating (any corruption is detected, deleted,
counted, and *never served*), generation keying (int and shard-vector
keys; stale generations swept on advance, shape changes swept too),
capacity bounds (oldest-by-mtime eviction), ``verify`` reporting without
deletion, and the serve-loop integration that makes a persistent hit
byte-identical to the computed response.
"""

import json
from pathlib import Path

import pytest

from respdi.catalog import CatalogStore
from respdi.service import (
    KeywordQuery,
    PersistentResultCache,
    QueryService,
    handle_request,
    open_pcache,
)
from respdi.service.cache import is_hit
from respdi.service.pcache import (
    PCACHE_DIRNAME,
    PCACHE_SCHEMA_VERSION,
    entry_filename,
    sidecar_directory,
)
from respdi.table import Schema, Table

SCHEMA = Schema([("key", "categorical"), ("value", "numeric")])
OPTS = dict(rng=7, num_hashes=16, sketch_size=16)

PAYLOAD = [{"table": "alpha", "score": 0.5}, {"table": "beta", "score": 0.25}]


@pytest.fixture
def pcache(tmp_path):
    return PersistentResultCache(tmp_path / "pc", max_entries=64)


# -- round-trip ----------------------------------------------------------------


def test_put_get_roundtrip_and_counters(pcache):
    assert not is_hit(pcache.get(3, "fp"))
    pcache.put(3, "fp", PAYLOAD, op="keyword")
    got = pcache.get(3, "fp")
    assert is_hit(got) and got == PAYLOAD
    stats = pcache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["stores"] == 1 and stats["size"] == 1


def test_roundtrip_survives_restart(tmp_path):
    first = PersistentResultCache(tmp_path / "pc")
    first.put(7, "fp", PAYLOAD)
    # A brand-new instance over the same directory — the restart case.
    second = PersistentResultCache(tmp_path / "pc")
    got = second.get(7, "fp")
    assert is_hit(got) and got == PAYLOAD
    assert second.stats()["hits"] == 1


def test_vector_generation_keys_roundtrip(pcache):
    vector = (3, 1, 4)
    pcache.put(vector, "fp", PAYLOAD)
    assert is_hit(pcache.get(vector, "fp"))
    assert is_hit(pcache.get([3, 1, 4], "fp"))  # list/tuple normalize alike
    assert not is_hit(pcache.get((3, 1, 5), "fp"))


def test_distinct_keys_do_not_collide(pcache):
    pcache.put(1, "fp", ["one"])
    pcache.put(2, "fp", ["two"])
    pcache.put(1, "other", ["three"])
    assert pcache.get(1, "fp") == ["one"]
    assert pcache.get(2, "fp") == ["two"]
    assert pcache.get(1, "other") == ["three"]
    assert entry_filename(1, "fp") != entry_filename(2, "fp")
    assert entry_filename(1, "fp") != entry_filename(1, "other")
    # int 1 and vector (1,) are different catalog shapes, never one key.
    assert entry_filename(1, "fp") != entry_filename((1,), "fp")


def test_cached_none_like_payloads_are_hits(pcache):
    pcache.put(1, "empty", [])
    got = pcache.get(1, "empty")
    assert is_hit(got) and got == []


# -- checksum gating -----------------------------------------------------------


def _entry_path(pcache, generation, fingerprint):
    return pcache.directory / entry_filename(generation, fingerprint)


def test_corrupted_payload_is_discarded_never_served(pcache):
    pcache.put(5, "fp", PAYLOAD)
    path = _entry_path(pcache, 5, "fp")
    entry = json.loads(path.read_text())
    entry["payload"][0]["score"] = 0.999  # bit rot: checksum now stale
    path.write_text(json.dumps(entry))
    assert not is_hit(pcache.get(5, "fp"))
    assert not path.exists()  # discarded on detection
    assert pcache.stats()["corrupt_discarded"] == 1
    # The recompute-overwrite path restores service.
    pcache.put(5, "fp", PAYLOAD)
    assert pcache.get(5, "fp") == PAYLOAD


def test_truncated_entry_is_discarded(pcache):
    pcache.put(5, "fp", PAYLOAD)
    path = _entry_path(pcache, 5, "fp")
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    assert not is_hit(pcache.get(5, "fp"))
    assert pcache.stats()["corrupt_discarded"] == 1


def test_wrong_key_inside_entry_is_discarded(pcache):
    # A file at the right *name* claiming the wrong key is corrupt: the
    # gate trusts the entry's own statement, not the filename.
    pcache.put(5, "fp", PAYLOAD)
    path = _entry_path(pcache, 5, "fp")
    entry = json.loads(path.read_text())
    entry["generation"] = 6
    path.write_text(json.dumps(entry))
    assert not is_hit(pcache.get(5, "fp"))
    assert pcache.stats()["corrupt_discarded"] == 1


def test_foreign_schema_version_is_stale_not_corrupt(pcache):
    pcache.put(5, "fp", PAYLOAD)
    path = _entry_path(pcache, 5, "fp")
    entry = json.loads(path.read_text())
    entry["schema_version"] = PCACHE_SCHEMA_VERSION + 1
    path.write_text(json.dumps(entry))
    assert not is_hit(pcache.get(5, "fp"))
    assert pcache.stats()["corrupt_discarded"] == 0  # dropped silently


def test_verify_reports_without_deleting(pcache):
    pcache.put(1, "good", PAYLOAD)
    pcache.put(1, "bad", PAYLOAD)
    path = _entry_path(pcache, 1, "bad")
    entry = json.loads(path.read_text())
    entry["payload"] = ["tampered"]
    path.write_text(json.dumps(entry))
    problems = pcache.verify()
    assert len(problems) == 1 and "checksum mismatch" in problems[0]
    assert path.exists()  # verify audits; only the read path deletes
    assert len(pcache) == 2


# -- generation sweeps ---------------------------------------------------------


def test_observe_generation_sweeps_only_on_advance(pcache):
    pcache.put(3, "a", ["old"])
    pcache.put(4, "b", ["new"])
    assert pcache.observe_generation(4) == 1  # first observation sweeps
    assert pcache.observe_generation(4) == 0  # steady state: no rescan
    assert not is_hit(pcache.get(3, "a"))
    assert is_hit(pcache.get(4, "b"))
    assert pcache.stats()["swept"] == 1


def test_sweep_stale_vector_generations(pcache):
    pcache.put((2, 2), "a", ["old"])
    pcache.put((3, 2), "b", ["new"])
    assert pcache.sweep_stale((3, 2)) == 1
    assert is_hit(pcache.get((3, 2), "b"))


def test_sweep_drops_mismatched_generation_shapes(pcache):
    # A catalog resharded underneath its sidecar: int keys can never be
    # looked up against a vector generation (and vice versa) — swept.
    pcache.put(9, "a", ["scalar"])
    pcache.put((1, 1, 1), "b", ["wrong-width"])
    pcache.put((4, 4), "c", ["current"])
    assert pcache.sweep_stale((4, 4)) == 2
    assert is_hit(pcache.get((4, 4), "c"))


# -- bounds --------------------------------------------------------------------


def test_capacity_bound_evicts_oldest(tmp_path):
    import os

    pcache = PersistentResultCache(tmp_path / "pc", max_entries=2)
    pcache.put(1, "a", ["a"])
    pcache.put(1, "b", ["b"])
    # Force distinct mtimes so "oldest" is well-defined on coarse clocks.
    os.utime(_entry_path(pcache, 1, "a"), ns=(1, 1))
    pcache.put(1, "c", ["c"])
    assert len(pcache) == 2
    assert pcache.stats()["evictions"] == 1
    assert not is_hit(pcache.get(1, "a"))
    assert is_hit(pcache.get(1, "b")) and is_hit(pcache.get(1, "c"))


def _count_listings(monkeypatch, directory):
    """Count the listings of *directory* from here on.  A listing made
    some other way than ``Path.iterdir`` goes uncounted, so the test
    below, which expects exactly one, fails rather than passing."""
    listings = []
    original = Path.iterdir

    def counting(self):
        if self == directory:
            listings.append(self)
        return original(self)

    monkeypatch.setattr(Path, "iterdir", counting)
    return listings


def test_stores_under_capacity_list_nothing(tmp_path, monkeypatch):
    import os

    pcache = PersistentResultCache(tmp_path / "pc", max_entries=8)
    listings = _count_listings(monkeypatch, pcache.directory)
    for i in range(8):
        pcache.put(1, f"k{i}", [i])
        os.utime(_entry_path(pcache, 1, f"k{i}"), ns=(i + 1, i + 1))
    assert listings == []  # the count lives in memory
    pcache.put(1, "k8", [8])  # past capacity: one listing, one eviction
    assert len(listings) == 1
    assert pcache.stats()["evictions"] == 1
    assert not is_hit(pcache.get(1, "k0"))  # the oldest went
    assert all(is_hit(pcache.get(1, f"k{i}")) for i in range(1, 9))
    assert len(pcache) == 8


def test_reopen_counts_what_is_already_on_disk(tmp_path):
    first = PersistentResultCache(tmp_path / "pc", max_entries=2)
    first.put(1, "a", ["a"])
    first.put(1, "b", ["b"])
    second = PersistentResultCache(tmp_path / "pc", max_entries=2)
    second.put(1, "c", ["c"])
    assert len(second) == 2 and second.stats()["evictions"] == 1


def test_over_count_lists_early_and_evicts_nothing(tmp_path):
    pcache = PersistentResultCache(tmp_path / "pc", max_entries=3)
    for key in "abc":
        pcache.put(1, key, [key])
    for key in "ab":
        _entry_path(pcache, 1, key).unlink()  # behind the cache's back
    pcache.put(1, "d", ["d"])  # the count passes 3; the listing finds 2
    assert pcache.stats()["evictions"] == 0
    assert is_hit(pcache.get(1, "c")) and is_hit(pcache.get(1, "d"))


def test_concurrent_stores_never_under_count(tmp_path):
    import sys
    import threading

    threads, per_thread = 8, 50
    # One entry fewer than the stores: only the count reaching the last
    # store intact makes it list and evict.
    pcache = PersistentResultCache(tmp_path / "pc", max_entries=threads * per_thread - 1)

    def store(t):
        for i in range(per_thread):
            pcache.put(1, f"t{t}-{i}", [t, i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=store, args=(t,)) for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    on_disk = [p for p in pcache.directory.iterdir() if p.suffix == ".json"]
    assert pcache._count >= len(on_disk)  # it may over-count, never under
    assert len(on_disk) == pcache.max_entries
    assert pcache.stats()["stores"] == threads * per_thread
    assert pcache.verify() == []


def _vanish_after_listing(monkeypatch, victim):
    """Make the next listing return *victim*, then delete it, as a
    concurrent discard or another process would."""
    original = PersistentResultCache._entry_files

    def listing(self):
        files = original(self)
        if victim in files:
            victim.unlink()
            monkeypatch.setattr(PersistentResultCache, "_entry_files", original)
        return files

    monkeypatch.setattr(PersistentResultCache, "_entry_files", listing)


def test_entry_vanishing_before_eviction_fails_no_store(tmp_path, monkeypatch):
    pcache = PersistentResultCache(tmp_path / "pc", max_entries=2)
    pcache.put(1, "a", ["a"])
    pcache.put(1, "b", ["b"])
    _vanish_after_listing(monkeypatch, _entry_path(pcache, 1, "a"))
    pcache.put(1, "c", ["c"])  # listed a, b, c; a was gone by the sort
    assert pcache.stats()["evictions"] == 0  # the gone entry is not evicted
    assert is_hit(pcache.get(1, "b")) and is_hit(pcache.get(1, "c"))
    assert len(pcache) == 2


def test_entry_vanishing_before_sweep_is_not_corrupt(pcache, monkeypatch):
    pcache.put(1, "old", ["old"])
    pcache.put(2, "gone", ["gone"])
    pcache.put(2, "keep", ["keep"])
    pcache.put(2, "garbage", ["garbage"])
    _entry_path(pcache, 2, "garbage").write_text("{not json")
    _vanish_after_listing(monkeypatch, _entry_path(pcache, 2, "gone"))
    assert pcache.sweep_stale(2) == 1  # only the old generation
    stats = pcache.stats()
    assert stats["corrupt_discarded"] == 1  # the garbage entry, not the gone one
    assert not _entry_path(pcache, 2, "garbage").exists()
    assert is_hit(pcache.get(2, "keep"))
    assert stats["size"] == 1


def test_entry_vanishing_before_verify_is_no_problem(pcache, monkeypatch):
    pcache.put(1, "gone", ["gone"])
    _vanish_after_listing(monkeypatch, _entry_path(pcache, 1, "gone"))
    assert pcache.verify() == []


def test_max_entries_must_be_positive(tmp_path):
    from respdi.errors import SpecificationError

    with pytest.raises(SpecificationError):
        PersistentResultCache(tmp_path / "pc", max_entries=0)


def test_clear_empties_the_sidecar(pcache):
    pcache.put(1, "a", ["a"])
    pcache.put(1, "b", ["b"])
    pcache.clear()
    assert len(pcache) == 0


# -- sidecar placement ---------------------------------------------------------


def test_open_pcache_defaults_inside_the_catalog(tmp_path):
    pcache = open_pcache(tmp_path / "cat")
    assert pcache.directory == tmp_path / "cat" / PCACHE_DIRNAME
    assert sidecar_directory(tmp_path / "cat") == pcache.directory


def test_sidecar_is_invisible_to_catalog_verify(tmp_path):
    tables = {"alpha": Table.from_rows(SCHEMA, [("a", 1.0), ("b", 2.0)])}
    store = CatalogStore.build(tmp_path / "cat", tables, **OPTS)
    pcache = open_pcache(tmp_path / "cat")
    pcache.put(store.generation, "fp", PAYLOAD)
    assert store.verify() == []
    # Reopening (which sweeps orphan tmps) must not touch the sidecar.
    assert CatalogStore.open(tmp_path / "cat").verify() == []
    assert is_hit(pcache.get(store.generation, "fp"))


# -- serve-loop integration ----------------------------------------------------


def test_handle_request_persistent_hit_is_byte_identical(tmp_path):
    tables = {
        "alpha": Table.from_rows(SCHEMA, [("a", 1.0), ("b", 2.0)]),
        "beta": Table.from_rows(SCHEMA, [("c", 3.0)]),
    }
    CatalogStore.build(tmp_path / "cat", tables, **OPTS)
    service = QueryService(tmp_path / "cat", cache_size=0)  # no memory tier
    pcache = open_pcache(tmp_path / "cat")
    request = {"op": "keyword", "text": "alpha", "k": 3}
    cold = handle_request(service, request, pcache=pcache)
    assert pcache.stats()["stores"] == 1
    warm = handle_request(service, request, pcache=pcache)
    assert pcache.stats()["hits"] == 1
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
    # And across a restart: a fresh pcache instance, still a hit.
    restarted = open_pcache(tmp_path / "cat")
    again = handle_request(service, request, pcache=restarted)
    assert restarted.stats()["hits"] == 1
    assert json.dumps(cold, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_handle_request_stats_op_reports_pcache(tmp_path):
    tables = {"alpha": Table.from_rows(SCHEMA, [("a", 1.0)])}
    CatalogStore.build(tmp_path / "cat", tables, **OPTS)
    service = QueryService(tmp_path / "cat")
    pcache = open_pcache(tmp_path / "cat")
    handle_request(service, {"op": "keyword", "text": "alpha"}, pcache=pcache)
    response = handle_request(service, {"op": "stats"}, pcache=pcache)
    assert response["stats"]["pcache"]["stores"] == 1


def test_query_fingerprint_identity_spans_tiers(tmp_path):
    # The pcache keys on the same fingerprints as the memory cache, so
    # the two tiers agree about what "the same query" means.
    query = KeywordQuery(text="alpha", k=3)
    same = KeywordQuery(text="alpha", k=3)
    assert query.fingerprint == same.fingerprint
    pcache = PersistentResultCache(tmp_path / "pc")
    pcache.put(1, query.fingerprint, PAYLOAD)
    assert is_hit(pcache.get(1, same.fingerprint))
