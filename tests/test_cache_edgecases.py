"""QueryResultCache eviction edge cases and accounting invariants.

The corners the mainline cache tests skip: a capacity-1 cache (every
insert evicts), generation re-pin racing concurrent lookups (no lost
counts, no stale survivors), tuple-generation (shard-vector) keys under
eviction, and the hypothesis-checked ledger invariant
``hits + misses == lookups`` for arbitrary operation sequences.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from respdi.service import QueryResultCache
from respdi.service.cache import is_hit, make_key


# -- capacity 1 ----------------------------------------------------------------


def test_capacity_one_every_insert_evicts_the_previous():
    cache = QueryResultCache(maxsize=1)
    cache.put((1, "a"), "A")
    cache.put((1, "b"), "B")
    assert not is_hit(cache.get((1, "a")))
    assert is_hit(cache.get((1, "b")))
    cache.put((1, "c"), "C")
    assert cache.keys() == ((1, "c"),)
    assert cache.stats()["evictions"] == 2
    assert len(cache) == 1


def test_capacity_one_overwrite_same_key_is_not_an_eviction():
    cache = QueryResultCache(maxsize=1)
    cache.put((1, "a"), "old")
    cache.put((1, "a"), "new")
    assert cache.get((1, "a")) == "new"
    assert cache.stats()["evictions"] == 0


# -- generation re-pin under concurrent lookups --------------------------------


def test_concurrent_lookups_during_repin_lose_no_counts():
    """Readers hammer get() while a writer advances the generation and
    evicts; afterwards the ledger still balances exactly and only
    current-generation entries survive."""
    cache = QueryResultCache(maxsize=256)
    generations = 6
    readers = 4
    reads_each = 300
    for generation in range(generations):
        cache.put(make_key(generation, "warm"), generation)
    barrier = threading.Barrier(readers + 1)
    errors = []

    def reader(seed):
        barrier.wait()
        try:
            for i in range(reads_each):
                generation = (seed + i) % generations
                value = cache.get(make_key(generation, "warm"))
                if is_hit(value):
                    assert value == generation  # never a torn/wrong entry
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    def repinner():
        barrier.wait()
        for generation in range(1, generations):
            cache.evict_stale_generations(generation)

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(readers)
    ] + [threading.Thread(target=repinner)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    stats = cache.stats()
    assert stats["lookups"] == readers * reads_each
    assert stats["hits"] + stats["misses"] == stats["lookups"]
    # After the final re-pin only the newest generation's entry survives.
    cache.evict_stale_generations(generations - 1)
    assert all(key[0] == generations - 1 for key in cache.keys())


def test_repin_during_lookup_never_resurrects_stale_entries():
    cache = QueryResultCache(maxsize=8)
    cache.put(make_key(1, "x"), "gen1")
    cache.evict_stale_generations(2)
    assert not is_hit(cache.get(make_key(1, "x")))
    # A late put keyed on the old generation can land (the writer raced
    # the re-pin) but the next re-pin clears it — eventual consistency.
    cache.put(make_key(1, "x"), "late")
    assert cache.evict_stale_generations(2) == 1
    assert not is_hit(cache.get(make_key(1, "x")))


# -- tuple (shard-vector) generation keys --------------------------------------


def test_vector_generation_eviction_is_componentwise_ordered():
    cache = QueryResultCache(maxsize=8)
    cache.put(make_key((1, 1), "q"), "old")
    cache.put(make_key((1, 2), "q"), "mid")
    cache.put(make_key((2, 2), "q"), "new")
    dropped = cache.evict_stale_generations((2, 2))
    assert dropped == 2
    assert cache.keys() == (((2, 2), "q"),)


def test_vector_keys_under_capacity_pressure():
    cache = QueryResultCache(maxsize=2)
    cache.put(make_key((1, 1), "a"), "A")
    cache.put(make_key((1, 1), "b"), "B")
    assert is_hit(cache.get(make_key((1, 1), "a")))  # touch: a is recent
    cache.put(make_key((1, 2), "c"), "C")  # evicts b (LRU), not a
    assert sorted(cache.keys()) == [((1, 1), "a"), ((1, 2), "c")]


def test_make_key_normalizes_list_vectors():
    assert make_key([3, 1], "fp") == make_key((3, 1), "fp")
    assert make_key(5, "fp") == (5, "fp")


# -- the accounting invariant, property-checked --------------------------------


_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "evict"]),
        st.integers(min_value=0, max_value=3),  # generation
        st.sampled_from(["a", "b", "c"]),  # fingerprint
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(operations=_ops, maxsize=st.integers(min_value=0, max_value=3))
def test_hits_plus_misses_equals_lookups(operations, maxsize):
    cache = QueryResultCache(maxsize=maxsize)
    expected_lookups = 0
    for op, generation, fingerprint in operations:
        key = make_key(generation, fingerprint)
        if op == "get":
            cache.get(key)
            if cache.enabled:
                expected_lookups += 1
        elif op == "put":
            cache.put(key, (generation, fingerprint))
        else:
            cache.evict_stale_generations(generation)
    stats = cache.stats()
    assert stats["lookups"] == expected_lookups
    assert stats["hits"] + stats["misses"] == stats["lookups"]
    assert stats["size"] <= max(maxsize, 0)
