"""Model-based testing of the pcache sidecar against a plain dict.

A hypothesis RuleBasedStateMachine stores and reads entries, tampers
with or deletes them on disk behind the cache's back, observes
generations, clears, and reopens a new cache on the same directory. The
model is a dict from key to payload plus the set of tampered keys, and
after every step the directory holds exactly the model's entries. A
read returns the model's payload and never a tampered one, each store
leaves at most ``max_entries`` entries, and hits plus misses equals the
reads made since the cache was opened.

The state under test is the cache's in-memory entry count, reused across
every step until a listing re-seeds it. It may over-count the directory
(a store that overwrites a key, a delete behind the cache's back) but
never under-count it. ``len`` and ``stats()`` list the directory and so
re-seed the count: the machine reads counters from the cache's
``metrics`` and checks ``len`` in a rule rather than after every step,
since an invariant would reset the state under test before each step
and an over-count could never build up.
"""

import json
import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from respdi.service.cache import is_hit, normalize_generation
from respdi.service.pcache import PersistentResultCache, entry_filename

GENERATIONS = st.one_of(
    st.integers(1, 3), st.tuples(st.integers(1, 2), st.integers(1, 2))
)
KEYS = st.tuples(GENERATIONS, st.sampled_from(["fa", "fb", "fc"])).map(
    lambda key: (normalize_generation(key[0]), key[1])
)
PAYLOADS = st.lists(st.integers(0, 9), max_size=3)


def superseded(stored, current):
    """The sweep rule: another shape, or an older generation."""
    if type(stored) is not type(current):
        return True
    if isinstance(stored, tuple) and len(stored) != len(current):
        return True
    return stored < current


class PcacheMachine(RuleBasedStateMachine):
    @initialize(max_entries=st.integers(1, 4))
    def start(self, max_entries):
        self.directory = tempfile.mkdtemp(prefix="pcache-machine-")
        self.max_entries = max_entries
        self.model = {}
        #: Tampered keys still on disk, by how: "payload" keeps the entry
        #: parseable with a stale checksum, "truncate" makes it unreadable.
        self.tampered = {}
        self.open()

    def open(self):
        self.cache = PersistentResultCache(self.directory, self.max_entries)
        self.gets = 0
        self.seen = None

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def path(self, key):
        return os.path.join(self.directory, entry_filename(*key))

    def count(self, name):
        return self.cache.metrics.count(f"service.pcache.{name}")

    def listing(self):
        return {
            name
            for name in os.listdir(self.directory)
            if name.endswith(".json") and not name.startswith(".")
        }

    @rule(key=KEYS, payload=PAYLOADS)
    def put(self, key, payload):
        evictions = self.count("evict")
        self.cache.put(*key, payload)
        self.tampered.pop(key, None)
        self.model[key] = payload
        on_disk = self.listing()
        assert len(on_disk) <= self.max_entries
        # Which entries eviction picks depends on mtimes; the model takes
        # that from the directory and checks the eviction count.
        gone = [k for k in [*self.model, *self.tampered] if entry_filename(*k) not in on_disk]
        for k in gone:
            self.model.pop(k, None)
            self.tampered.pop(k, None)
        assert self.count("evict") - evictions == len(gone)

    @rule(key=KEYS)
    def get(self, key):
        got = self.cache.get(*key)
        self.gets += 1
        if key in self.model:
            assert is_hit(got) and got == self.model[key]
        else:
            assert not is_hit(got)
            self.tampered.pop(key, None)  # discarded on detection

    @rule(key=KEYS, how=st.sampled_from(["payload", "truncate"]))
    def tamper(self, key, how):
        if key not in self.model:
            return
        with open(self.path(key), encoding="utf-8") as handle:
            raw = handle.read()
        if how == "payload":
            entry = json.loads(raw)
            entry["payload"] = entry["payload"] + ["tampered"]
            raw = json.dumps(entry)
        else:
            raw = raw[: len(raw) // 2]
        with open(self.path(key), "w", encoding="utf-8") as handle:
            handle.write(raw)
        del self.model[key]
        self.tampered[key] = how

    @rule(key=KEYS)
    def delete_behind_its_back(self, key):
        if os.path.exists(self.path(key)):
            os.unlink(self.path(key))
        self.model.pop(key, None)
        self.tampered.pop(key, None)

    @rule(generation=GENERATIONS)
    def observe_generation(self, generation):
        generation = normalize_generation(generation)
        corrupt = self.count("corrupt")
        swept = self.cache.observe_generation(generation)
        if generation == self.seen:
            assert swept == 0
            return
        self.seen = generation
        stale = [k for k in self.model if superseded(k[0], generation)]
        stale += [
            k
            for k, how in self.tampered.items()
            if how == "payload" and superseded(k[0], generation)
        ]
        unreadable = [k for k, how in self.tampered.items() if how == "truncate"]
        assert swept == len(stale)
        assert self.count("corrupt") - corrupt == len(unreadable)
        for k in stale + unreadable:
            self.model.pop(k, None)
            self.tampered.pop(k, None)

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.clear()
        self.tampered.clear()

    @rule()
    def reopen(self):
        self.open()

    @rule()
    def size(self):
        assert len(self.cache) == len(self.listing())

    @invariant()
    def directory_matches_model(self):
        expected = {entry_filename(*k) for k in [*self.model, *self.tampered]}
        assert self.listing() == expected
        assert self.count("hit") + self.count("miss") == self.gets
        # The count may run ahead of the directory, never behind it.
        assert self.cache._count >= len(expected)


PcacheMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
TestPcacheMachine = PcacheMachine.TestCase
