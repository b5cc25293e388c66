"""The crash matrix: kill every catalog mutation at every step it takes.

Each parametrized case hands :class:`~respdi.faults.CrashSimulator` one
catalog operation.  The simulator records the operation's injection-point
trace, then re-runs it once per step in a forked child that dies by
``os._exit`` at exactly that step — no ``finally`` blocks, no cleanup,
the honest power-loss model.  After every kill the surviving directory
must open cleanly, pass ``verify``, and hold a *complete* committed
state (the one before the mutation, the one after, or — for compound
operations like ``build`` — a consistent intermediate commit).  A
single torn, half-published, or unreadable state fails the matrix.

POSIX-only (``os.fork``); skipped elsewhere.
"""

import json
import os
import sys

import pytest

from respdi.catalog import CatalogStore
from respdi.errors import CatalogCorruptError, SpecificationError
from respdi.faults import (
    CRASH_EXIT_CODE,
    CrashSimulator,
    Fault,
    FaultPlan,
    TornWriteFault,
    current_plan,
    install_plan,
)
from respdi.table import Schema, Table

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash simulation needs os.fork (POSIX)"
)

SCHEMA = Schema([("key", "categorical"), ("value", "numeric")])


def _table(tag, n=10, offset=0.0):
    rows = [(f"{tag}_{i}", float(i) + offset) for i in range(n)]
    return Table.from_rows(SCHEMA, rows)


TABLES = {f"table{t}": _table(f"t{t}") for t in range(3)}
CHANGED = _table("changed", n=6, offset=100.0)

#: Small hash family keeps each of the dozens of forked re-runs cheap
#: without changing which injection points the operations cross.
OPTS = dict(rng=7, num_hashes=16, sketch_size=16)


def _snapshot(catalog_dir):
    """A complete, verified view of the catalog — or the ``"absent"``
    sentinel when no catalog exists there (yet).  Anything that opens
    but fails verification raises, which the simulator reports as a
    corrupt outcome."""
    try:
        store = CatalogStore.open(catalog_dir)
    except SpecificationError:
        return "absent"
    problems = store.verify()
    assert problems == [], f"verify failed after crash: {problems}"
    return {name: store.meta(name)["fingerprint"] for name in store.names}


def _classifier(allowed):
    """Map a surviving snapshot to its state name via *allowed*
    (``{state_name: snapshot}``); raise on anything else."""

    def classify(workdir):
        snap = _snapshot(workdir / "cat")
        for state, expected in allowed.items():
            if snap == expected:
                return state
        raise AssertionError(
            f"post-crash state matches no committed state: {snap!r}"
        )

    return classify


def _prepare_built(names):
    subset = {name: TABLES[name] for name in names}

    def prepare(workdir):
        CatalogStore.build(workdir / "cat", subset, **OPTS)

    return prepare


def _case_build():
    def prepare(workdir):
        pass  # nothing on disk: the mutation is the cold build itself

    def mutate(workdir):
        CatalogStore.build(workdir / "cat", TABLES, **OPTS)

    # ``build`` is create-then-register: two commits.  A kill between
    # them legitimately survives as an empty-but-valid catalog.
    return prepare, mutate, {"old": "absent", "created": {}}, "build"


def _case_add():
    def mutate(workdir):
        store = CatalogStore.open(workdir / "cat")
        store.add_table("table2", TABLES["table2"])

    return _prepare_built(["table0", "table1"]), mutate, {}, "add_table"


def _case_remove():
    def mutate(workdir):
        store = CatalogStore.open(workdir / "cat")
        store.remove_table("table2")

    return (
        _prepare_built(["table0", "table1", "table2"]),
        mutate,
        {},
        "remove_table",
    )


def _case_refresh():
    def mutate(workdir):
        store = CatalogStore.open(workdir / "cat")
        assert store.refresh("table1", CHANGED)  # changed → rebuilds entry

    return _prepare_built(["table0", "table1"]), mutate, {}, "refresh"


def _case_refresh_many():
    def mutate(workdir):
        store = CatalogStore.open(workdir / "cat")
        updated = store.refresh_many(
            {"table0": TABLES["table0"], "table1": CHANGED}
        )
        assert updated == {"table0": False, "table1": True}  # no-op + rebuild

    return _prepare_built(["table0", "table1"]), mutate, {}, "refresh_many"


@pytest.mark.parametrize(
    "case",
    [_case_build, _case_add, _case_remove, _case_refresh, _case_refresh_many],
    ids=["build", "add", "remove", "refresh", "refresh_many"],
)
def test_kill_at_every_step_never_corrupts(case, tmp_path):
    prepare, mutate, extra_states, operation = case()

    # Old and new states are computed from untouched reference runs;
    # builds are byte-deterministic, so fingerprints transfer across
    # directories.
    old_dir = tmp_path / "reference-old"
    old_dir.mkdir()
    prepare(old_dir)
    new_dir = tmp_path / "reference-new"
    new_dir.mkdir()
    prepare(new_dir)
    mutate(new_dir)

    allowed = dict(extra_states)
    allowed.setdefault("old", _snapshot(old_dir / "cat"))
    allowed["new"] = _snapshot(new_dir / "cat")

    simulator = CrashSimulator(
        prepare,
        mutate,
        _classifier(allowed),
        points=("fsutil.", "catalog."),
        operation=operation,
    )
    report = simulator.run(tmp_path / "matrix")

    detail = "\n".join(
        f"  step {o.step:3d} @ {o.point}: {o.problem}" for o in report.corrupt
    )
    assert report.corrupt == [], f"{report.summary()}\n{detail}"
    # The matrix is meaningful only if it actually straddled the commit:
    # some kills must land before it (old) and some after (new).
    states = report.states
    assert states.get("new", 0) >= 1, report.summary()
    before_commit = sum(
        count for state, count in states.items() if state != "new"
    )
    assert before_commit >= 1, report.summary()
    # And it must have exercised a real protocol, not a trivial one.
    assert len(report.outcomes) >= 8, report.summary()


def test_refresh_unchanged_table_takes_no_write_steps(tmp_path):
    """A fingerprint-match refresh must not touch disk at all — its
    kill-step matrix over write points is empty."""

    def mutate(workdir):
        store = CatalogStore.open(workdir / "cat")
        assert not store.refresh("table0", TABLES["table0"])

    simulator = CrashSimulator(
        _prepare_built(["table0"]),
        mutate,
        _classifier({}),
        points=("fsutil.",),
        operation="refresh-noop",
    )
    trace = simulator.record(tmp_path / "record")
    assert [p for p in trace if p.startswith("fsutil.")] == []


def test_commit_publishes_only_the_manifest(tmp_path):
    """``remove_table`` writes no entry files, so every durable write it
    makes is the commit's own: exactly one rename, of ``MANIFEST.json``."""
    renamed = []

    class RecordPath(Fault):
        def fire(self, point, info):
            renamed.append(os.path.basename(info["path"]))

    def mutate(workdir):
        current_plan().on("fsutil.renamed", RecordPath(), times=None)
        CatalogStore.open(workdir / "cat").remove_table("table2")

    simulator = CrashSimulator(
        _prepare_built(["table0", "table1", "table2"]),
        mutate,
        _classifier({}),
        points=("fsutil.",),
        operation="remove-record",
    )
    trace = simulator.record(tmp_path / "record")
    assert trace.count("fsutil.renamed") == 1
    assert renamed == ["MANIFEST.json"]


def test_torn_manifest_rename_is_detected_not_silent(tmp_path):
    """Simulate a non-atomic rename (torn destination) of MANIFEST.json:
    the catalog must refuse to open with :class:`CatalogCorruptError`
    rather than serve a half-written manifest as truth."""
    catalog_dir = tmp_path / "cat"
    CatalogStore.build(
        catalog_dir, {"table0": TABLES["table0"]}, **OPTS
    )
    manifest = catalog_dir / "MANIFEST.json"
    intact = manifest.read_bytes()

    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child exits via os._exit
        try:
            plan = FaultPlan().on(
                "fsutil.renamed",
                TornWriteFault(fraction=0.5),
                when=lambda info: info.get("path", "").endswith(
                    "MANIFEST.json"
                ),
            )
            install_plan(plan)
            store = CatalogStore.open(catalog_dir)
            store.add_table("table1", TABLES["table1"])
        except BaseException:
            os._exit(99)
        os._exit(98)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == CRASH_EXIT_CODE

    torn = manifest.read_bytes()
    assert torn != intact  # the fault really mutilated the manifest
    with pytest.raises(ValueError):  # a torn JSON prefix cannot parse
        json.loads(torn.decode("utf-8", errors="replace"))
    with pytest.raises(CatalogCorruptError):
        CatalogStore.open(catalog_dir)
