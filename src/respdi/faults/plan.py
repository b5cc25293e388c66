"""Deterministic fault injection: named points, plans, and fault kinds.

Durability claims ("we use atomic renames", "a failed worker retries
then falls back to serial") are only as good as the tests that exercise
the failure windows.  This module turns the library's crash- and
fault-critical code paths into *named injection points*::

    from respdi.faults import fault_point

    fault_point("catalog.commit.manifest")        # plain checkpoint
    fault_point("fsutil.tmp_written", tear_target=tmp)  # with context

A point is a no-op unless a :class:`FaultPlan` is installed — the hook
costs one module-global load and a ``None`` check, the same contract as
:mod:`respdi.obs` — so production code pays nothing for being testable.
Tests install a plan that maps points to faults::

    plan = FaultPlan().on("fsutil.fsync", FsyncFailFault())
    with active_plan(plan):
        store.add_table("t", table)   # the 1st fsync now fails

Fault kinds cover the failure modes a responsible integration system
must audit (RAIDS' reliability pillar): :class:`RaiseFault` (transient
or deterministic errors), :class:`DelayFault` (hangs/timeouts),
:class:`CrashFault` (hard kill via ``os._exit`` — *no* cleanup handlers
run, exactly like SIGKILL), and :class:`TornWriteFault` (truncate a
half-written file, then crash).  Rules trigger deterministically by
occurrence count (``skip``/``every``/``times``) and an optional ``when``
predicate over the point's context, so "fail chunk 3's second attempt"
is expressible and repeatable.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from respdi.errors import RespdiError

#: Exit status a :class:`CrashFault` terminates the process with, so a
#: parent (e.g. :class:`~respdi.faults.crash.CrashSimulator`) can tell a
#: simulated crash apart from any other death.
CRASH_EXIT_CODE = 173

#: Every injection point wired into the library, by subsystem.  Tests
#: assert this registry is complete (each name is hit by the suite) so a
#: point can never silently go unexercised.
KNOWN_POINTS = frozenset(
    {
        # respdi._fsutil — the atomic tmp-write/fsync/rename recipe
        "fsutil.tmp_created",
        "fsutil.fsync",
        "fsutil.tmp_written",
        "fsutil.renamed",
        # respdi.catalog.store — manifest commit protocol and read gate
        "catalog.commit.manifest",
        "catalog.commit.gc",
        "catalog.entry.read",
        # respdi.catalog.locking — writer-lock lifecycle
        "catalog.lock.acquire",
        "catalog.lock.acquired",
        "catalog.lock.break",
        "catalog.lock.release",
        # respdi.parallel.engine — per-chunk worker execution
        "parallel.worker",
        # respdi.catalog.sharding — shard routing, per-shard commit
        # fan-out, and scatter-gather merge
        "shard.route",
        "shard.commit",
        "shard.gather",
        # respdi.service — read-path query layer (snapshot pinning, the
        # generation-keyed result cache, and the serve loop).  All
        # read-only: killing at any of them must leave the store intact.
        "service.snapshot.pin",
        "service.cache.lookup",
        "service.cache.store",
        "service.serve.start",
        "service.serve.request",
        # respdi.service.pcache — the persistent result-cache sidecar.
        # ``store`` and ``sweep`` write (through _fsutil / unlink); the
        # crash matrix kills at each and proves no corrupt entry is ever
        # served (checksum gate) and the catalog itself is untouched.
        "service.pcache.lookup",
        "service.pcache.store",
        "service.pcache.sweep",
        # respdi.ingest — the continuous ingestion daemon (watcher scan,
        # change-set apply, and the cycle loop).  The apply is the only
        # mutating point; killing there must leave a committed catalog.
        "ingest.scan",
        "ingest.apply",
        "ingest.cycle",
        # respdi.pipeline — stage boundaries (resolve runs only when a
        # matcher strength is configured; the completeness gate's mini
        # pipeline configures one)
        "pipeline.stage.tailor",
        "pipeline.stage.clean",
        "pipeline.stage.resolve",
        "pipeline.stage.audit",
        "pipeline.stage.document",
    }
)


class InjectedFaultError(RespdiError):
    """Default exception raised by :class:`RaiseFault` (clearly synthetic)."""


class SimulatedCrash(BaseException):
    """In-process stand-in for a hard kill.

    Derives from :class:`BaseException` so recovery code written as
    ``except Exception`` cannot swallow it.  Note that ``finally``
    blocks and ``except BaseException`` cleanup *do* still run — for a
    faithful kill (nothing after the point executes) use
    :class:`CrashFault`, which exits the process outright.
    """


class Fault:
    """A failure behavior triggered at an injection point."""

    def fire(self, point: str, info: Dict[str, Any]) -> None:
        raise NotImplementedError


class RaiseFault(Fault):
    """Raise an exception at the point (default: :class:`InjectedFaultError`)."""

    def __init__(self, exception: Optional[BaseException] = None) -> None:
        self.exception = exception

    def fire(self, point: str, info: Dict[str, Any]) -> None:
        if self.exception is not None:
            raise self.exception
        raise InjectedFaultError(f"injected fault at {point!r}")


class FsyncFailFault(RaiseFault):
    """An fsync that fails with ``EIO`` — the classic torn-durability error."""

    def __init__(self) -> None:
        super().__init__(OSError(errno.EIO, "injected fsync failure"))


class DelayFault(Fault):
    """Sleep at the point — models a hung worker or a slow disk."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)

    def fire(self, point: str, info: Dict[str, Any]) -> None:
        time.sleep(self.seconds)


class CrashFault(Fault):
    """Terminate the process immediately via ``os._exit``.

    Nothing after the injection point runs: no ``finally`` blocks, no
    ``atexit``, no buffered flushes — the closest an in-tree fault can
    get to SIGKILL or power loss.  Meant to fire inside a child process
    forked by :class:`~respdi.faults.crash.CrashSimulator`.
    """

    def __init__(self, exit_code: int = CRASH_EXIT_CODE) -> None:
        self.exit_code = int(exit_code)

    def fire(self, point: str, info: Dict[str, Any]) -> None:
        os._exit(self.exit_code)


class TornWriteFault(CrashFault):
    """Truncate the point's ``tear_target`` file to a prefix, then crash.

    Simulates a crash that left only the leading *fraction* of a write
    on disk (lost tail sectors).  Points that can tear pass the path to
    mutilate as ``tear_target`` in their context.
    """

    def __init__(
        self, fraction: float = 0.5, exit_code: int = CRASH_EXIT_CODE
    ) -> None:
        super().__init__(exit_code=exit_code)
        if not 0.0 <= fraction < 1.0:
            raise RespdiError("tear fraction must be in [0, 1)")
        self.fraction = float(fraction)

    def fire(self, point: str, info: Dict[str, Any]) -> None:
        target = info.get("tear_target")
        if target is not None:
            try:
                size = os.path.getsize(target)
                os.truncate(target, int(size * self.fraction))
            except OSError:
                pass
        os._exit(self.exit_code)


class FaultRule:
    """When one fault fires: occurrence gating plus a context predicate.

    The rule sees every hit of its point that passes *when*; among
    those, it skips the first *skip*, then fires on every *every*-th,
    at most *times* times (``times=None`` = unlimited).
    """

    def __init__(
        self,
        fault: Fault,
        skip: int = 0,
        every: int = 1,
        times: Optional[int] = 1,
        when: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> None:
        if skip < 0 or every < 1 or (times is not None and times < 1):
            raise RespdiError("need skip >= 0, every >= 1, times >= 1 or None")
        self.fault = fault
        self.skip = skip
        self.every = every
        self.times = times
        self.when = when
        self.seen = 0
        self.fired = 0

    def consider(self, info: Dict[str, Any]) -> bool:
        """Record one hit; return True when the fault should fire now."""
        if self.when is not None and not self.when(info):
            return False
        self.seen += 1
        if self.times is not None and self.fired >= self.times:
            return False
        eligible = self.seen - self.skip
        if eligible < 1 or (eligible - 1) % self.every != 0:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A deterministic mapping from injection points to fault rules.

    Also an observer: every hit is counted in :attr:`hits` (and, with
    ``record_trace=True``, appended to :attr:`trace` in order), which is
    how :class:`~respdi.faults.crash.CrashSimulator` enumerates the
    kill-points of an operation before re-running it against each one.
    Thread-safe: worker threads hitting points concurrently never lose
    counts or double-fire a ``times``-bounded rule.
    """

    def __init__(self, record_trace: bool = False) -> None:
        self._rules: Dict[str, List[FaultRule]] = {}
        self._lock = threading.Lock()
        self.hits: Dict[str, int] = {}
        self.trace: Optional[List[str]] = [] if record_trace else None

    def on(
        self,
        point: str,
        fault: Fault,
        *,
        skip: int = 0,
        every: int = 1,
        times: Optional[int] = 1,
        when: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> "FaultPlan":
        """Arm *fault* at *point*; returns self for chaining."""
        rule = FaultRule(fault, skip=skip, every=every, times=times, when=when)
        self._rules.setdefault(point, []).append(rule)
        return self

    def hit(self, point: str, info: Dict[str, Any]) -> None:
        """Record a hit of *point* and fire any rule that triggers."""
        with self._lock:
            self.hits[point] = self.hits.get(point, 0) + 1
            if self.trace is not None:
                self.trace.append(point)
            to_fire = [
                rule for rule in self._rules.get(point, ()) if rule.consider(info)
            ]
        for rule in to_fire:
            rule.fault.fire(point, info)

    def count(self, point: str) -> int:
        """How many times *point* was hit under this plan."""
        with self._lock:
            return self.hits.get(point, 0)


# The active plan is a bare module global so fault_point() costs one
# attribute load and a None check when no plan is installed — the same
# near-zero-overhead discipline as respdi.obs._state.
_ACTIVE: Optional[FaultPlan] = None


def fault_point(point: str, **info: Any) -> None:
    """Checkpoint for fault injection; a no-op unless a plan is active."""
    plan = _ACTIVE
    if plan is not None:
        plan.hit(point, info)


def install_plan(plan: FaultPlan) -> None:
    """Make *plan* the process-wide active fault plan."""
    global _ACTIVE
    _ACTIVE = plan


def clear_plan() -> None:
    """Deactivate fault injection (every point becomes a no-op again)."""
    global _ACTIVE
    _ACTIVE = None


def current_plan() -> Optional[FaultPlan]:
    """The installed plan, or None when injection is inactive."""
    return _ACTIVE


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install *plan* for the duration of a ``with`` block."""
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()
