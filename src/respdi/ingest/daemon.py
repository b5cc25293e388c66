"""The ingestion daemon: watcher→writer cycles under live query load.

An :class:`IngestDaemon` binds one
:class:`~respdi.ingest.watcher.SourceWatcher` to one
:class:`~respdi.ingest.writer.RefreshWriter` and runs cycles — scan the
sources, apply the diff, publish — either on demand
(:meth:`IngestDaemon.run_cycle`), in a bounded foreground loop
(:meth:`IngestDaemon.run`), or on a background thread
(:meth:`IngestDaemon.start` / :meth:`IngestDaemon.stop`, also the
context-manager form).  ``respdi-catalog watch`` is the CLI wrapper.

Readers need no coordination with the daemon: every commit goes through
the catalog's atomic publish, so a
:class:`~respdi.service.QueryService` pinned to a snapshot keeps
answering against its generation and re-pins on its own manifest-token
check.  Attaching a service (``service=``) merely makes the re-pin
*eager* — the daemon calls :meth:`~respdi.service.QueryService.reload`
after each applying cycle so a long-lived server picks the new
generation up immediately instead of on its next query.

Each cycle crosses the ``ingest.cycle`` (loop), ``ingest.scan``
(watcher), and ``ingest.apply`` (writer) fault points, which is what
lets the crash matrix kill a daemon at every step it takes and assert
the surviving catalog is a complete committed state.

Metrics: ``ingest.cycles`` counts every cycle, ``ingest.lag_seconds``
gauges the detect→publish latency of the last cycle that applied
changes, and ``catalog.generation`` tracks the committed generation
scalar.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from respdi import obs
from respdi.catalog.sharding import open_catalog
from respdi.errors import SpecificationError
from respdi.faults.plan import fault_point
from respdi.ingest.watcher import SourceWatcher, committed_fingerprints
from respdi.ingest.writer import RefreshWriter, Store, generation_of
from respdi.parallel import ExecutionContext

PathLike = Union[str, Path]


@dataclass(frozen=True)
class CycleResult:
    """One cycle's audit record (what ``respdi-catalog watch`` prints)."""

    cycle: int
    scanned: int
    added: int
    refreshed: int
    removed: int
    generation: Union[int, Tuple[int, ...]]
    lag_seconds: float

    @property
    def applied(self) -> bool:
        """True when this cycle committed anything."""
        return bool(self.added or self.refreshed or self.removed)

    def summary(self) -> str:
        suffix = f" lag={self.lag_seconds:.3f}s" if self.applied else ""
        return (
            f"cycle {self.cycle}: +{self.added} ~{self.refreshed} "
            f"-{self.removed} generation={self.generation}{suffix}"
        )


class IngestDaemon:
    """Watcher→writer cycles over one catalog, safe under live readers."""

    def __init__(
        self,
        store: Union[Store, PathLike],
        sources: Union[PathLike, Sequence[PathLike]],
        interval: float = 1.0,
        remove_missing: bool = True,
        service=None,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = open_catalog(store)
        self.store = store
        self.watcher = SourceWatcher(sources, remove_missing=remove_missing)
        self.writer = RefreshWriter(store, context=context, n_jobs=n_jobs)
        self.interval = float(interval)
        if self.interval < 0:
            raise SpecificationError("interval must be >= 0")
        #: Optional QueryService (plain or sharded catalog) to eagerly
        #: re-pin after each applying cycle (the auto-re-pin mode).
        self.service = service
        self.cycles = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def directory(self) -> Path:
        return self.store.directory

    # -- one cycle -----------------------------------------------------------

    def run_cycle(self) -> CycleResult:
        """Scan the sources and commit whatever changed (one cycle).

        The diff baseline is re-read from the committed manifests every
        cycle, so out-of-band writers (another process adding tables)
        are observed rather than clobbered, and a crash-interrupted
        previous cycle is simply finished: whatever it already committed
        fingerprints as current, whatever it lost is re-detected.
        """
        self.cycles += 1
        fault_point("ingest.cycle", cycle=self.cycles)
        start = time.perf_counter()
        with obs.trace("ingest.cycle", cycle=self.cycles):
            changes = self.watcher.scan(
                committed_fingerprints(self.store.directory)
            )
            if changes.empty:
                result = CycleResult(
                    cycle=self.cycles,
                    scanned=changes.scanned,
                    added=0,
                    refreshed=0,
                    removed=0,
                    generation=generation_of(self.store),
                    lag_seconds=0.0,
                )
            else:
                applied = self.writer.apply(changes)
                lag = time.perf_counter() - start
                obs.set_gauge("ingest.lag_seconds", lag)
                result = CycleResult(
                    cycle=self.cycles,
                    scanned=changes.scanned,
                    added=applied.added,
                    refreshed=applied.refreshed,
                    removed=applied.removed,
                    generation=applied.generation,
                    lag_seconds=lag,
                )
                if self.service is not None:
                    self.service.reload()
        obs.inc("ingest.cycles")
        return result

    # -- the loop ------------------------------------------------------------

    def run(
        self,
        max_cycles: Optional[int] = None,
        stop_event: Optional[threading.Event] = None,
        on_cycle=None,
    ) -> int:
        """Run cycles every :attr:`interval` seconds; return cycles run.

        Stops after *max_cycles* (None = until *stop_event* is set).
        *on_cycle*, when given, receives each :class:`CycleResult` —
        the CLI's progress printer, a test's recorder.  The inter-cycle
        sleep waits on the stop event, so :meth:`stop` interrupts an
        idle daemon immediately instead of after the interval.
        """
        stop = stop_event if stop_event is not None else self._stop
        ran = 0
        while max_cycles is None or ran < max_cycles:
            if stop.is_set():
                break
            result = self.run_cycle()
            ran += 1
            if on_cycle is not None:
                on_cycle(result)
            if max_cycles is not None and ran >= max_cycles:
                break
            if stop.wait(self.interval):
                break
        return ran

    # -- background operation ------------------------------------------------

    def start(self, max_cycles: Optional[int] = None) -> "IngestDaemon":
        """Run the loop on a daemon thread; returns self for chaining."""
        if self._thread is not None and self._thread.is_alive():
            raise SpecificationError("ingest daemon is already running")
        self._stop.clear()
        self._error = None

        def _loop() -> None:
            try:
                self.run(max_cycles=max_cycles, stop_event=self._stop)
            except BaseException as exc:  # noqa: BLE001 - surfaced by stop()
                self._error = exc

        self._thread = threading.Thread(
            target=_loop, name="respdi-ingest", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Signal the loop to exit and join the thread.

        An exception that killed the background loop is re-raised here
        — a daemon must never die silently.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "IngestDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't mask an in-flight exception with a loop error.
        try:
            self.stop()
        except BaseException:  # noqa: BLE001
            if exc_type is None:
                raise
