"""Outside-in tracing: the benchmark wraps respdi's public calls in spans.

:func:`install` replaces each timed function or method with a wrapper
that records ``(name, span id, parent id, unit, start, end, extra)`` in
memory, everywhere the name is looked up (a function imported with
``from x import f`` is patched in every respdi module that holds it).
Nothing inside the program changes.  A *unit* is one thing the ledger
accounts for: a cold build, a server setup, a request, an ingest cycle.
Spans of one unit share its key; :class:`Tracer` hands the key on to
the worker threads of a pooled ``map_chunked``.

:class:`Ledger` turns the spans into the per-layer metrics: each
self-time metric (``TIME_METRICS``) is a sum of span self times, and
``unattributed_s`` is the traced end-to-end time they leave over.
Where pool threads overlap, their self times count the same wall time
twice; ``parallel.overlap_s`` reports that excess, which shows up as a
negative ``unattributed_s``.  :meth:`Ledger.problems` checks that the
spans fit inside the end-to-end time they are charged to.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from stats import median, self_times

#: Span name -> the self-time metric it adds to.  Spans not listed here
#: (``unit.*``) are the benchmark's own units; their self time is the
#: unattributed residual.
SPAN_METRIC = {
    "setup.import": "setup.import_s",
    "table.read_csv": "table.read_csv_s",
    "table.hash32": "table.hash_s",
    "table.hash64": "table.hash_s",
    "catalog.fingerprint": "catalog.fingerprint_s",
    "catalog.add_tables": "catalog.add_s",
    "catalog.refresh_many": "catalog.refresh_s",
    "catalog.open": "catalog.open_s",
    "catalog.index": "catalog.open_s",
    "discovery.sketch": "discovery.sketch_s",
    "discovery.minhash": "discovery.minhash_s",
    "discovery.corr_sketch": "discovery.corr_sketch_s",
    "discovery.ensemble": "discovery.ensemble_s",
    "discovery.query": "discovery.query_s",
    "fsutil.write": "fsutil.write_s",
    "fsutil.fsync": "fsutil.fsync_s",
    "parallel.map": "parallel.map_s",
    "service.handle": "service.handle_s",
    "service.parse": "service.parse_s",
    "service.render": "service.render_s",
    "service.merge": "service.merge_s",
    "service.cache": "service.cache_s",
    "service.pcache_get": "service.pcache_get_s",
    "service.pcache_put": "service.pcache_put_s",
    "service.snapshot": "service.snapshot_s",
    "service.pin": "service.snapshot_s",
    "ingest.cycle": "ingest.cycle_s",
    "ingest.scan": "ingest.scan_s",
    "ingest.apply": "ingest.apply_s",
    "ingest.reload": "ingest.reload_s",
}

TIME_METRICS = sorted(set(SPAN_METRIC.values()) | {"service.transport_s"})
COUNT_METRICS = (
    "table.read_csv_calls",
    "table.read_csv_bytes",
    "table.hash_values",
    "catalog.fingerprint_calls",
    "fsutil.writes",
    "fsutil.bytes_written",
    "fsutil.fsyncs",
    "parallel.map_calls",
    "parallel.pooled_calls",
    "service.admission_rejects",
    "service.cache_lookups",
    "service.cache_hit_ratio",
    "service.pcache_lookups",
    "service.pcache_hit_ratio",
    "service.pins",
    "service.repins",
    "service.pin_useful_ratio",
    "ingest.cycles",
    "ingest.scan_useful_ratio",
)
#: Every per-layer metric, in report order.
LAYER_METRICS = tuple(TIME_METRICS) + COUNT_METRICS + (
    "parallel.overlap_s",
    "ingest.freshness_lag_s",
    "client.overhead_ms",
    "traced_e2e_s",
    "unattributed_s",
    "trace_overhead_ratio",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.admission_rejects = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._units = itertools.count(1)
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, unit_prefix: Optional[str] = None) -> tuple:
        stack = self.stack()
        if stack:
            parent, unit = stack[-1]
        else:
            parent = 0
            unit = f"{unit_prefix}{next(self._units)}" if unit_prefix else None
        span_id = next(self._ids)
        stack.append((span_id, unit))
        return span_id, parent, unit, time.perf_counter_ns()

    def end(self, name: str, token: tuple, extra: Any = None) -> None:
        end = time.perf_counter_ns()
        self.stack().pop()
        span_id, parent, unit, start = token
        self.spans.append((name, span_id, parent, unit, start, end, extra))

    def wrap(
        self,
        name: str,
        fn: Callable,
        extra: Optional[Callable] = None,
        unit_prefix: Optional[str] = None,
    ) -> Callable:
        """*fn* recording one span per call; *extra* sees (args, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin(unit_prefix)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(name, token)
                raise
            self.end(name, token, extra(args, kwargs, result) if extra else None)
            return result

        return traced

    @contextlib.contextmanager
    def unit(self, kind: str) -> Iterator[None]:
        """Run a block as a benchmark-defined unit (a build, a setup)."""
        stack = self.stack()
        saved = list(stack)
        stack.clear()
        token = self.begin(kind)
        try:
            yield
        finally:
            self.end(f"unit.{kind}", token)
            stack[:] = saved

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        token = self.begin()
        try:
            yield
        finally:
            self.end(name, token)


class _InWorker:
    """Runs a ``map_chunked`` item under the caller's span in a pool thread."""

    __slots__ = ("tracer", "fn", "context", "caller", "pooled")

    def __init__(self, tracer: Tracer, fn: Callable, context: tuple, pooled: list):
        self.tracer = tracer
        self.fn = fn
        self.context = context
        self.caller = threading.get_ident()
        self.pooled = pooled

    def __call__(self, item):
        if threading.get_ident() == self.caller:
            return self.fn(item)
        self.pooled[0] = 1
        stack = self.tracer.stack()
        saved = list(stack)
        stack[:] = [self.context]
        try:
            return self.fn(item)
        finally:
            stack[:] = saved


# -- installation ------------------------------------------------------------------


def _rebind(original: Callable, replacement: Callable) -> int:
    """Replace *original* in every loaded respdi module's namespace."""
    count = 0
    for name, module in list(sys.modules.items()):
        if not (name == "respdi" or name.startswith("respdi.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                count += 1
    if count == 0:
        raise RuntimeError(f"{original!r} is not bound in any respdi module")
    return count


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str, **options) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, **options)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **options))


def _size_of(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every call the per-layer metrics time (respdi must be importable)."""
    import respdi._fsutil as fsutil
    import respdi.catalog.store as store
    import respdi.discovery.correlation_sketches as corr
    import respdi.discovery.lake_index as lake_index
    import respdi.discovery.serialize as serialize
    import respdi.ingest  # noqa: F401  (binds the names patched below)
    import respdi.parallel.engine as engine
    import respdi.service  # noqa: F401
    import respdi.table.hashing as hashing
    import respdi.table.io as table_io
    from respdi.catalog.store import CatalogStore
    from respdi.discovery.keyword import KeywordIndex
    from respdi.discovery.lake_index import DataLakeIndex
    from respdi.discovery.lshensemble import LSHEnsemble
    from respdi.discovery.minhash import MinHasher
    from respdi.ingest.daemon import IngestDaemon
    from respdi.ingest.watcher import SourceWatcher
    from respdi.ingest.writer import RefreshWriter
    from respdi.service import queries
    from respdi.service import server as serve_loop
    from respdi.service import service as plain
    from respdi.service import sharded
    from respdi.service.admission import AdmissionController
    from respdi.service.cache import QueryResultCache, is_hit
    from respdi.service.pcache import PersistentResultCache

    def functions(pairs):
        for original, name, extra in pairs:
            _rebind(original, tracer.wrap(name, original, extra=extra))

    def sized(args, kwargs, result):
        values = args[0] if args else None
        return len(values) if hasattr(values, "__len__") else 0

    def hit(args, kwargs, result):
        return 1 if is_hit(result) else 0

    functions([
        (table_io.read_csv, "table.read_csv", lambda a, k, r: _size_of(a[0])),
        (hashing.stable_hash32_array, "table.hash32", sized),
        (hashing.salted_hash64_list, "table.hash64", sized),
        (store.table_fingerprint, "catalog.fingerprint", None),
        (lake_index.build_table_artifacts, "discovery.sketch", None),
        (serialize.lshensemble_to_npz, "discovery.ensemble", None),
        (fsutil.atomic_write_bytes, "fsutil.write", lambda a, k, r: len(a[1])),
        (serve_loop.build_query, "service.parse", None),
        (sharded.merge_ranked, "service.merge", None),
        (
            plain.pin_snapshot,
            "service.pin",
            lambda a, k, r: (str(a[0].directory), r.generation),
        ),
    ])
    # handle_request roots a request unit; a server's first one is its
    # setup probe.
    _rebind(
        serve_loop.handle_request,
        tracer.wrap("service.handle", serve_loop.handle_request, unit_prefix="r"),
    )

    _patch_method(tracer, CatalogStore, "add_tables", "catalog.add_tables")
    _patch_method(tracer, CatalogStore, "refresh_many", "catalog.refresh_many")
    _patch_method(tracer, CatalogStore, "open", "catalog.open")
    _patch_method(tracer, CatalogStore, "index", "catalog.index")
    _patch_method(tracer, MinHasher, "signature", "discovery.minhash")
    _patch_method(tracer, corr.CorrelationSketch, "build", "discovery.corr_sketch")
    _patch_method(tracer, LSHEnsemble, "index_signature", "discovery.ensemble")
    _patch_method(tracer, LSHEnsemble, "freeze", "discovery.ensemble")
    for attr in ("keyword_search", "unionable_tables", "joinable_columns",
                 "containment_search"):
        _patch_method(tracer, DataLakeIndex, attr, "discovery.query")
    _patch_method(tracer, KeywordIndex, "search", "discovery.query")
    for cls in (queries.KeywordQuery, queries.UnionQuery, queries.JoinQuery,
                queries.ContainmentQuery, queries.MatchQuery):
        _patch_method(tracer, cls, "render", "service.render")
    _patch_method(tracer, QueryResultCache, "get", "service.cache", extra=hit)
    _patch_method(tracer, PersistentResultCache, "get", "service.pcache_get", extra=hit)
    _patch_method(tracer, PersistentResultCache, "put", "service.pcache_put")
    for cls in (plain.QueryService, sharded.ShardedQueryService):
        _patch_method(tracer, cls, "snapshot", "service.snapshot")
        _patch_method(tracer, cls, "reload", "ingest.reload")
    _patch_method(
        tracer, SourceWatcher, "scan", "ingest.scan",
        extra=lambda a, k, r: (len(r.added) + len(r.changed), r.scanned),
    )
    _patch_method(tracer, RefreshWriter, "apply", "ingest.apply")
    _patch_method(tracer, IngestDaemon, "run_cycle", "ingest.cycle", unit_prefix="c")

    admit = AdmissionController.admit

    @functools.wraps(admit)
    def counted_admit(self, *args, **kwargs):
        ticket = admit(self, *args, **kwargs)
        if not ticket:
            with tracer._lock:
                tracer.admission_rejects += 1
        return ticket

    AdmissionController.admit = counted_admit

    map_chunked = engine.map_chunked

    @functools.wraps(map_chunked)
    def traced_map(fn, items, context=None, n_jobs=None, **kwargs):
        token = tracer.begin()
        pooled = [0]
        if getattr(context, "backend", None) != "processes":
            fn = _InWorker(tracer, fn, (token[0], token[2]), pooled)
        try:
            return map_chunked(fn, items, context=context, n_jobs=n_jobs, **kwargs)
        finally:
            tracer.end("parallel.map", token, pooled[0])

    _rebind(map_chunked, traced_map)

    os.fsync = tracer.wrap("fsutil.fsync", os.fsync)


# -- aggregation -------------------------------------------------------------------


#: Span name -> count metric of its calls.
CALLS = {
    "table.read_csv": "table.read_csv_calls",
    "catalog.fingerprint": "catalog.fingerprint_calls",
    "fsutil.write": "fsutil.writes",
    "fsutil.fsync": "fsutil.fsyncs",
    "parallel.map": "parallel.map_calls",
    "service.cache": "service.cache_lookups",
    "service.pcache_get": "service.pcache_lookups",
    "service.pin": "service.pins",
    "ingest.cycle": "ingest.cycles",
}
#: Span name -> count metric its numeric extra adds to.
EXTRAS = {
    "table.read_csv": "table.read_csv_bytes",
    "table.hash32": "table.hash_values",
    "table.hash64": "table.hash_values",
    "fsutil.write": "fsutil.bytes_written",
    "parallel.map": "parallel.pooled_calls",
    "service.cache": "cache_hits",
    "service.pcache_get": "pcache_hits",
}


class Ledger:
    """Sums per-layer metrics over the units of one or more processes."""

    def __init__(self) -> None:
        self.times: Dict[str, int] = {name: 0 for name in TIME_METRICS}
        self.counts: Counter = Counter()

    def add_spans(self, spans: Iterable[list], keep: Callable[[Optional[str]], bool]) -> None:
        """Add one process's spans whose unit passes *keep*."""
        spans = sorted((span for span in spans if keep(span[3])), key=lambda s: s[4])
        selfs, overlap = self_times([(s[1], s[2], s[4], s[5]) for s in spans])
        counts = self.counts
        counts["overlap_ns"] += overlap
        last_pin: Dict[str, int] = {}
        bounds = {span[1]: (span[4], span[5]) for span in spans}
        for name, span_id, parent, _unit, start, end, extra in spans:
            if parent == 0:
                counts["top_level_ns"] += end - start
            elif start < bounds[parent][0] or end > bounds[parent][1]:
                counts["leaking_spans"] += 1
            if name in SPAN_METRIC:
                self.times[SPAN_METRIC[name]] += selfs[span_id]
            if name in CALLS:
                counts[CALLS[name]] += 1
            if name in EXTRAS:
                counts[EXTRAS[name]] += extra or 0
            elif name == "service.pin":
                directory, generation = extra
                counts["service.repins"] += directory in last_pin
                counts["useful_pins"] += last_pin.get(directory) != generation
                last_pin[directory] = generation
            elif name == "ingest.scan":
                counts["scan_changed"] += extra[0]
                counts["scan_parsed"] += extra[1]

    def add_time(self, metric: str, ns: int) -> None:
        self.times[metric] += ns

    def metrics(self, traced_e2e_ns: int) -> Dict[str, float]:
        """Per-layer metrics; ``unattributed_s`` closes the ledger."""
        c = self.counts
        out = {name: 0.0 for name in LAYER_METRICS}
        out.update({metric: ns / 1e9 for metric, ns in self.times.items()})
        out.update({name: c[name] for name in COUNT_METRICS if name in c})
        out.update({
            "service.cache_hit_ratio": _ratio(c["cache_hits"], c["service.cache_lookups"]),
            "service.pcache_hit_ratio": _ratio(c["pcache_hits"], c["service.pcache_lookups"]),
            "service.pin_useful_ratio": _ratio(c["useful_pins"], c["service.pins"]),
            "ingest.scan_useful_ratio": _ratio(c["scan_changed"], c["scan_parsed"]),
            "parallel.overlap_s": c["overlap_ns"] / 1e9,
            "traced_e2e_s": traced_e2e_ns / 1e9,
            "unattributed_s": (traced_e2e_ns - sum(self.times.values())) / 1e9,
        })
        return out


    def problems(self, traced_e2e_ns: int, slack_ns: int = 1000) -> List[str]:
        """Ways the spans fail to fit in *traced_e2e_ns*; empty when they fit.

        Every span lies inside its parent, and top-level spans (setups,
        builds, requests, ingest cycles) lie inside the end-to-end time
        the workload measured around them, so their durations cannot add
        up to more.  Then the self times, less the time pool threads count
        twice, cannot exceed it either: ``unattributed_s`` is never below
        ``-parallel.overlap_s``.
        """
        found = []
        if self.counts["leaking_spans"]:
            found.append(f"{self.counts['leaking_spans']} spans end outside their parent")
        top = self.counts["top_level_ns"]
        if top > traced_e2e_ns + slack_ns:
            found.append(
                f"top-level spans last {top / 1e9:.6f} s, more than the traced "
                f"end-to-end time {traced_e2e_ns / 1e9:.6f} s"
            )
        attributed = sum(self.times.values()) - self.counts["overlap_ns"]
        if attributed > traced_e2e_ns + slack_ns:
            found.append(
                f"self times less pool overlap come to {attributed / 1e9:.6f} s, "
                f"more than the traced end-to-end time {traced_e2e_ns / 1e9:.6f} s"
            )
        return found


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def overhead_ratio(traced: List[float], untraced: List[float]) -> float:
    """Median traced unit time over median untraced, minus one."""
    return median(traced) / median(untraced) - 1.0

