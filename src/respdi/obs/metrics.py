"""Counters, gauges, and histogram timers behind one registry.

Metric names are dotted strings whose first component identifies the
subsystem (``pipeline.runs``, ``discovery.minhash.signature.seconds``,
``tailoring.draws``).  A :class:`MetricsRegistry` is lock-safe: every
mutation takes the registry lock, so concurrent increments from worker
threads never lose updates.  The process-global registry returned by
:func:`global_registry` is what the instrumentation helpers and the CLI
``--metrics`` flag talk to; tests can build private registries.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Iterator, Optional

from respdi.obs import _state


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0


class Histogram:
    """Streaming summary of observed values (count/total/min/max/mean/p50/p99).

    Percentiles come from a bounded ring of the most recent
    ``WINDOW_SIZE`` observations (nearest-rank): exact for short-lived
    processes, recency-weighted for long-lived servers — which is the
    view an operator watching ``serve.latency.*`` wants anyway.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_window", "_next")

    #: Samples retained for percentile estimation, per histogram.
    WINDOW_SIZE = 1024

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._window: list = []
        self._next = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._window) < self.WINDOW_SIZE:
            self._window.append(value)
        else:
            self._window[self._next] = value
            self._next = (self._next + 1) % self.WINDOW_SIZE

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained window (0 if empty)."""
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil without math
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
        }


class _Timer:
    """Context manager recording elapsed seconds into a histogram."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.observe(self._name, time.perf_counter() - self._start)
        return False


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- mutation ------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            gauge.value = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            histogram.observe(float(value))

    def timer(self, name: str) -> _Timer:
        """``with registry.timer("x.seconds"): ...`` records elapsed time."""
        return _Timer(self, name)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- read side -----------------------------------------------------------

    def counter_value(self, name: str) -> float:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter else 0.0

    def count(self, name: str) -> int:
        """A counter of whole events as an int (0 if never incremented)."""
        return int(self.counter_value(name))

    def gauge_value(self, name: str) -> float:
        with self._lock:
            gauge = self._gauges.get(name)
            return gauge.value if gauge else 0.0

    def histogram_summary(self, name: str) -> Optional[Dict[str, float]]:
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.summary() if histogram else None

    def metric_names(self) -> Iterator[str]:
        with self._lock:
            names = set(self._counters) | set(self._gauges) | set(self._histograms)
        return iter(sorted(names))

    def snapshot(self) -> Dict[str, Dict]:
        """All metrics as plain data, grouped by kind."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.summary() for n, h in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global registry the instrumentation helpers write to."""
    return _GLOBAL_REGISTRY


class ComponentRegistry(MetricsRegistry):
    """The always-on registry one component owns and its ``stats`` reads.

    While observability is enabled every count and observation also
    lands on the global registry under the same name, so ``stats`` and
    ``respdi-audit --metrics`` read the same numbers from one store.
    """

    def inc(self, name: str, amount: float = 1.0) -> None:
        MetricsRegistry.inc(self, name, amount)
        if _state.enabled:
            _GLOBAL_REGISTRY.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        MetricsRegistry.observe(self, name, value)
        if _state.enabled:
            _GLOBAL_REGISTRY.observe(name, value)


# -- guarded helpers for instrumentation sites --------------------------------
#
# Library code calls these instead of touching the registry directly, so a
# disabled observability layer costs one attribute check per call site.


def inc(name: str, amount: float = 1.0) -> None:
    if _state.enabled:
        _GLOBAL_REGISTRY.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    if _state.enabled:
        _GLOBAL_REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    if _state.enabled:
        _GLOBAL_REGISTRY.observe(name, value)
