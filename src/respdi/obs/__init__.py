"""respdi.obs — dependency-free observability for the integration stack.

Three pieces, stdlib-only:

* :mod:`respdi.obs.metrics` — a lock-safe :class:`MetricsRegistry` of
  counters, gauges, and histogram timers with a process-global instance
  (and the always-on :class:`ComponentRegistry` a component owns);
* :mod:`respdi.obs.tracing` — hierarchical :func:`trace` spans with
  pluggable exporters (in-memory ring buffer, JSON-lines file);
* :mod:`respdi.obs.instrument` — ``@timed`` / ``@counted`` decorators
  for zero-boilerplate adoption.

Instrumentation is **off by default**: every site guards on a single
module-level boolean, so an un-enabled program pays one attribute check
per instrumented call.  Turn it on with::

    from respdi import obs

    obs.enable()
    obs.set_exporter(obs.JsonLinesExporter("spans.jsonl"))  # optional
    ... run pipeline ...
    print(obs.global_registry().to_json())

``respdi-audit --metrics`` does the same from the command line.
"""

from __future__ import annotations

from respdi.obs._state import disable, enable, is_enabled
from respdi.obs.instrument import counted, timed
from respdi.obs.metrics import (
    ComponentRegistry,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    inc,
    observe,
    set_gauge,
)
from respdi.obs.tracing import (
    InMemoryExporter,
    JsonLinesExporter,
    Span,
    SpanExporter,
    current_span,
    get_exporter,
    set_exporter,
    trace,
)


def reset() -> None:
    """Clear the global registry and the in-memory exporter (if installed)."""
    global_registry().reset()
    exporter = get_exporter()
    if isinstance(exporter, InMemoryExporter):
        exporter.clear()


__all__ = [
    "ComponentRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "JsonLinesExporter",
    "MetricsRegistry",
    "Span",
    "SpanExporter",
    "counted",
    "current_span",
    "disable",
    "enable",
    "get_exporter",
    "global_registry",
    "inc",
    "is_enabled",
    "observe",
    "reset",
    "set_exporter",
    "set_gauge",
    "timed",
    "trace",
]
