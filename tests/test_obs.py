"""The observability layer: metrics registry, spans, decorators, wiring."""

import json
import threading
import time

import numpy as np
import pytest

from respdi import ResponsibleIntegrationPipeline, obs
from respdi.cli import main as cli_main
from respdi.datagen import make_source_tables, skewed_group_distributions
from respdi.discovery.minhash import MinHasher
from respdi.obs import (
    Histogram,
    InMemoryExporter,
    JsonLinesExporter,
    MetricsRegistry,
    counted,
    timed,
)
from respdi.table import write_csv
from respdi.tailoring import CountSpec


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_exporter(InMemoryExporter())


@pytest.fixture
def exporter():
    exporter = InMemoryExporter()
    previous = obs.set_exporter(exporter)
    yield exporter
    obs.set_exporter(previous)


# -- registry -----------------------------------------------------------------


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("a.count")
    registry.inc("a.count", 2.5)
    registry.set_gauge("a.level", 3.0)
    registry.set_gauge("a.level", 7.0)
    registry.observe("a.seconds", 0.5)
    registry.observe("a.seconds", 1.5)
    assert registry.counter_value("a.count") == 3.5
    assert registry.gauge_value("a.level") == 7.0
    summary = registry.histogram_summary("a.seconds")
    assert summary["count"] == 2
    assert summary["min"] == 0.5
    assert summary["max"] == 1.5
    assert summary["mean"] == 1.0
    assert list(registry.metric_names()) == ["a.count", "a.level", "a.seconds"]


def test_registry_snapshot_reset_and_json_round_trip():
    registry = MetricsRegistry()
    registry.inc("x")
    registry.observe("y", 2.0)
    payload = json.loads(registry.to_json())
    assert payload["counters"] == {"x": 1.0}
    assert payload["histograms"]["y"]["count"] == 1
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert registry.counter_value("x") == 0.0


def test_registry_timer_records_elapsed():
    registry = MetricsRegistry()
    with registry.timer("sleep.seconds"):
        time.sleep(0.01)
    summary = registry.histogram_summary("sleep.seconds")
    assert summary["count"] == 1
    assert summary["min"] >= 0.005


def test_registry_concurrent_increments_are_exact():
    registry = MetricsRegistry()
    threads_n, per_thread = 8, 2000

    def worker():
        for _ in range(per_thread):
            registry.inc("hits")
            registry.observe("vals", 1.0)

    threads = [threading.Thread(target=worker) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert registry.counter_value("hits") == threads_n * per_thread
    assert registry.histogram_summary("vals")["count"] == threads_n * per_thread


def test_histogram_percentiles_nearest_rank():
    histogram = Histogram("kind.keyword")
    for ms in range(1, 101):  # 1..100 ms
        histogram.observe(ms / 1000.0)
    assert histogram.percentile(50.0) == pytest.approx(0.050)
    assert histogram.percentile(99.0) == pytest.approx(0.099)
    # Nearest rank is ceil(q/100 * n): p7 of 100 samples is the 7th.
    assert histogram.percentile(7.0) == pytest.approx(0.007)
    summary = histogram.summary()
    assert summary["count"] == 100 and summary["max"] == pytest.approx(0.100)


def test_histogram_window_is_bounded_and_recent():
    histogram = Histogram("k")
    window = Histogram.WINDOW_SIZE
    for value in [9.0] * window + [1.0] * window:
        histogram.observe(value)
    assert histogram.percentile(99.0) == 1.0  # the 9s aged out
    assert histogram.summary()["count"] == 2 * window  # lifetime count


def test_histogram_empty_is_zeroes():
    assert Histogram("nothing").summary() == {
        "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        "p50": 0.0, "p99": 0.0,
    }


def test_module_helpers_are_noops_while_disabled():
    obs.inc("never.recorded")
    obs.set_gauge("never.gauge", 1.0)
    obs.observe("never.hist", 1.0)
    assert list(obs.global_registry().metric_names()) == []
    obs.enable()
    obs.inc("now.recorded")
    assert obs.global_registry().counter_value("now.recorded") == 1.0


def test_component_registry_is_always_on_and_reaches_global_while_enabled():
    component = obs.ComponentRegistry()
    component.inc("part.events")
    component.observe("part.seconds", 0.5)
    assert list(obs.global_registry().metric_names()) == []
    obs.enable()
    component.inc("part.events", 2)
    component.observe("part.seconds", 1.5)
    assert component.count("part.events") == 3
    assert component.histogram_summary("part.seconds")["count"] == 2
    assert obs.global_registry().count("part.events") == 2
    assert obs.global_registry().histogram_summary("part.seconds")["count"] == 1


# -- tracing ------------------------------------------------------------------


def test_span_nesting_depth_parent_and_finish_order(exporter):
    obs.enable()
    with obs.trace("outer", k=1) as outer:
        assert obs.current_span() is outer
        with obs.trace("inner") as inner:
            assert inner.depth == 1
            assert inner.parent_name == "outer"
            assert obs.current_span() is inner
        assert obs.current_span() is outer
    assert obs.current_span() is None
    names = [span["name"] for span in exporter.spans]
    assert names == ["inner", "outer"]  # inner finishes (and exports) first
    inner_dict, outer_dict = exporter.spans
    assert outer_dict["depth"] == 0 and outer_dict["parent"] is None
    assert inner_dict["depth"] == 1 and inner_dict["parent"] == "outer"
    assert outer_dict["attributes"] == {"k": 1}
    assert outer_dict["duration_s"] >= inner_dict["duration_s"]


def test_span_durations_feed_registry_and_errors_recorded(exporter):
    obs.enable()
    with pytest.raises(ValueError):
        with obs.trace("boom"):
            raise ValueError("nope")
    assert exporter.spans[0]["error"] == "ValueError"
    assert obs.global_registry().histogram_summary("boom.seconds")["count"] == 1


def test_trace_is_shared_noop_when_disabled(exporter):
    first = obs.trace("a")
    second = obs.trace("b")
    assert first is second  # shared singleton, no allocation
    with first:
        first.set_attribute("ignored", 1)
    assert exporter.spans == []
    assert list(obs.global_registry().metric_names()) == []


def test_jsonlines_exporter_round_trip(tmp_path):
    path = tmp_path / "spans.jsonl"
    obs.enable()
    with JsonLinesExporter(path) as exporter:
        previous = obs.set_exporter(exporter)
        try:
            with obs.trace("write.phase", rows=10):
                pass
            with obs.trace("write.phase", rows=20):
                pass
        finally:
            obs.set_exporter(previous)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert [r["name"] for r in records] == ["write.phase", "write.phase"]
    assert [r["attributes"]["rows"] for r in records] == [10, 20]
    assert all(r["duration_s"] >= 0.0 for r in records)


# -- decorators ---------------------------------------------------------------


def test_timed_and_counted_record_when_enabled():
    @timed("deco.work")
    def work(x):
        return x + 1

    @counted("deco.calls", amount=2.0)
    def poke():
        return "ok"

    obs.enable()
    assert work(1) == 2
    assert poke() == "ok"
    registry = obs.global_registry()
    assert registry.histogram_summary("deco.work.seconds")["count"] == 1
    assert registry.counter_value("deco.work.calls") == 1.0
    assert registry.counter_value("deco.calls") == 2.0
    assert work.__name__ == "work" and work.__wrapped__(1) == 2


def test_timed_records_failures_too():
    @timed("deco.fail")
    def explode():
        raise RuntimeError("boom")

    obs.enable()
    with pytest.raises(RuntimeError):
        explode()
    registry = obs.global_registry()
    assert registry.counter_value("deco.fail.calls") == 1.0
    assert registry.histogram_summary("deco.fail.seconds")["count"] == 1


def test_decorators_are_silent_when_disabled():
    @timed("deco.quiet")
    def quiet():
        return 42

    assert quiet() == 42
    assert list(obs.global_registry().metric_names()) == []


def test_disabled_decorator_overhead_is_small():
    """Guard against the disabled path growing work beyond one flag check."""

    def body():
        return sum(range(200))

    wrapped = timed("deco.overhead")(body)

    def loop(fn, n=2000):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    loop(body), loop(wrapped)  # warm up
    baseline = loop(body)
    instrumented = loop(wrapped)
    # Generous CI-safe bound; the real ≤5% claim is benchmarked in
    # benchmarks/bench_obs_overhead.py on MinHasher.signature.
    assert instrumented <= baseline * 2.0 + 1e-3


# -- wiring -------------------------------------------------------------------


@pytest.fixture
def pipeline_inputs(health_population):
    base = health_population.group_distribution()
    dists = skewed_group_distributions(base, 2, concentration=3.0, rng=60)
    tables = make_source_tables(health_population, dists, 400, rng=61)
    sources = {f"clinic{i}": t for i, t in enumerate(tables)}
    spec = CountSpec(("gender", "race"), {g: 10 for g in health_population.groups})
    return sources, spec


def test_pipeline_run_emits_stage_spans_and_metrics(pipeline_inputs, exporter):
    sources, spec = pipeline_inputs
    obs.enable()
    pipeline = ResponsibleIntegrationPipeline(("gender", "race"))
    result = pipeline.run(sources, spec, rng=62)
    names = [span["name"] for span in exporter.spans]
    for stage in ("tailor", "clean", "audit", "document"):
        assert f"pipeline.stage.{stage}" in names
    run_span = next(s for s in exporter.spans if s["name"] == "pipeline.run")
    assert run_span["attributes"]["sources"] == 2
    stage_spans = [s for s in exporter.spans if s["name"].startswith("pipeline.stage.")]
    assert all(s["parent"] == "pipeline.run" and s["depth"] >= 1 for s in stage_spans)
    registry = obs.global_registry()
    assert registry.counter_value("pipeline.runs") == 1.0
    assert registry.counter_value("tailoring.runs") == 1.0
    assert registry.counter_value("tailoring.draws") > 0
    # Stage timings ride along in the provenance and the result itself.
    assert dict(result.stage_timings).keys() == {"tailor", "clean", "audit", "document"}
    timing_lines = [p for p in result.provenance if p.startswith("stage timings")]
    assert len(timing_lines) == 1 and "tailor=" in timing_lines[0]


def test_stage_timings_present_even_when_disabled(pipeline_inputs):
    sources, spec = pipeline_inputs
    pipeline = ResponsibleIntegrationPipeline(("gender", "race"))
    result = pipeline.run(sources, spec, rng=63)
    assert len(result.stage_timings) == 4
    assert any(p.startswith("stage timings") for p in result.provenance)
    assert list(obs.global_registry().metric_names()) == []


def test_cli_metrics_snapshot_spans_subsystems(pipeline_inputs, tmp_path, capsys):
    """The ISSUE acceptance check: one in-process flow, one combined snapshot
    with >=5 metric names across >=3 subsystems."""
    sources, spec = pipeline_inputs
    obs.enable()
    pipeline = ResponsibleIntegrationPipeline(("gender", "race"))
    result = pipeline.run(sources, spec, rng=64)
    hasher = MinHasher(num_hashes=32, rng=np.random.default_rng(65))
    hasher.signature({"a", "b", "c"})
    csv_path = tmp_path / "integrated.csv"
    write_csv(result.table, csv_path)
    code = cli_main([str(csv_path), "--sensitive", "gender,race", "--metrics"])
    assert code == 0
    out = capsys.readouterr().out
    snapshot = json.loads(out.split("=== metrics ===", 1)[1])
    names = set(snapshot["counters"]) | set(snapshot["gauges"])
    names |= set(snapshot["histograms"])
    assert len(names) >= 5
    subsystems = {name.split(".", 1)[0] for name in names}
    assert {"pipeline", "discovery", "tailoring", "cli"} <= subsystems
