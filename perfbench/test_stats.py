"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

import diskless
import lakegen
from stats import (
    TooFewSamples,
    covered,
    disk_ratio,
    freshness_lags,
    full_sidecar_bytes,
    min_samples,
    percentile,
    required_generations,
    samples_beyond,
    self_times,
    tree_bytes,
    window_rates,
)
from tracer import Ledger, TIME_METRICS
from workload_serve import check_responses


def test_percentile_needs_ten_samples_beyond():
    assert min_samples(99) == 1000
    assert min_samples(75) == 40
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    assert percentile(values, 50) == 500
    with pytest.raises(TooFewSamples):
        percentile(values[:999], 99)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert percentile(values, 50, beyond=0) == 3.0
    assert percentile(values, 75, beyond=10) == 4.0


def test_self_time_subtracts_nested_children():
    # root [0, 100) holds a [10, 40) which holds b [20, 30); c [50, 60).
    spans = [(1, 0, 0, 100), (2, 1, 10, 40), (3, 2, 20, 30), (4, 1, 50, 60)]
    selfs, overlap = self_times(spans)
    assert selfs == {1: 60, 2: 20, 3: 10, 4: 10}
    assert sum(selfs.values()) == 100 and overlap == 0


def test_self_time_counts_overlapping_children_once():
    # Two pool threads run [10, 50) and [30, 70) under a map span [0, 80).
    spans = [(1, 0, 0, 80), (2, 1, 10, 50), (3, 1, 30, 70)]
    selfs, overlap = self_times(spans)
    assert selfs[1] == 80 - 60
    assert selfs[2] == 40 and selfs[3] == 40
    # [30, 50) is covered by both threads: the self times count it twice.
    assert overlap == 20
    assert sum(selfs.values()) - overlap == 80


def test_covered_clips_children_to_the_parent():
    assert covered(10, 20, [(0, 15), (18, 30)]) == 7
    assert covered(10, 20, [(0, 5), (25, 30)]) == 0
    assert covered(0, 100, [(10, 20), (10, 20), (15, 25)]) == 15


BUILD_SPANS = [
    ["unit.build", 1, 0, "build1", 0, 1000, None],
    ["table.read_csv", 2, 1, "build1", 0, 300, None],
    ["catalog.add_tables", 3, 1, "build1", 300, 900, None],
    ["fsutil.write", 4, 3, "build1", 400, 600, 10],
    ["fsutil.fsync", 5, 4, "build1", 500, 550, None],
    ["table.read_csv", 6, 0, None, 2000, 2100, None],  # outside any unit
]


def test_ledger_leaves_the_unattributed_residual():
    ledger = Ledger()
    ledger.add_spans(BUILD_SPANS, keep=lambda unit: unit is not None)
    metrics = ledger.metrics(1000)
    assert metrics["table.read_csv_s"] == pytest.approx(300e-9)
    assert metrics["catalog.add_s"] == pytest.approx(400e-9)
    assert metrics["fsutil.write_s"] == pytest.approx(150e-9)
    assert metrics["fsutil.fsync_s"] == pytest.approx(50e-9)
    assert metrics["fsutil.bytes_written"] == 10
    assert metrics["unattributed_s"] == pytest.approx(100e-9)
    assert "unattributed_s" not in TIME_METRICS
    assert ledger.problems(1000, slack_ns=0) == []


def test_ledger_problems_catch_spans_longer_than_the_end_to_end_time():
    ledger = Ledger()
    ledger.add_spans(BUILD_SPANS, keep=lambda unit: unit is not None)
    # The workload measured less time than its one build span lasted.
    problems = ledger.problems(850, slack_ns=0)
    assert len(problems) == 2
    assert "top-level spans" in problems[0] and "self times" in problems[1]


def test_ledger_problems_catch_a_child_leaking_out_of_its_unit():
    # The write runs past the end of its build: its self time is charged
    # to the build, but the build's own span does not cover it.
    spans = [
        ["unit.build", 1, 0, "build1", 0, 1000, None],
        ["fsutil.write", 2, 1, "build1", 800, 1400, 10],
    ]
    ledger = Ledger()
    ledger.add_spans(spans, keep=lambda unit: True)
    assert ledger.problems(2000, slack_ns=0) == ["1 spans end outside their parent"]


def test_ledger_problems_allow_overlapping_pool_threads():
    # A map span [0, 80) whose two pool threads overlap on [30, 50).
    spans = [
        ["parallel.map", 1, 0, "r1", 0, 80, 1],
        ["discovery.query", 2, 1, "r1", 10, 50, None],
        ["discovery.query", 3, 1, "r1", 30, 70, None],
    ]
    ledger = Ledger()
    ledger.add_spans(spans, keep=lambda unit: True)
    metrics = ledger.metrics(80)
    assert metrics["parallel.overlap_s"] == pytest.approx(20e-9)
    assert metrics["unattributed_s"] == pytest.approx(-20e-9)
    assert ledger.problems(80, slack_ns=0) == []


def test_ledger_counts_useful_pins():
    spans = [
        ["service.pin", 1, 0, "s1", 0, 10, ["a", 1]],
        ["service.pin", 2, 0, "s1", 10, 20, ["b", 1]],
        ["service.pin", 3, 0, "c2", 30, 40, ["a", 2]],
        ["service.pin", 4, 0, "c2", 40, 50, ["b", 1]],
    ]
    ledger = Ledger()
    ledger.add_spans(spans, keep=lambda unit: True)
    metrics = ledger.metrics(50)
    assert metrics["service.pins"] == 4
    assert metrics["service.repins"] == 2
    assert metrics["service.pin_useful_ratio"] == pytest.approx(3 / 4)


def test_freshness_matches_first_response_at_the_needed_generation():
    rewrites = [(100.0, 0, 2), (200.0, 1, 6)]
    responses = [
        (90.0, [2, 5]),   # before the rewrite: ignored
        (110.0, [1, 5]),  # shard 0 not yet refreshed
        (130.0, [2, 5]),  # first to show rewrite 0
        (205.0, [2, 5]),
        (260.0, [2, 6]),  # first to show rewrite 1
    ]
    assert freshness_lags(rewrites, responses) == [30.0, 60.0]


def test_freshness_reports_unseen_rewrites_and_accepts_any_order():
    rewrites = [(100.0, 0, 3)]
    responses = [(150.0, [2]), (120.0, [2])]
    assert freshness_lags(rewrites, responses) == [None]
    assert freshness_lags(rewrites, list(reversed(responses)) + [(140.0, [3])]) == [40.0]


def test_required_generations_count_commits_per_shard():
    assert required_generations([5, 7], [0, 1, 0, 0]) == [6, 8, 7, 8]


def test_disk_ratio_counts_every_regular_file(tmp_path):
    (tmp_path / "a").write_bytes(b"x" * 300)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b").write_bytes(b"y" * 100)
    (tmp_path / "link").symlink_to(tmp_path / "a")
    assert tree_bytes(tmp_path) == 400
    assert disk_ratio(tree_bytes(tmp_path), 200) == 2.0
    with pytest.raises(ValueError):
        disk_ratio(400, 0)


def test_full_sidecar_bytes_scales_the_mean_entry():
    assert full_sidecar_bytes(3000, 3, 4096) == 4096 * 1000
    with pytest.raises(ValueError):
        full_sidecar_bytes(0, 0, 4096)


def test_window_rates_count_full_windows_only():
    second = 10**9
    times = [0, 1, second - 1, second, 2 * second + 5, 3 * second, -1]
    # [0, 3.5 s): windows [0,1) [1,2) [2,3); the half window and -1 drop out.
    assert window_rates(times, 0, 3 * second + second // 2, second) == [3.0, 1.0, 1.0]
    assert window_rates(times, 0, second // 2, second) == []
    assert window_rates([5, 6], 0, 100, 50) == [4e7, 0.0]


def test_diskless_fsync_returns_at_once_but_checks_the_descriptor(tmp_path):
    real = os.fsync
    try:
        diskless.install()
        with open(tmp_path / "f", "wb") as handle:
            handle.write(b"x")
            assert os.fsync(handle.fileno()) is None
        fd = os.open(tmp_path, os.O_RDONLY)
        os.close(fd)
        with pytest.raises(OSError):
            os.fsync(fd)
    finally:
        os.fsync = real


def _record(index, received, response):
    return (index, received - 5, received, (json.dumps(response) + "\n").encode())


def test_check_responses_reports_every_not_ok_response():
    records = [
        _record(0, 10, {"ok": True, "generation": [1, 1], "results": []}),
        _record(1, 20, {"ok": False, "error": "torn read"}),
        _record(2, 30, {"ok": True, "generation": [1, 2], "results": []}),
    ]
    problems, failed, seen = check_responses(records)
    assert failed == 1
    assert problems == ["not ok: torn read"]
    assert seen == [(10, [1, 1]), (30, [1, 2])]


def test_check_responses_reports_generations_going_backwards():
    records = [
        _record(0, 10, {"ok": True, "generation": [2, 1], "results": []}),
        _record(1, 20, {"ok": True, "generation": [1, 3], "results": []}),
    ]
    problems, failed, _seen = check_responses(records)
    assert failed == 0
    assert problems == ["generation went backwards: [2, 1] -> [1, 3]"]
    plain = [_record(0, 10, {"ok": True, "generation": 4, "results": []})]
    assert check_responses(plain) == ([], 0, [(10, [4])])


def _streams(tmp_path, seconds=1, mix=lakegen.MixShape(pregenerate_per_second=50)):
    factory = lakegen.RequestFactory(tmp_path, lakegen.LakeShape(tables=8, max_rows=100),
                                     seed=3, seconds=seconds)
    factory.write_csv_pools()
    return factory.streams(2, mix, seconds)


def test_request_streams_are_drawn_lazily_and_repeat_per_seed(tmp_path):
    first = _streams(tmp_path)
    assert [len(stream) for stream in first] == [50, 50]
    later = [stream[499] for stream in first]  # drawn on demand
    again = _streams(tmp_path)
    assert [stream[499] for stream in again] == later
    lines = [stream[n] for stream in first for n in range(500)]
    assert lines == [stream[n] for stream in again for n in range(500)]
    hot = set(first[0].hot)
    cold = [line for line in lines if line not in hot]
    assert len(cold) == len(set(cold)), "cold requests repeat"


def test_request_stream_exhaustion_has_its_own_error(tmp_path):
    mix = lakegen.MixShape(hot_share=0.0, pregenerate_per_second=1)
    stream = _streams(tmp_path, mix=mix)[0]
    pairings = lakegen.CSV_POOL_PER_SECOND * lakegen.K_CHOICES
    with pytest.raises(lakegen.StreamExhausted):
        for n in range(40 * pairings):
            stream[n]
