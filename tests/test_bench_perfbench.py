"""The committed perf trajectory, ``BENCH_perfbench.json``, stays readable.

Each record is one measured change: its PR, parent and change commits,
the host facts perfbench prints, and per workload the seeds, each
side's median and quartiles for every end-to-end metric BENCHMARK.json
defines, and how many pairs the change won.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
HOST_FACTS = {"nproc", "cpu_model", "python", "numpy", "scipy", "data_filesystem", "pinned_cpu"}


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_side(where, side):
    assert set(side) == set(END_TO_END), where
    for name, summary in side.items():
        at = f"{where} {name}"
        assert set(summary) == {"median", "q1", "q3", "spread"}, at
        median, q1, q3, spread = (summary[k] for k in ("median", "q1", "q3", "spread"))
        assert _number(median) and median > 0, at
        assert _number(spread) and spread >= 0, at
        # Records seeded from prose kept only the spread; measured ones
        # keep both quartiles, and the spread is their distance / median.
        if q1 is None or q3 is None:
            assert q1 is None and q3 is None, at
            continue
        assert _number(q1) and _number(q3) and q1 <= median <= q3, at
        assert math.isclose(spread, (q3 - q1) / median, abs_tol=1e-4), at


def test_every_record_holds_commits_host_and_both_sides():
    data = json.loads((ROOT / "BENCH_perfbench.json").read_text(encoding="utf-8"))
    records = data["records"]
    assert records
    assert [r["pr"] for r in records] == sorted(r["pr"] for r in records)
    for record in records:
        where = f"PR {record['pr']}"
        assert isinstance(record["pr"], int), where
        assert isinstance(record["parent_commit"], str), where
        # null: the commit that added the record, which cannot name itself.
        assert record["change_commit"] is None or isinstance(record["change_commit"], str), where
        assert isinstance(record["method"], str) and record["method"], where
        assert HOST_FACTS <= set(record["host"]), where
        assert record["workloads"] and set(record["workloads"]) <= WORKLOADS, where
        for name, workload in record["workloads"].items():
            at = f"{where} {name}"
            pairs = workload["pairs"]
            seeds = workload["seeds"]
            for side in ("parent", "change"):
                assert seeds[side] and all(isinstance(s, int) for s in seeds[side]), at
                _check_side(f"{at} {side}", workload[side])
            wins = workload["change_wins"]
            if pairs == 0:
                assert wins is None, at
                continue
            assert len(seeds["parent"]) == len(seeds["change"]) == pairs, at
            assert set(wins) == set(END_TO_END), at
            assert all(isinstance(n, int) and 0 <= n <= pairs for n in wins.values()), at
