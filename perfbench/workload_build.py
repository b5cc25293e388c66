"""catalog_build: repeated cold builds of one seeded lake, in worker processes.

The run's build time is split over WORKERS processes launched one after
another; each launch is one ``setup_s`` sample and each build one
``op_*`` sample, so every timing is a median over units spread across
the run.  With tracing, the middle worker is traced and the other two
give the baseline for ``trace_overhead_ratio``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict

import lakegen
from stats import disk_ratio, median, min_samples, percentile
from tracer import Ledger, overhead_ratio

LAKE = lakegen.LakeShape(tables=24, max_rows=1500)
WORKERS = 3
TAIL_Q = 75
#: Builds the run needs so the tail percentile leaves ten samples beyond.
MIN_BUILDS = min_samples(TAIL_Q)


def run(seed: int, seconds: int, trace: bool, work: Path, root: Path, children) -> Dict:
    lake = work / "lake"
    lake_info = lakegen.write_lake(lake, LAKE, seed)
    per_worker = int(seconds * 1e9 / WORKERS)
    phase_start = time.perf_counter_ns()
    setups, reports = [], []
    for k in range(WORKERS):
        traced = trace and k % 2 == 1
        last = k == WORKERS - 1
        deadline = phase_start + (k + 1) * per_worker
        done = sum(len(r["builds_ns"]) for r in reports)
        needed = max(0, MIN_BUILDS - done) if last and not trace else 0
        launched = time.perf_counter_ns()
        child = children.start(
            "build_worker.py",
            [str(lake), str(work / f"w{k}"), str(seed), str(deadline),
             "1" if traced else "0", "1" if last else "0", str(needed)],
            root,
        )
        child.expect("READY", timeout=120)
        setups.append((time.perf_counter_ns() - launched, traced))
        report = json.loads(child.expect("{", timeout=170))
        if child.finish(timeout=60) != 0:
            raise RuntimeError(f"build worker {k} failed")
        report["traced"] = traced
        reports.append(report)

    untraced = [ns for r in reports if not r["traced"] for ns in r["builds_ns"]]
    traced_builds = [ns for r in reports if r["traced"] for ns in r["builds_ns"]]
    failed = sum(r["failed"] for r in reports)
    final = reports[-1]
    problems = final.get("problems", ["the last worker made no build"])
    result = {
        "attempted": len(untraced) + len(traced_builds) + failed,
        "failed": failed,
        "problems": problems,
        "facts": {
            "lake": lake_info,
            "hash_memo_entries": 1 << 18,
            "builds": len(untraced) + len(traced_builds),
            "workers": WORKERS,
        },
    }
    if not trace:
        builds_ms = [ns / 1e6 for ns in untraced]
        result["metrics"] = {
            "setup_s": (median([ns / 1e9 for ns, _ in setups]), len(setups)),
            "op_p50_ms": (median(builds_ms), len(builds_ms)),
            "op_tail_ms": (percentile(builds_ms, TAIL_Q), len(builds_ms)),
            "ops_per_s": (len(builds_ms) / (sum(builds_ms) / 1e3), len(builds_ms)),
            "peak_rss_mib": (median([r["peak_rss_mib"] for r in reports]), len(reports)),
            "disk_bytes_per_input_byte": (
                disk_ratio(final["catalog_bytes"], lake_info["csv_bytes"]), 1,
            ),
        }
        result["facts"]["tail_percentile"] = TAIL_Q
        return result

    ledger = Ledger()
    e2e_ns = 0
    for (setup_ns, traced), report in zip(setups, reports):
        if not traced:
            continue
        spans = json.loads(Path(report["spans"]).read_text())
        ledger.add_spans(spans, keep=lambda unit: unit is not None)
        e2e_ns += setup_ns + sum(report["builds_ns"])
    metrics = ledger.metrics(e2e_ns)
    metrics["trace_overhead_ratio"] = overhead_ratio(traced_builds, untraced)
    result["layers"] = metrics
    result["ledger_problems"] = ledger.problems(e2e_ns)
    return result

