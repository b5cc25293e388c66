"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload catalog_build --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports respdi from ``src/``.
Workloads (see ``perfbench/WORKLOADS.md`` for why each exists):

* ``catalog_build`` -- cold catalog builds from a seeded lake of CSVs;
* ``serve_read``    -- closed-loop requests to a socket server over a
  plain catalog with the persistent result cache on;
* ``serve_ingest``  -- the same clients over a 4-shard catalog while an
  ingest daemon in the server refreshes tables the benchmark rewrites.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` a traced run's
per-layer metrics.  The output ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

import hostinfo
import workload_build
import workload_serve
from lakegen import StreamExhausted
from procs import Children
from stats import TooFewSamples
from tracer import LAYER_METRICS, TIME_METRICS

WORKLOADS = ("catalog_build", "serve_read", "serve_ingest")
UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "disk_bytes_per_input_byte": "ratio",
}
MAX_PRINTED_PROBLEMS = 20


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # A terminated run still stops its children (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "respdi" / "__init__.py").is_file():
        print(f"error: {root} holds no respdi sources (src/respdi); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("RESPDI_DEFAULT_JOBS", None)
    cpu = hostinfo.pin_to_one_cpu()

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    children = Children()
    try:
        facts = hostinfo.host_facts(work)
        facts["pinned_cpu"] = cpu
        probe_before = hostinfo.speed_probe_ms()
        fsync_before = hostinfo.fsync_probe_ms(work / "fsync-probe")
        trace = bool(args.trace)
        if args.workload == "catalog_build":
            result = workload_build.run(args.seed, args.seconds, trace, work, root, children)
        else:
            result = workload_serve.run(
                args.workload, args.seed, args.seconds, trace, work, root, children
            )
        facts["speed_probe_ms"] = {"before": probe_before, "after": hostinfo.speed_probe_ms()}
        facts["fsync_probe_ms"] = {
            "before": fsync_before, "after": hostinfo.fsync_probe_ms(work / "fsync-probe"),
        }
    except TooFewSamples as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StreamExhausted as exc:
        print(f"error: request stream exhausted: {exc}", file=sys.stderr)
        return 5
    except Exception:
        traceback.print_exc()
        print("error: the run failed before its answers could be checked", file=sys.stderr)
        return 6
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    facts.update(result["facts"])
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    metrics = {}
    if trace:
        layers = result["layers"]
        if result["ledger_problems"]:
            for problem in result["ledger_problems"]:
                print(f"error: per-layer spans: {problem}", file=sys.stderr)
            return 4
        for name in LAYER_METRICS:
            metrics[name] = {"value": float(layers[name]), "unit": layer_unit(name)}
            print(f"# {name} = {layers[name]:.6g} {layer_unit(name)}")
        ledger = sum(layers[name] for name in TIME_METRICS)
        print(f"# ledger: self times {ledger:.6f} s + unattributed "
              f"{layers['unattributed_s']:.6f} s = traced end-to-end "
              f"{layers['traced_e2e_s']:.6f} s")
    else:
        for name, (value, samples) in result["metrics"].items():
            metrics[name] = {"value": float(value), "unit": UNITS[name]}
            print(f"# {name} = {value:.6g} {UNITS[name]} (samples={samples})")
    problems = result["problems"]
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"# WRONG: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"# WRONG: ... and {len(problems) - MAX_PRINTED_PROBLEMS} more")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
