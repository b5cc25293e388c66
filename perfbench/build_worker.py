"""catalog_build worker: one process doing repeated cold catalog builds.

Run by ``run.py`` (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/build_worker.py LAKE WORK SEED DEADLINE_NS TRACE CHECK MIN

It imports respdi and creates an empty catalog (the set-up the parent
times from launch to the ``READY`` line), then builds the catalog from
the lake's CSVs again and again until the monotonic clock passes
DEADLINE_NS, always at least once and, for at most a minute more, until
MIN builds are done.  Each build starts cold: a fresh
directory and an empty value-hash memo, as ``respdi-catalog build`` in a
new process would see.  The last line of output is a JSON report.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import diskless
from hostinfo import peak_rss_mib
from stats import tree_bytes
from tracer import Tracer, install


def main(argv) -> int:
    lake, work = Path(argv[0]), Path(argv[1])
    seed, deadline = int(argv[2]), int(argv[3])
    traced, check = argv[4] == "1", argv[5] == "1"
    min_builds, overtime = int(argv[6]), deadline + 60 * 10**9
    diskless.install()
    tracer = Tracer() if traced else None
    with tracer.unit("setup") if tracer else nullcontext():
        with tracer.span("setup.import") if tracer else nullcontext():
            import respdi.table.hashing as hashing
            from respdi.catalog.store import CatalogStore
            from respdi.table import io as table_io
        if tracer is not None:
            install(tracer)
        work.mkdir(parents=True, exist_ok=True)
        CatalogStore.create(work / "empty", rng=seed)
    print("READY", flush=True)

    paths = sorted(lake.glob("*.csv"))
    builds, failed, attempt = [], 0, 0
    catalog = work / "catalog"
    tables = {}
    while True:
        now = time.perf_counter_ns()
        if attempt and now >= deadline and (len(builds) >= min_builds or now >= overtime):
            break
        attempt += 1
        shutil.rmtree(catalog, ignore_errors=True)
        hashing.clear_hash_caches()
        try:
            start = time.perf_counter_ns()
            with tracer.unit("build") if tracer else nullcontext():
                tables = {p.stem: table_io.read_csv(p) for p in paths}
                CatalogStore.build(catalog, tables, rng=seed)
            end = time.perf_counter_ns()
        except Exception as exc:  # a failed build is counted, not fatal
            print(f"build failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        builds.append(end - start)

    report = {
        "builds_ns": builds,
        "failed": failed,
        "peak_rss_mib": peak_rss_mib(),
        "catalog_bytes": tree_bytes(catalog) if builds else 0,
    }
    if check and builds:
        report["problems"] = check_catalog(catalog, tables, seed)
    if tracer is not None:
        spans_path = work / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        report["spans"] = str(spans_path)
    print(json.dumps(report), flush=True)
    return 0


def check_catalog(directory: Path, tables, seed: int):
    """Problems with a finished build; an empty list means it is correct.

    The store verifies clean, every entry's fingerprint is that of its
    input table, and a warm index loaded from disk answers a fixed query
    set exactly as a cold index over the same tables does.
    """
    from respdi.catalog.store import CatalogStore, load_catalog_index, table_fingerprint
    from respdi.discovery.lake_index import DataLakeIndex

    store = CatalogStore.open(directory)
    problems = [f"verify: {problem}" for problem in store.verify()]
    for name, table in tables.items():
        if store.meta(name)["fingerprint"] != table_fingerprint(table):
            problems.append(f"{name}: entry fingerprint differs from its input")
    if sorted(store.names) != sorted(tables):
        problems.append("catalog entries differ from the lake's tables")
    warm = load_catalog_index(directory)
    cold = DataLakeIndex(num_hashes=128, sketch_size=64, rng=seed, num_partitions=4)
    cold.register_tables(tables)
    names = sorted(tables)
    first, last = tables[names[0]], tables[names[-1]]
    keys = first.unique("key")[:40]
    queries = [
        ("keyword", lambda index: index.keyword_search("north sales", k=10)),
        ("keyword", lambda index: index.keyword_search(names[-1], k=5)),
        ("join", lambda index: index.joinable_columns(keys, k=10)),
        ("union", lambda index: index.unionable_tables(last, k=5)),
        ("containment", lambda index: index.containment_search(keys, 0.5, k=10)),
    ]
    for kind, run in queries:
        if repr(run(warm)) != repr(run(cold)):
            problems.append(f"warm index answers a {kind} query differently")
    return problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
