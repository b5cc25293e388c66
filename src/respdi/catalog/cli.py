"""``respdi-catalog`` — build, maintain, and query a persisted catalog.

Usage::

    respdi-catalog build DIR table1.csv table2.csv [--seed 7] [--store-data]
        [--jobs N] [--shards N]
    respdi-catalog add DIR table.csv [--name n] [--description text]
        [--sensitive col,col] [--target y] [--store-data]
    respdi-catalog remove DIR NAME
    respdi-catalog refresh DIR table.csv [table2.csv ...] [--name n] [--jobs N]
    respdi-catalog query DIR (--keyword TEXT | --union table.csv
        | --join table.csv:COLUMN) [-k 10] [--cached]
    respdi-catalog serve DIR [--cache-size N] [--max-requests N]
        [--port P [--host H] [--max-inflight N] [--quota TENANT=RATE[:BURST]]
         [--tenant-rate R] [--tenant-burst B]]
        [--pcache [--pcache-dir DIR] [--pcache-size N]]
    respdi-catalog watch DIR SOURCE [SOURCE ...] [--interval SEC]
        [--max-cycles N] [--once] [--keep-missing] [--jobs N]
    respdi-catalog verify DIR
    respdi-catalog info DIR
    respdi-catalog reshard SRC DEST --shards N   # DEST must be new/empty
    respdi-catalog reshard SRC --shards N --in-place   # atomic swap

Exit codes: 0 success, 1 usage or runtime error, 2 verification failure
— so ``respdi-catalog verify`` drops into CI integrity gates directly.

``query`` and ``serve`` answer through the shared query service for the
directory: the store is opened (and its checksums verified) once per
process, snapshots are pinned per committed generation, and — with
``--cached`` — repeated queries are served from the generation-keyed
LRU result cache.

Sharding is transparent past ``build --shards N``: every other command
opens the directory with :func:`~respdi.catalog.sharding.open_catalog`,
which detects ``SHARDS.json``, and ``query``/``serve`` answer through
the one :class:`~respdi.service.QueryService`, which serves either
layout; scripts do not care which layout a directory holds (query
results are byte-identical either way).  A single shard is also a
complete plain catalog, so ``verify``/``query``/``info`` on
``DIR/shard-0003`` work too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from respdi.catalog.sharding import (
    ShardedCatalogStore,
    open_catalog,
    reshard,
)
from respdi.catalog.store import CatalogStore
from respdi.errors import RespdiError
from respdi.parallel import ExecutionContext
from respdi.table import read_csv


def _add_jobs_flag(subparser) -> None:
    subparser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan per-table fingerprinting/sketching out over N worker "
            "processes (results are byte-identical to serial)"
        ),
    )


def _jobs_context(jobs: Optional[int]) -> Optional[ExecutionContext]:
    """CLI ``--jobs`` maps to the processes backend (sketching is CPU-bound)."""
    if jobs is None:
        return None
    if jobs <= 1:
        return ExecutionContext()
    return ExecutionContext(backend="processes", n_jobs=jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respdi-catalog",
        description="Persist and query data-lake discovery state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="create a catalog from CSV tables")
    build.add_argument("directory", help="catalog directory to create")
    build.add_argument("csv", nargs="+", help="CSV tables (#types: header)")
    build.add_argument("--num-hashes", type=int, default=128)
    build.add_argument("--seed", type=int, default=None, help="MinHasher seed")
    build.add_argument(
        "--store-data", action="store_true", help="also store the CSV data"
    )
    build.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "partition the catalog over N independently-locked shards "
            "(query results are byte-identical to an unsharded build)"
        ),
    )
    _add_jobs_flag(build)

    add = sub.add_parser("add", help="register one CSV table")
    add.add_argument("directory", help="existing catalog directory")
    add.add_argument("csv", help="CSV table (#types: header)")
    add.add_argument("--name", default=None, help="table name (default: stem)")
    add.add_argument("--description", default=None)
    add.add_argument(
        "--sensitive",
        default=None,
        help="comma-separated sensitive columns (stores a nutritional label)",
    )
    add.add_argument("--target", default=None, help="target column for the label")
    add.add_argument("--store-data", action="store_true")

    remove = sub.add_parser("remove", help="drop a cataloged table")
    remove.add_argument("directory")
    remove.add_argument("name")

    refresh = sub.add_parser(
        "refresh", help="re-sketch tables only if their content changed"
    )
    refresh.add_argument("directory")
    refresh.add_argument("csv", nargs="+")
    refresh.add_argument(
        "--name", default=None, help="table name (single CSV only; default: stem)"
    )
    _add_jobs_flag(refresh)

    query = sub.add_parser("query", help="warm-start discovery queries")
    query.add_argument("directory")
    mode = query.add_mutually_exclusive_group(required=True)
    mode.add_argument("--keyword", default=None, help="keyword search text")
    mode.add_argument(
        "--union", default=None, help="CSV whose unionable tables to find"
    )
    mode.add_argument(
        "--join",
        default=None,
        metavar="CSV:COLUMN",
        help="find columns joinable with COLUMN of CSV",
    )
    query.add_argument("-k", type=int, default=10, help="max results")
    query.add_argument(
        "--cached",
        action="store_true",
        help=(
            "serve repeated identical queries from the generation-keyed "
            "result cache (results are byte-identical to uncached)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="answer JSON-lines query requests from stdin (long-lived)",
    )
    serve.add_argument("directory")
    serve.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="LRU result-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "compute every request even when a cached result exists "
            "(the same as --cache-size 0)"
        ),
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after N >= 1 requests (default: serve until EOF/stop)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="P",
        help=(
            "serve over TCP instead of stdin: a threaded multi-tenant "
            "socket server on PORT (0 picks an ephemeral port, printed "
            "on startup)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port (default 127.0.0.1; widen explicitly)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help=(
            "bound on concurrently executing requests; excess load is "
            "shed with in-band overloaded responses (socket mode only)"
        ),
    )
    serve.add_argument(
        "--quota",
        action="append",
        default=None,
        metavar="TENANT=RATE[:BURST]",
        help=(
            "per-tenant token-bucket quota in requests/second (repeatable; "
            "socket mode only)"
        ),
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="R",
        help="default requests/second for tenants without an explicit --quota",
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=8.0,
        metavar="B",
        help="default burst size for tenants without an explicit --quota",
    )
    serve.add_argument(
        "--pcache",
        action="store_true",
        help=(
            "persist rendered results to an on-disk sidecar "
            "(<catalog>/pcache.d) so a restarted server warm-starts; "
            "entries are checksum-gated and generation-keyed"
        ),
    )
    serve.add_argument(
        "--pcache-dir",
        default=None,
        metavar="DIR",
        help="sidecar directory (default: <catalog>/pcache.d; implies --pcache)",
    )
    serve.add_argument(
        "--pcache-size",
        type=int,
        default=4096,
        metavar="N",
        help="max persistent-cache entries before LRU-by-mtime eviction",
    )

    watch = sub.add_parser(
        "watch",
        help=(
            "continuously ingest source CSV changes into the catalog "
            "(content-fingerprint diff; readers keep serving throughout)"
        ),
    )
    watch.add_argument("directory", help="existing catalog directory")
    watch.add_argument(
        "source",
        nargs="+",
        help="source directories (their *.csv) or glob patterns to watch",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="seconds between scan cycles (default 1.0)",
    )
    watch.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        metavar="N",
        help="stop after N cycles (default: run until interrupted)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="run exactly one cycle and exit (same as --max-cycles 1)",
    )
    watch.add_argument(
        "--keep-missing",
        action="store_true",
        help=(
            "never remove cataloged tables whose source file disappeared "
            "(default: sources are the authority over membership)"
        ),
    )
    _add_jobs_flag(watch)

    verify = sub.add_parser("verify", help="check every file checksum")
    verify.add_argument("directory")

    info = sub.add_parser("info", help="print catalog configuration and entries")
    info.add_argument("directory")

    reshard_cmd = sub.add_parser(
        "reshard",
        help=(
            "re-partition a catalog into N shards (no re-sketching); DEST "
            "must be a new or empty directory — reshard never overwrites"
        ),
    )
    reshard_cmd.add_argument("source", help="existing catalog (sharded or not)")
    reshard_cmd.add_argument(
        "dest",
        nargs="?",
        default=None,
        help=(
            "directory for the resharded catalog; created fresh — an "
            "existing non-empty path is refused (the source stays intact, "
            "so aborting = deleting DEST).  With --in-place: optional temp "
            "build directory (default <SRC>.reshard.tmp)"
        ),
    )
    reshard_cmd.add_argument(
        "--shards", type=int, required=True, metavar="N", help="new shard count"
    )
    reshard_cmd.add_argument(
        "--in-place",
        action="store_true",
        help=(
            "reshard onto the source path itself: build into a sibling "
            "temp directory, then swap with atomic renames — a crash at "
            "any instant leaves a complete catalog (at SRC or at "
            "SRC.reshard.old), never a torn one"
        ),
    )

    return parser


def _table_name(csv_path: str, override: Optional[str]) -> str:
    return override if override else Path(csv_path).stem


def _cmd_build(args) -> int:
    tables = {_table_name(path, None): read_csv(path) for path in args.csv}
    if args.shards is not None:
        store = ShardedCatalogStore.build(
            args.directory,
            tables,
            store_data=args.store_data,
            context=_jobs_context(args.jobs),
            num_shards=args.shards,
            num_hashes=args.num_hashes,
            rng=args.seed,
        )
        print(
            f"sharded catalog created at {store.directory} with "
            f"{len(store)} table(s) over {store.num_shards} shard(s)"
        )
        return 0
    store = CatalogStore.build(
        args.directory,
        tables,
        store_data=args.store_data,
        context=_jobs_context(args.jobs),
        num_hashes=args.num_hashes,
        rng=args.seed,
    )
    print(f"catalog created at {store.directory} with {len(store)} table(s)")
    return 0


def _cmd_add(args) -> int:
    store = open_catalog(args.directory)
    sensitive = (
        tuple(s.strip() for s in args.sensitive.split(",") if s.strip())
        if args.sensitive
        else None
    )
    name = _table_name(args.csv, args.name)
    store.add_table(
        name,
        read_csv(args.csv),
        description=args.description,
        sensitive_columns=sensitive,
        target_column=args.target,
        store_data=args.store_data,
    )
    print(f"added {name!r} ({len(store)} table(s) cataloged)")
    return 0


def _cmd_remove(args) -> int:
    store = open_catalog(args.directory)
    store.remove_table(args.name)
    print(f"removed {args.name!r} ({len(store)} table(s) remain)")
    return 0


def _cmd_refresh(args) -> int:
    store = open_catalog(args.directory)
    if args.name is not None and len(args.csv) > 1:
        raise RespdiError("--name only applies to a single CSV")
    tables = {
        _table_name(path, args.name): read_csv(path) for path in args.csv
    }
    results = store.refresh_many(tables, context=_jobs_context(args.jobs))
    for name, rebuilt in results.items():
        print(f"{name!r}: {'rebuilt' if rebuilt else 'unchanged (hit)'}")
    return 0


def _cmd_query(args) -> int:
    # Routed through the shared per-directory QueryService: the first
    # query in a process opens (and checksum-verifies) the store; later
    # queries stat the manifest, reuse the pinned snapshot, and perform
    # zero re-verifications (`catalog.open` counts exactly one).
    from respdi.service import JoinQuery, KeywordQuery, UnionQuery, shared_service

    service = shared_service(args.directory)
    if args.keyword is not None:
        hits = service.query(KeywordQuery(text=args.keyword, k=args.k),
                             cached=args.cached)
        for hit in hits:
            print(f"{hit.score:8.4f}  {hit.table_name}")
    elif args.union is not None:
        candidates = service.query(
            UnionQuery(table=read_csv(args.union), k=args.k),
            cached=args.cached,
        )
        for cand in candidates:
            print(f"{cand.score:8.4f}  {cand.table_name}")
    else:
        csv_path, _, column = args.join.rpartition(":")
        if not csv_path:
            raise RespdiError("--join expects CSV:COLUMN")
        values = tuple(read_csv(csv_path).unique(column))
        candidates = service.query(
            JoinQuery(values=values, k=args.k), cached=args.cached
        )
        for cand in candidates:
            print(f"{cand.overlap:8d}  {cand.table_name}.{cand.column_name}")
    return 0


def _cmd_serve(args) -> int:
    from respdi.service import QueryService, open_pcache, serve

    cache_size = 0 if args.no_cache else args.cache_size
    service = QueryService(args.directory, cache_size=cache_size)
    pcache = None
    if args.pcache or args.pcache_dir is not None:
        pcache = open_pcache(
            args.directory,
            directory=args.pcache_dir,
            max_entries=args.pcache_size,
        )
        print(f"persistent cache at {pcache.directory}", file=sys.stderr)
    if args.port is not None:
        from respdi.service import (
            AdmissionController,
            SocketQueryServer,
            parse_quota_specs,
        )

        admission = AdmissionController(
            max_inflight=args.max_inflight,
            default_rate=args.tenant_rate,
            default_burst=args.tenant_burst,
            quotas=parse_quota_specs(args.quota or []),
        )
        server = SocketQueryServer(
            service,
            host=args.host,
            port=args.port,
            pcache=pcache,
            admission=admission,
            max_requests=args.max_requests,
        )
        host, port = server.start()
        print(f"serving on {host}:{port}", file=sys.stderr)
        served = server.serve_forever()
        print(f"served {served} request(s)", file=sys.stderr)
        return 0
    served = serve(
        service,
        sys.stdin,
        sys.stdout,
        max_requests=args.max_requests,
        pcache=pcache,
    )
    print(f"served {served} request(s)", file=sys.stderr)
    return 0


def _cmd_watch(args) -> int:
    from respdi.ingest import IngestDaemon

    max_cycles = 1 if args.once else args.max_cycles
    daemon = IngestDaemon(
        args.directory,
        args.source,
        interval=args.interval,
        remove_missing=not args.keep_missing,
        context=_jobs_context(args.jobs),
    )
    print(
        f"watching {len(daemon.watcher.sources)} source(s) -> "
        f"{daemon.directory} every {daemon.interval:g}s",
        file=sys.stderr,
    )

    def report(result) -> None:
        print(result.summary())
        sys.stdout.flush()

    try:
        ran = daemon.run(max_cycles=max_cycles, on_cycle=report)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        ran = daemon.cycles
    print(f"ran {ran} cycle(s)", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    problems = open_catalog(args.directory).verify()
    if problems:
        for problem in problems:
            print(f"CORRUPT: {problem}", file=sys.stderr)
        return 2
    print("catalog verified: all checksums match")
    return 0


def _cmd_info(args) -> int:
    store = open_catalog(args.directory)
    if isinstance(store, ShardedCatalogStore):
        print(f"sharded catalog at {store.directory}")
        print(
            f"  {store.num_shards} shard(s), generations "
            f"{list(store.generations)}"
        )
        first = store.shards[0]
        print(
            f"  num_hashes={first.num_hashes} sketch_size={first.sketch_size} "
            f"num_partitions={first.num_partitions}"
        )
    else:
        print(f"catalog at {store.directory}")
        print(
            f"  num_hashes={store.num_hashes} sketch_size={store.sketch_size} "
            f"num_partitions={store.num_partitions}"
        )
    print(f"  hasher fingerprint {store.hasher.fingerprint}")
    print(f"  {len(store)} table(s):")
    for name in store.names:
        meta = store.meta(name)
        extras = []
        if meta.get("sensitive_columns"):
            extras.append("label")
        if meta.get("stored_data"):
            extras.append("data")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        print(f"    {name}: {meta['row_count']} rows{suffix}")
    return 0


def _cmd_reshard(args) -> int:
    store = reshard(
        args.source, args.dest, args.shards, in_place=args.in_place
    )
    print(
        f"resharded {args.source} -> {store.directory} "
        f"({len(store)} table(s) over {store.num_shards} shard(s))"
    )
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "add": _cmd_add,
    "remove": _cmd_remove,
    "refresh": _cmd_refresh,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "watch": _cmd_watch,
    "verify": _cmd_verify,
    "info": _cmd_info,
    "reshard": _cmd_reshard,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``respdi-catalog`` (also ``python -m respdi.catalog``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RespdiError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
