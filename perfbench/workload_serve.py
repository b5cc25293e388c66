"""serve_read and serve_ingest: closed-loop clients against respdi's socket server.

A run is SEGMENTS server launches in a row.  Each launch is one
``setup_s`` sample (launch until the probe query is answered); then the
client's connection runs a closed loop (it sends its next request only
when the previous response line has arrived) until the segment's share
of the run is used.  For serve_ingest the benchmark also
replaces one lake CSV at a time on a fixed seeded schedule while the
server's ingest daemon picks the changes up.  With tracing, the middle
segment's server is traced and the others give the baseline for
``trace_overhead_ratio``.
"""

from __future__ import annotations

import json
import random
import shutil
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import lakegen
from stats import (
    disk_ratio,
    freshness_lags,
    full_sidecar_bytes,
    median,
    min_samples,
    percentile,
    required_generations,
    tree_bytes,
    window_rates,
)
from server_main import CACHE_SIZE, PCACHE_SIZE
from tracer import Ledger, overhead_ratio

READ_LAKE = lakegen.LakeShape(tables=24, max_rows=1500)
INGEST_LAKE = lakegen.LakeShape(tables=16, max_rows=600)
MIX = lakegen.MixShape()
SEGMENTS = 3
SHARDS = 4
JOBS = 2  # the RESPDI_DEFAULT_JOBS=2 deployment of serve_ingest
DAEMON_INTERVAL_S = 0.25
REWRITE_EVERY_S = 1.0
REWRITE_QUIET_S = 2.0  # no rewrite this close to a segment's end
#: op_tail_ms percentile.  On serve_ingest the latencies climb steeply
#: from p98 to p99.5 (the ingest daemon's scans and commits share the
#: server's interpreter with the requests), and p99's run-to-run spread
#: was about 1.5 times p95's in the same runs, so the tail there is p95.
TAIL_Q = {"serve_read": 99, "serve_ingest": 95}
#: Latency percentiles printed with the host facts.
LATENCY_PROFILE = (50, 90, 95, 98, 99, 99.5)
PROBE = {"op": "keyword", "text": "north sales", "k": 10}
#: ``ops_per_s`` is the median over windows of this length, so a slow
#: stretch of a few seconds moves it less than a run-long average.
WINDOW_NS = 10**9


#: Closed-loop connections.  The run is pinned to one processor (see
#: ``hostinfo.pin_to_one_cpu``); a second connection there only makes the
#: two handler threads queue for the interpreter lock in 5 ms turns, so a
#: request's latency would depend on what the other connection was doing.
CONNECTIONS = 1


class Connection(threading.Thread):
    """One closed-loop connection working through its request stream."""

    def __init__(self, port: int, stream, position: int, deadline: int) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.stream = stream
        self.position = position
        self.deadline = deadline
        self.records: List[tuple] = []  # (stream index, sent ns, received ns, line)
        self.error: Exception = None

    def run(self) -> None:
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                reader = sock.makefile("rb")
                records, stream = self.records, self.stream
                index = self.position
                while time.perf_counter_ns() < self.deadline:
                    line = stream[index]
                    sent = time.perf_counter_ns()
                    sock.sendall(line)
                    response = reader.readline()
                    received = time.perf_counter_ns()
                    if not response:
                        raise ConnectionError("server closed the connection")
                    records.append((index, sent, received, response))
                    index += 1
                self.position = index
        except Exception as exc:  # surfaced by the run, which then fails
            self.error = exc


class Rewriter(threading.Thread):
    """Atomically replaces one lake CSV every REWRITE_EVERY_S seconds."""

    def __init__(self, lake: Path, order: List[int], start_count: int,
                 seed: int, stop_at: int) -> None:
        super().__init__(daemon=True)
        self.lake = lake
        self.order = order
        self.count = start_count
        self.seed = seed
        self.stop_at = stop_at
        self.done: List[tuple] = []  # (replaced ns, table index)
        self.halt = threading.Event()
        self.error: Exception = None

    def run(self) -> None:
        try:
            while not self.halt.wait(REWRITE_EVERY_S):
                if time.perf_counter_ns() >= self.stop_at:
                    return
                index = self.order[self.count % len(self.order)]
                self.count += 1
                rows = lakegen.table_rows(index, INGEST_LAKE, self.seed, self.count)
                path = self.lake / f"{lakegen.table_name(index)}.csv"
                lakegen.replace_table(path, lakegen.COLUMNS, rows)
                self.done.append((time.perf_counter_ns(), index))
        except Exception as exc:
            self.error = exc


def _probe(port: int) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall((json.dumps(PROBE) + "\n").encode())
        return json.loads(sock.makefile("rb").readline())


def _committed(catalog: Path) -> List[int]:
    from respdi.catalog.sharding import read_shard_spec
    from respdi.catalog.store import read_manifest

    return [
        int(read_manifest(catalog / name)["ensemble_generation"])
        for name in read_shard_spec(catalog)["shards"]
    ]


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path,
        root: Path, children) -> Dict:
    ingest = workload == "serve_ingest"
    shape = INGEST_LAKE if ingest else READ_LAKE
    lake, catalog = work / "lake", work / "catalog"
    lake_info = lakegen.write_lake(lake, shape, seed)

    from respdi.catalog.sharding import ShardedCatalogStore, shard_for
    from respdi.catalog.store import CatalogStore
    from respdi.table import read_csv

    tables = {p.stem: read_csv(p) for p in sorted(lake.glob("*.csv"))}
    if ingest:
        ShardedCatalogStore.build(catalog, tables, num_shards=SHARDS, rng=seed)
    else:
        CatalogStore.build(catalog, tables, rng=seed)
    factory = lakegen.RequestFactory(work / "requests", shape, seed, seconds)
    factory.write_csv_pools()
    n_conn = CONNECTIONS
    streams = factory.streams(n_conn, MIX, seconds)
    start_generation = _committed(catalog) if ingest else None
    order = list(range(shape.tables))
    random.Random(f"{seed}:rewrites").shuffle(order)

    positions = [0] * n_conn
    rewrites_done = 0
    committed_target = list(start_generation or [])
    segments = []
    per_segment = int(seconds * 1e9 / SEGMENTS)
    for k in range(SEGMENTS):
        traced = trace and k == 1
        config = {
            "catalog": str(catalog),
            "mode": "ingest" if ingest else "read",
            "trace": traced,
            "lake": str(lake),
            "interval": DAEMON_INTERVAL_S,
            "spans": str(work / f"spans-{k}.json"),
        }
        config_path = work / f"server-{k}.json"
        config_path.write_text(json.dumps(config))
        env = {"RESPDI_DEFAULT_JOBS": str(JOBS)} if ingest else {}
        launched = time.perf_counter_ns()
        server = children.start("server_main.py", [str(config_path)], root, env=env)
        port = int(server.expect("READY", timeout=120).split()[1])
        probe = _probe(port)
        setup_ns = time.perf_counter_ns() - launched
        phase_start = time.perf_counter_ns()
        deadline = phase_start + per_segment
        rewriter = None
        if ingest:
            rewriter = Rewriter(lake, order, rewrites_done, seed,
                                deadline - int(REWRITE_QUIET_S * 1e9))
            rewriter.start()
        conns = [
            Connection(port, streams[c], positions[c], deadline) for c in range(n_conn)
        ]
        for conn in conns:
            conn.start()
        for conn in conns:
            conn.join(per_segment / 1e9 + 120)
        phase_end = time.perf_counter_ns()
        if rewriter is not None:
            rewriter.halt.set()
            rewriter.join(30)
            rewrites_done = rewriter.count
            for _, index in rewriter.done:
                committed_target[shard_for(lakegen.table_name(index), SHARDS)] += 1
            _wait_committed(catalog, committed_target)
        server.send("stop\n")
        report = json.loads(server.expect("{", timeout=120))
        if server.finish(timeout=60) != 0:
            raise RuntimeError("server exited with an error")
        for conn in conns:
            if conn.is_alive():
                raise RuntimeError("a client connection did not finish")
            if conn.error is not None:
                raise conn.error
        if rewriter is not None and rewriter.error is not None:
            raise rewriter.error
        positions = [conn.position for conn in conns]
        segments.append({
            "traced": traced,
            "setup_ns": setup_ns,
            "phase": (phase_start, phase_end),
            "probe": probe,
            "conns": [conn.records for conn in conns],
            "rewrites": rewriter.done if rewriter is not None else [],
            "server": report,
            "stored_bytes": _stored_bytes(catalog, ingest),
        })

    return _summarise(workload, segments, streams, lake_info, catalog, lake,
                      start_generation, trace, shard_for)


def _stored_bytes(catalog: Path, ingest: bool) -> float:
    """Bytes the served catalog keeps at the end of a launch.

    serve_read's pcache sidecar sits at its default place inside the
    catalog.  How many results it stores depends on how many requests the
    launch served, so its bytes are scaled to a full sidecar (PCACHE_SIZE
    entries of the mean size stored); the sidecar is then removed, so the
    next launch starts empty.
    """
    if ingest:
        return float(tree_bytes(catalog))
    from respdi.service.pcache import sidecar_directory

    sidecar = sidecar_directory(catalog)
    sidecar_bytes = tree_bytes(sidecar)
    entries = sum(1 for _ in sidecar.glob("*.json"))
    stored = tree_bytes(catalog) - sidecar_bytes
    stored += full_sidecar_bytes(sidecar_bytes, entries, PCACHE_SIZE)
    shutil.rmtree(sidecar)
    return stored


def _wait_committed(catalog: Path, target: List[int], timeout: float = 20.0) -> None:
    """Block until every shard reaches *target* (off the clock); the final
    fingerprint check reports a catalog that never catches up."""
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        if all(g >= t for g, t in zip(_committed(catalog), target)):
            return
        time.sleep(0.05)


def _summarise(workload, segments, streams, lake_info, catalog, lake,
               start_generation, trace, shard_for) -> Dict:
    ingest = workload == "serve_ingest"
    problems: List[str] = []
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    gaps_ms: List[float] = []
    responses = []  # (received ns, generation vector)
    attempted = failed = 0
    distinct = set()
    for segment in segments:
        if not segment["probe"].get("ok"):
            problems.append(f"setup probe failed: {segment['probe']}")
        for conn_index, records in enumerate(segment["conns"]):
            previous_received = None
            for index, sent, received, _line in records:
                attempted += 1
                latencies[segment["traced"]].append((received - sent) / 1e6)
                if previous_received is not None:
                    gaps_ms.append((sent - previous_received) / 1e6)
                previous_received = received
                distinct.add(streams[conn_index][index])
            conn_problems, conn_failed, answered = check_responses(records)
            problems += conn_problems
            failed += conn_failed
            responses += answered
        if segment["server"].get("daemon_error"):
            failed += 1
            problems.append(f"ingest daemon failed: {segment['server']['daemon_error']}")
        attempted += segment["server"]["cycles"]

    cycles = sum(s["server"]["cycles"] for s in segments)
    facts = {
        "lake": lake_info,
        "connections": len(streams),
        "segments": len(segments),
        "requests": attempted - cycles,
        "requests_per_segment": [sum(len(r) for r in s["conns"]) for s in segments],
        "distinct_requests": len(distinct),
        "memory_cache_entries": CACHE_SIZE,
        "pcache_entries": 0 if ingest else PCACHE_SIZE,
        "client_gap_ms_p50": median(gaps_ms) if gaps_ms else None,
        "client_gap_ms_p99": (
            percentile(gaps_ms, 99) if len(gaps_ms) >= min_samples(99) else None
        ),
        "latency_ms": {
            f"p{q:g}": percentile(latencies[False], q)
            for q in LATENCY_PROFILE if len(latencies[False]) >= min_samples(q)
        },
    }
    if ingest:
        problems += _check_lake_matches(catalog, lake)
        rewrites = [(t, shard_for(lakegen.table_name(i), SHARDS))
                    for s in segments for t, i in s["rewrites"]]
        needed = required_generations(start_generation, [shard for _, shard in rewrites])
        lags = freshness_lags(
            [(t, shard, g) for (t, shard), g in zip(rewrites, needed)], responses
        )
        seen = [lag / 1e9 for lag in lags if lag is not None]
        facts.update(rewrites=len(rewrites), rewrites_seen=len(seen), cycles=cycles)
        if len(seen) < len(rewrites):
            problems.append(f"{len(rewrites) - len(seen)} rewrites never showed in a response")
        freshness = median(seen) if seen else 0.0
        facts["freshness_lag_s"] = freshness
    else:
        problems += _check_answers(catalog, segments, streams)
        freshness = 0.0

    result = {"attempted": attempted, "failed": failed, "problems": problems, "facts": facts}
    if not trace:
        lat = latencies[False]
        rates = [
            rate for s in segments if not s["traced"]
            for rate in window_rates(
                (received for records in s["conns"] for _, _, received, _ in records),
                *s["phase"], WINDOW_NS,
            )
        ]
        setups = [s["setup_ns"] / 1e9 for s in segments]
        stored = median([s["stored_bytes"] for s in segments])
        result["metrics"] = {
            "setup_s": (median(setups), len(setups)),
            "op_p50_ms": (percentile(lat, 50), len(lat)),
            "op_tail_ms": (percentile(lat, TAIL_Q[workload]), len(lat)),
            "ops_per_s": (median(rates), len(rates)),
            "peak_rss_mib": (
                median([s["server"]["peak_rss_mib"] for s in segments]), len(segments),
            ),
            "disk_bytes_per_input_byte": (
                disk_ratio(stored, lake_info["csv_bytes"]), len(segments),
            ),
        }
        result["facts"]["tail_percentile"] = TAIL_Q[workload]
        return result

    ledger = Ledger()
    e2e_ns = transport_ns = rejects = 0
    for segment in segments:
        if not segment["traced"]:
            continue
        spans = json.loads(Path(segment["server"]["spans"]).read_text())
        rejects += segment["server"]["admission_rejects"]
        ledger.add_spans(spans, keep=lambda unit: unit is not None)
        requests = sorted(
            (span for span in spans if span[0] == "service.handle" and span[2] == 0),
            key=lambda span: int(span[3][1:]),
        )
        handled_ns = sum(span[5] - span[4] for span in requests[1:])  # [0] is the probe
        phase_latency_ns = sum(
            received - sent for records in segment["conns"]
            for _, sent, received, _ in records
        )
        cycles_ns = sum(
            span[5] - span[4] for span in spans
            if span[0] == "ingest.cycle" and span[2] == 0
        )
        transport_ns += phase_latency_ns - handled_ns
        e2e_ns += segment["setup_ns"] + phase_latency_ns + cycles_ns
    ledger.add_time("service.transport_s", transport_ns)
    metrics = ledger.metrics(e2e_ns)
    metrics["service.admission_rejects"] = rejects
    metrics["ingest.freshness_lag_s"] = freshness
    metrics["client.overhead_ms"] = median(gaps_ms) if gaps_ms else 0.0
    metrics["trace_overhead_ratio"] = overhead_ratio(latencies[True], latencies[False])
    result["layers"] = metrics
    result["ledger_problems"] = ledger.problems(e2e_ns)
    return result


def check_responses(records) -> Tuple[List[str], int, List[Tuple[int, list]]]:
    """Check one connection's responses, in the order they arrived.

    Every response must be ``ok`` and the generation must never go
    backwards on the connection.  Returns the problems, the number of
    ``ok: false`` responses, and ``(received ns, generation vector)`` of
    the ``ok`` ones.
    """
    problems: List[str] = []
    failed = 0
    seen: List[Tuple[int, list]] = []
    last = None
    for _index, _sent, received, line in records:
        response = json.loads(line)
        if not response.get("ok"):
            failed += 1
            problems.append(f"not ok: {response.get('error')}")
            continue
        generation = response["generation"]
        vector = generation if isinstance(generation, list) else [generation]
        if last is not None and any(g < h for g, h in zip(vector, last)):
            problems.append(f"generation went backwards: {last} -> {vector}")
        last = vector
        seen.append((received, vector))
    return problems, failed, seen


def _check_answers(catalog: Path, segments, streams) -> List[str]:
    """Every served result equals an uncached in-process answer, byte for byte."""
    from respdi.service import QueryService, handle_request

    service = QueryService(catalog, cache_size=0)
    expected: Dict[bytes, str] = {}
    problems = []
    for segment in segments:
        pairs = [(json.dumps(PROBE).encode() + b"\n", segment["probe"])]
        for conn_index, records in enumerate(segment["conns"]):
            for index, _sent, _received, line in records:
                pairs.append((streams[conn_index][index], json.loads(line)))
        for request_line, response in pairs:
            if not response.get("ok"):
                continue  # reported by check_responses
            if request_line not in expected:
                answer = handle_request(service, json.loads(request_line), cached=False)
                expected[request_line] = json.dumps(answer.get("results"))
            if json.dumps(response["results"]) != expected[request_line]:
                problems.append(f"results differ for {request_line[:80]!r}")
            if len(problems) > 20:
                return problems
    return problems


def _check_lake_matches(catalog: Path, lake: Path) -> List[str]:
    """The final catalog holds exactly the final lake's tables, by fingerprint."""
    from respdi.catalog.store import table_fingerprint
    from respdi.ingest import committed_fingerprints
    from respdi.table import read_csv

    committed = committed_fingerprints(catalog)
    on_disk = {p.stem: table_fingerprint(read_csv(p)) for p in sorted(lake.glob("*.csv"))}
    if committed == on_disk:
        return []
    stale = sorted(name for name in on_disk if committed.get(name) != on_disk[name])
    return [f"catalog differs from the final lake: {stale}"]
