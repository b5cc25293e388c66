"""Server process for the serve workloads: respdi's socket server, composed
the way ``respdi-catalog serve --port`` builds it.

Run by ``run.py`` (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/server_main.py CONFIG_JSON

CONFIG_JSON names the catalog, the mode (``read``: plain catalog with the
persistent result cache; ``ingest``: sharded catalog with an
``IngestDaemon`` attached to the service) and whether to trace.  The
process prints ``READY <port>``, serves until a line arrives on stdin,
then stops the daemon and the server and prints a JSON report.  With
tracing on, the wrappers are installed before the service exists, so the
catalog open and the first pin are traced too.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import diskless
from hostinfo import peak_rss_mib
from tracer import Tracer, install

#: ``respdi-catalog serve`` defaults (``--cache-size``, ``--max-inflight``,
#: ``--tenant-burst``, ``--pcache-size``).
CACHE_SIZE = 256
MAX_INFLIGHT = 64
TENANT_BURST = 8.0
PCACHE_SIZE = 4096


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    diskless.install()
    tracer = Tracer() if config["trace"] else None
    with tracer.unit("setup") if tracer else nullcontext():
        with tracer.span("setup.import") if tracer else nullcontext():
            from respdi.ingest import IngestDaemon
            from respdi.service import (
                AdmissionController,
                QueryService,
                ShardedQueryService,
                SocketQueryServer,
                open_pcache,
            )
        if tracer is not None:
            install(tracer)

        catalog = config["catalog"]
        pcache = daemon = None
        if config["mode"] == "read":
            service = QueryService(catalog, cache_size=CACHE_SIZE)
            pcache = open_pcache(catalog, max_entries=PCACHE_SIZE)
        else:
            service = ShardedQueryService(catalog, cache_size=CACHE_SIZE)
            daemon = IngestDaemon(
                catalog, config["lake"], interval=config["interval"], service=service
            )
        admission = AdmissionController(
            max_inflight=MAX_INFLIGHT, default_rate=None,
            default_burst=TENANT_BURST, quotas={},
        )
        server = SocketQueryServer(service, pcache=pcache, admission=admission)
        _host, port = server.start()
        if daemon is not None:
            daemon.start()
    print(f"READY {port}", flush=True)

    sys.stdin.readline()
    daemon_error = None
    if daemon is not None:
        try:
            daemon.stop()
        except Exception as exc:  # reported, and the run fails on it
            daemon_error = f"{type(exc).__name__}: {exc}"
    server.stop()
    report = {
        "peak_rss_mib": peak_rss_mib(),
        "served": server.requests_served,
        "cycles": daemon.cycles if daemon is not None else 0,
        "daemon_error": daemon_error,
        "stopped_ns": time.perf_counter_ns(),
    }
    if tracer is not None:
        spans_path = Path(config["spans"])
        spans_path.write_text(json.dumps(tracer.spans))
        report["spans"] = str(spans_path)
        report["admission_rejects"] = tracer.admission_rejects
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
