"""``respdi-catalog serve --port``: a threaded multi-tenant socket server.

The stdin JSON-lines loop (:func:`respdi.service.server.serve`) serves
one client; this module serves many, concurrently, over TCP — same
protocol (one JSON request per line, one JSON response per line), same
query machinery (one shared :class:`~respdi.service.QueryService` for a
plain or sharded catalog, one pinned shard vector per request), so a
socket response is byte-identical to the stdin response for the same
request against the same generation (the serve differential suite
asserts exactly that).

What the socket path adds on top of the protocol:

* **concurrency** — one handler thread per connection, dropped from
  the server's bookkeeping when its connection ends; all threads share
  the service's snapshot/cache machinery, which is thread-safe by
  construction (the service concurrency stress).
* **tenancy** — requests may carry ``"tenant": "name"``; an optional
  :class:`~respdi.service.admission.AdmissionController` applies
  per-tenant token-bucket quotas and a global bounded inflight gate.
  Shed requests get ``{"ok": false, "error": "overloaded",
  "retry_after_ms": ...}`` *in-band* — the connection stays usable, the
  server stays responsive, other tenants keep their latency.  ``ping``
  and ``stats`` bypass admission so health checks always answer.
* **observability** — per-kind and per-tenant latency ledgers with
  p50/p99 (mirrored to ``serve.latency.*`` obs histograms), request
  counters, and a ``stats`` op that reports admission ledgers, latency
  summaries, and cache tiers without any process-internal access.
* an optional **persistent cache tier**
  (:class:`~respdi.service.pcache.PersistentResultCache`) shared by all
  connections, so a restarted server warm-starts from disk.

The server binds ``127.0.0.1`` by default: this is a backend service;
exposing it wider is an explicit operator decision (``--host``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from respdi import obs
from respdi.errors import RespdiError
from respdi.faults.plan import fault_point
from respdi.service.admission import (
    DEFAULT_TENANT,
    AdmissionController,
    LatencyLedger,
)
from respdi.service.pcache import PersistentResultCache
from respdi.service.server import handle_request

#: Ops that never pass through admission control: operators must always
#: be able to health-check and read counters, throttled tenants included
#: (a quota that silences ``stats`` would hide the very overload it
#: causes).  ``stop`` only ends its own connection.
UNGATED_OPS = frozenset({"ping", "stats", "stop"})


class SocketQueryServer:
    """A threaded JSON-lines query server over one query service.

    One accept loop, one handler thread per connection, all sharing
    *service* (and, when given, *pcache* and *admission*).  ``port=0``
    binds an ephemeral port — :meth:`start` returns the bound address,
    which is how tests and benchmarks avoid port races.
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        cached: bool = True,
        pcache: Optional[PersistentResultCache] = None,
        admission: Optional[AdmissionController] = None,
        latency: Optional[LatencyLedger] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self.cached = cached
        self.pcache = pcache
        self.admission = admission
        self.latency = latency if latency is not None else LatencyLedger()
        self.max_requests = max_requests
        self.requests_served = 0
        self.connections_accepted = 0
        self._count_lock = threading.Lock()
        self._stopping = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._conns: List[socket.socket] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and spawn the accept loop; returns ``(host, port)``."""
        fault_point("service.serve.start", directory=str(self.service.directory))
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="respdi-serve-accept", daemon=True
        )
        self._accept_thread.start()
        obs.inc("serve.started")
        return self.host, self.port

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting, close every connection, join the threads."""
        self._stopping.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept():
            # shutdown() does on Linux, and the throwaway self-connection
            # covers platforms where shutting down a listener is a no-op.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=1.0
                ):
                    pass
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._count_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
        with self._count_lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join(timeout)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server stops (e.g. ``max_requests`` reached)."""
        return self._stopping.wait(timeout)

    def serve_forever(self) -> int:
        """Blocking convenience for the CLI: start, run until stopped."""
        if self._listener is None:
            self.start()
        try:
            while not self._stopping.wait(0.2):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()
        return self.requests_served

    # -- the accept loop -------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set() and listener is not None:
            try:
                conn, _addr = listener.accept()
            except OSError:
                break  # listener closed by stop()
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="respdi-serve-conn",
                daemon=True,
            )
            with self._count_lock:
                if self._stopping.is_set():
                    conn.close()
                    break
                self.connections_accepted += 1
                self._conns.append(conn)
                self._handlers.append(thread)
            obs.inc("serve.connections")
            thread.start()

    # -- per-connection handling -----------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            writer = conn.makefile("w", encoding="utf-8", newline="\n")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                response, last, counted = self._respond(line)
                writer.write(json.dumps(response) + "\n")
                writer.flush()
                # Count (and possibly trip the max_requests stop latch)
                # only AFTER the response is flushed: the latch wakes
                # stop(), which closes connections, and winning that
                # race against our own write would eat the response.
                if counted and self._count_request():
                    break
                if last or self._stopping.is_set():
                    break
        except (OSError, ValueError):
            pass  # client went away mid-write; nothing to salvage
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._count_lock:
                try:
                    self._conns.remove(conn)
                except ValueError:
                    pass
                # A finished handler leaves the list, so it holds only
                # live connections however many a long-lived server took.
                self._handlers.remove(threading.current_thread())

    def _respond(self, line: str) -> Tuple[Dict[str, Any], bool, bool]:
        """Answer one raw request line; returns ``(response, close?, count?)``."""
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise RespdiError("request must be a JSON object")
        except (RespdiError, ValueError) as exc:
            return (
                {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                False,
                False,
            )

        op = request.get("op")
        tenant = str(request.get("tenant", DEFAULT_TENANT))
        if op == "stop":
            return {"ok": True, "op": "stop"}, True, False
        if op == "stats":
            return self._stats_response(), False, False

        ticket = None
        if self.admission is not None and op not in UNGATED_OPS:
            ticket = self.admission.admit(tenant)
            if not ticket:
                return ticket.rejection(), False, False
        start = time.perf_counter()
        try:
            if ticket is not None:
                with ticket:
                    response = handle_request(
                        self.service, request, cached=self.cached,
                        pcache=self.pcache,
                    )
            else:
                response = handle_request(
                    self.service, request, cached=self.cached,
                    pcache=self.pcache,
                )
        except (RespdiError, OSError, ValueError, KeyError, TypeError) as exc:
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        if op is not None and op not in UNGATED_OPS:
            self.latency.observe(f"kind.{op}", elapsed)
            self.latency.observe(f"tenant.{tenant}", elapsed)
        obs.inc("serve.requests")
        return response, False, True

    def _count_request(self) -> bool:
        """Count one served request; trip the stop latch at max_requests."""
        with self._count_lock:
            self.requests_served += 1
            if (
                self.max_requests is not None
                and self.requests_served >= self.max_requests
            ):
                # Latch only: closing sockets from a handler thread would
                # deadlock stop()'s joins, so just stop accepting work and
                # let wait()/serve_forever() run the actual shutdown.
                self._stopping.set()
                return True
        return False

    # -- introspection ---------------------------------------------------------

    def _stats_response(self) -> Dict[str, Any]:
        stats = self.service.stats()
        stats["server"] = {
            "connections_accepted": self.connections_accepted,
            "requests_served": self.requests_served,
        }
        stats["latency"] = self.latency.stats()
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        if self.pcache is not None:
            stats["pcache"] = self.pcache.stats()
        return {"ok": True, "op": "stats", "stats": stats}
