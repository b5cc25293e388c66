"""``respdi-catalog serve``: one JSON-lines request loop, over stdin or TCP.

:meth:`SocketQueryServer.serve_stream` is the only loop that reads
request lines (one JSON request per line, one JSON response per line)
and :meth:`SocketQueryServer._respond` the only code that parses them.
``--port`` runs the loop once per TCP connection; :func:`serve` runs it
once over stdin/stdout on a server that never binds a port.  Both
transports thus answer, count and time a request alike, and a socket
response is byte-identical to the stdin response for the same request
against the same generation (the serve differential suite asserts it).
Parsed requests are answered by :func:`~respdi.service.server.handle_request`.

Around it the loop adds:

* **in-band errors** — a malformed line (bad JSON, bytes that are not
  UTF-8, nesting past the recursion limit, an unknown op) or one longer
  than :data:`MAX_REQUEST_CHARS` gets ``{"ok": false, "error": ...}``,
  and the loop keeps serving.
* **tenancy** — requests may carry ``"tenant": "name"``; an optional
  :class:`~respdi.service.admission.AdmissionController` applies
  per-tenant token-bucket quotas and a global bounded inflight gate,
  shedding *in-band* with ``{"ok": false, "error": "overloaded",
  "retry_after_ms": ...}``.  ``ping`` and ``stats`` bypass admission so
  health checks always answer.
* **observability** — served requests, connections and the per-kind and
  per-tenant latency of :data:`TIMED_OPS` are counted in the server's
  :class:`~respdi.obs.ComponentRegistry`; a ``stats`` op adds server,
  latency and admission sections to the service and cache-tier stats,
  each read from its component's registry.
* an optional **persistent cache tier**
  (:class:`~respdi.service.pcache.PersistentResultCache`) shared by all
  connections, so a restarted server warm-starts from disk.

Over TCP each connection gets its own handler thread, dropped from the
server's bookkeeping when the connection ends — at EOF, at ``stop``, or
once a read or write has waited :data:`IDLE_TIMEOUT_S` seconds; all
share the service's thread-safe snapshot/cache machinery.  The server
binds ``127.0.0.1`` by default: exposing it wider is an explicit
operator decision (``--host``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from respdi import obs
from respdi.errors import RespdiError, SpecificationError
from respdi.faults.plan import fault_point
from respdi.service.admission import DEFAULT_TENANT, AdmissionController
from respdi.service.pcache import PersistentResultCache
from respdi.service.server import handle_request

#: Ops that never pass through admission control: operators must always
#: be able to health-check and read counters, throttled tenants included
#: (a quota that silences ``stats`` would hide the very overload it
#: causes).  ``stop`` only ends its own connection.  A tuple, not a set:
#: ``op`` may be any JSON value, and a list cannot be hashed.
UNGATED_OPS = ("ping", "stats", "stop")

#: Ops whose latency is timed, the ones ``handle_request`` does work for;
#: timing every op would mint a histogram per distinct unknown op.
TIMED_OPS = ("keyword", "union", "join", "containment", "match", "reload")

#: Longest request line answered, in characters (newline excluded); the
#: loop never buffers more than one character past it.
MAX_REQUEST_CHARS = 1 << 20

#: Seconds a TCP connection's read or write may wait before the server
#: closes it, so a silent client cannot hold a handler thread until
#: :meth:`SocketQueryServer.stop`.  stdin has no timeout.
IDLE_TIMEOUT_S = 60.0

#: How both transports decode non-UTF-8 request bytes: into lone
#: surrogates, so the line is answered in-band instead of ending the stream.
DECODE_ERRORS = "surrogateescape"


def _error(exc: Exception) -> Dict[str, Any]:
    """The in-band answer to a request that failed with *exc*."""
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


class SocketQueryServer:
    """A JSON-lines query server over one query service.

    :meth:`serve_stream` answers one stream of request lines.  Over TCP
    (:meth:`start`) one accept loop hands each connection to its own
    handler thread running it, all sharing *service* (and, when given,
    *pcache* and *admission*).  ``port=0`` binds an ephemeral port —
    :meth:`start` returns the bound address, which is how tests and
    benchmarks avoid port races.
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        pcache: Optional[PersistentResultCache] = None,
        admission: Optional[AdmissionController] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        if max_requests is not None and max_requests < 1:
            raise SpecificationError("max_requests must be >= 1 (or None)")
        self.service = service
        self.host = host
        self.port = int(port)
        self.pcache = pcache
        self.admission = admission
        self.max_requests = max_requests
        self.metrics = obs.ComponentRegistry()
        self._conn_lock = threading.Lock()
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

    @property
    def requests_served(self) -> int:
        """Answered non-blank lines, over every connection or stream."""
        return self.metrics.count("serve.requests")

    @property
    def connections_accepted(self) -> int:
        return self.metrics.count("serve.connections")

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
        with self._conn_lock:
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
        with self._conn_lock:
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
            with self._conn_lock:
                if self._stopping.is_set():
                    conn.close()
                    break
                self._conns.append(conn)
                self._handlers.append(thread)
            self.metrics.inc("serve.connections")
            thread.start()

    # -- the request loop ------------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(IDLE_TIMEOUT_S)
            self.serve_stream(
                conn.makefile("r", encoding="utf-8", errors=DECODE_ERRORS, newline="\n"),
                conn.makefile("w", encoding="utf-8", newline="\n"),
            )
        except (OSError, ValueError):
            pass  # client went away or idled out; nothing to salvage
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                try:
                    self._conns.remove(conn)
                except ValueError:
                    pass
                # A finished handler leaves the list, so it holds only
                # live connections however many a long-lived server took.
                self._handlers.remove(threading.current_thread())

    def serve_stream(self, reader: TextIO, writer: TextIO) -> None:
        """Answer request lines from *reader* on *writer*, one line each.

        Runs until EOF, a ``stop`` request, or the server stopping (the
        ``max_requests`` latch or :meth:`stop`).  Per-request failures
        are answered in-band; only stream-level failures (a closed pipe,
        a reset socket) propagate.
        """
        while not self._stopping.is_set():
            line = reader.readline(MAX_REQUEST_CHARS + 1)
            if not line:
                return
            if len(line) > MAX_REQUEST_CHARS and not line.endswith("\n"):
                # Skip the rest of the line in reads of the same bound.
                while line and not line.endswith("\n"):
                    line = reader.readline(MAX_REQUEST_CHARS + 1)
                too_long = RespdiError(
                    f"request line exceeds {MAX_REQUEST_CHARS} characters"
                )
                response, last = _error(too_long), False
            else:
                line = line.strip()
                if not line:
                    continue
                response, last = self._respond(line)
            writer.write(json.dumps(response) + "\n")
            writer.flush()
            # Count (and possibly trip the max_requests stop latch) only
            # AFTER the response is flushed: the latch wakes stop(), which
            # closes connections, and winning that race against our own
            # write would eat the response.
            if self._count_request() or last:
                return

    def _respond(self, line: str) -> Tuple[Dict[str, Any], bool]:
        """Answer one raw request line; returns ``(response, last?)``."""
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise RespdiError("request must be a JSON object")
            op = request.get("op")
            if op == "stop":
                return {"ok": True, "op": "stop"}, True
            if op == "stats":
                return self._stats(request), False
            return self._answer(request, op), False
        except (RespdiError, OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            # json.loads raises RecursionError on nesting past the interpreter's limit.
            return _error(exc), False

    def _answer(self, request: Dict[str, Any], op: Any) -> Dict[str, Any]:
        """Admit, answer and time one request other than ``stats``/``stop``."""
        tenant = str(request.get("tenant", DEFAULT_TENANT))
        ticket = None
        if self.admission is not None and op not in UNGATED_OPS:
            ticket = self.admission.admit(tenant)
            if not ticket:
                return ticket.rejection()
        start = time.perf_counter()
        try:
            if ticket is None:
                return handle_request(self.service, request, pcache=self.pcache)
            with ticket:
                return handle_request(self.service, request, pcache=self.pcache)
        finally:
            if op in TIMED_OPS:
                elapsed = time.perf_counter() - start
                self.metrics.observe(f"serve.latency.kind.{op}.seconds", elapsed)
                self.metrics.observe(f"serve.latency.tenant.{tenant}.seconds", elapsed)

    def _count_request(self) -> bool:
        """Count one served request; trip the stop latch at max_requests."""
        self.metrics.inc("serve.requests")
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

    def _stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``handle_request``'s service and pcache stats, plus the server's."""
        response = handle_request(self.service, request, pcache=self.pcache)
        stats = response["stats"]
        stats["server"] = {
            "connections_accepted": self.connections_accepted,
            "requests_served": self.requests_served,
        }
        # Keyed ``kind.<op>`` / ``tenant.<name>`` and sorted on that key:
        # the full names sort ``tenant.a-b`` before ``tenant.a``.
        histograms = self.metrics.snapshot()["histograms"]
        stats["latency"] = dict(
            sorted(
                (name.removeprefix("serve.latency.").removesuffix(".seconds"), summary)
                for name, summary in histograms.items()
            )
        )
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        return response


def serve(
    service: Any,
    input_stream: TextIO,
    output_stream: TextIO,
    max_requests: Optional[int] = None,
    pcache: Optional[PersistentResultCache] = None,
) -> int:
    """Answer request lines until EOF, ``stop``, or *max_requests*.

    The stdin transport of ``respdi-catalog serve``: one run of
    :meth:`SocketQueryServer.serve_stream` over *input_stream* and
    *output_stream*, on a server that never binds a port.  A text
    stream over bytes (``sys.stdin``) is switched to the socket's
    decoding (UTF-8, :data:`DECODE_ERRORS`) before the first read.
    Returns the number of requests served.
    """
    fault_point("service.serve.start", directory=str(service.directory))
    if hasattr(input_stream, "reconfigure"):  # not an in-memory StringIO
        input_stream.reconfigure(encoding="utf-8", errors=DECODE_ERRORS)
    server = SocketQueryServer(service, pcache=pcache, max_requests=max_requests)
    server.serve_stream(input_stream, output_stream)
    return server.requests_served
