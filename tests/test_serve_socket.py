"""Socket serve path and admission control unit coverage.

Admission first, deterministically (token buckets on a fake clock, the
ledger invariant, the inflight gate, quota-spec parsing), then the
threaded socket server end to end:
concurrent clients, in-band errors, tenant quotas shedding load with
honest ``retry_after_ms`` hints, ungated health ops, the ``stats`` op's
composed report, and byte-identity between socket and stdin responses.
"""

import json
import socket
import threading
import time

import pytest

from respdi.catalog import CatalogStore
from respdi.errors import SpecificationError
from respdi.service import (
    AdmissionController,
    QueryService,
    SocketQueryServer,
    TokenBucket,
    handle_request,
    parse_quota_specs,
    reset_shared_services,
)
from respdi.service import netserver
from respdi.service.admission import DEFAULT_TENANT
from respdi.table import Schema, Table

SCHEMA = Schema([("key", "categorical"), ("value", "numeric")])
OPTS = dict(rng=7, num_hashes=16, sketch_size=16)


def _table(tag, n=8):
    rows = [(f"{tag}_{i}", float(i)) for i in range(n)]
    return Table.from_rows(SCHEMA, rows)


TABLES = {"alpha": _table("a"), "beta": _table("b"), "gamma": _table("g")}


@pytest.fixture(autouse=True)
def _clean_shared():
    reset_shared_services()
    yield
    reset_shared_services()


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- token bucket --------------------------------------------------------------


def test_bucket_burst_then_exact_retry_after():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    assert [bucket.try_take()[0] for _ in range(3)] == [True, True, True]
    admitted, retry_after = bucket.try_take()
    assert not admitted
    # Empty bucket at 2 tokens/sec: exactly half a second to one token.
    assert retry_after == pytest.approx(0.5)
    clock.advance(0.5)
    assert bucket.try_take() == (True, 0.0)


def test_bucket_refill_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
    clock.advance(60.0)  # a long idle period must not bank 600 tokens
    assert bucket.tokens == pytest.approx(2.0)


def test_unlimited_bucket_always_admits():
    bucket = TokenBucket(rate=None)
    assert all(bucket.try_take() == (True, 0.0) for _ in range(100))


def test_bucket_rejects_bad_parameters():
    with pytest.raises(SpecificationError):
        TokenBucket(rate=0.0)
    with pytest.raises(SpecificationError):
        TokenBucket(rate=1.0, burst=0.5)


# -- admission controller ------------------------------------------------------


def test_quota_rejection_carries_retry_after_ms():
    clock = FakeClock()
    controller = AdmissionController(
        quotas={"noisy": (1.0, 1.0)}, clock=clock
    )
    assert controller.admit("noisy")
    ticket = controller.admit("noisy")
    assert not ticket and ticket.reason == "quota"
    shed = ticket.rejection()
    assert shed["error"] == "overloaded" and shed["tenant"] == "noisy"
    assert shed["retry_after_ms"] >= 1  # never "retry immediately"
    clock.advance(1.0)
    assert controller.admit("noisy")


def test_inflight_gate_bounds_concurrency_and_releases():
    controller = AdmissionController(max_inflight=2)
    first = controller.admit("a")
    second = controller.admit("b")
    third = controller.admit("c")
    assert first and second and not third
    assert third.reason == "inflight"
    assert controller.inflight == 2 and controller.peak_inflight == 2
    with first:
        pass  # context exit releases the slot
    assert controller.inflight == 1
    assert controller.admit("c")


def test_over_quota_tenant_cannot_consume_inflight_slots():
    clock = FakeClock()
    controller = AdmissionController(
        max_inflight=1, quotas={"noisy": (1.0, 1.0)}, clock=clock
    )
    assert controller.admit("noisy")
    # noisy is now out of tokens; its rejections must not occupy the gate.
    assert controller.admit("noisy").reason == "quota"
    assert controller.inflight == 1  # only the admitted request holds a slot


def test_ledger_balances_per_tenant_and_globally():
    clock = FakeClock()
    controller = AdmissionController(
        max_inflight=3, quotas={"t0": (1.0, 2.0)}, clock=clock
    )
    for tenant in ("t0", "t0", "t0", "t1", "t1"):
        controller.admit(tenant)
    ledger = controller.ledger()
    for tenant, row in ledger.items():
        assert (
            row["admitted"] + row["rejected_quota"] + row["rejected_inflight"]
            == row["received"]
        ), tenant
    totals = controller.stats()["totals"]
    assert totals["received"] == 5
    assert (
        totals["admitted"]
        + totals["rejected_quota"]
        + totals["rejected_inflight"]
        == 5
    )


def test_release_is_idempotent_per_ticket():
    controller = AdmissionController(max_inflight=1)
    ticket = controller.admit("a")
    with ticket:
        pass
    with ticket:
        pass  # re-entering a spent ticket must not double-release
    assert controller.inflight == 0
    assert controller.admit("a")  # exactly one slot exists again


def test_parse_quota_specs():
    quotas = parse_quota_specs(["alice=5", "bob=2.5:10"])
    assert quotas == {"alice": (5.0, 5.0), "bob": (2.5, 10.0)}
    assert parse_quota_specs(["slow=0.5"]) == {"slow": (0.5, 1.0)}
    with pytest.raises(SpecificationError):
        parse_quota_specs(["no-equals"])
    with pytest.raises(SpecificationError):
        parse_quota_specs(["t=fast"])


# -- the socket server ---------------------------------------------------------


@pytest.fixture
def catalog(tmp_path):
    CatalogStore.build(tmp_path / "cat", TABLES, **OPTS)
    return tmp_path / "cat"


def _ask(address, requests):
    """One connection, many requests; returns the raw response lines."""
    with socket.create_connection(address, timeout=10) as conn:
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        writer = conn.makefile("w", encoding="utf-8", newline="\n")
        lines = []
        for request in requests:
            writer.write(json.dumps(request) + "\n")
            writer.flush()
            lines.append(reader.readline())
        return lines


def _start(service, **kwargs):
    server = SocketQueryServer(service, **kwargs)
    server.start()
    return server


def test_socket_roundtrip_matches_stdin_bytes(catalog):
    service = QueryService(catalog, cache_size=8)
    server = _start(service)
    try:
        request = {"op": "keyword", "text": "alpha", "k": 3}
        (line,) = _ask(server.address, [request])
        over_socket = json.loads(line)
        direct = handle_request(service, request)
        assert json.dumps(over_socket, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )
        assert over_socket["ok"] and over_socket["results"]
    finally:
        server.stop()


def test_socket_serves_concurrent_clients(catalog):
    service = QueryService(catalog, cache_size=32)
    server = _start(service)
    results = []
    errors = []

    def client(index):
        try:
            request = {"op": "keyword", "text": "alpha", "k": 3}
            (line,) = _ask(server.address, [request])
            results.append(json.loads(line))
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    try:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 8 and all(r["ok"] for r in results)
        # All clients saw one identical answer (one generation, one query).
        rendered = {json.dumps(r, sort_keys=True) for r in results}
        assert len(rendered) == 1
        assert server.connections_accepted == 8
    finally:
        server.stop()


def test_bad_json_is_answered_in_band(catalog):
    service = QueryService(catalog)
    server = _start(service)
    try:
        with socket.create_connection(server.address, timeout=10) as conn:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            writer = conn.makefile("w", encoding="utf-8", newline="\n")
            writer.write("this is not json\n")
            writer.flush()
            response = json.loads(reader.readline())
            assert not response["ok"] and "error" in response
            # The connection survived the bad line.
            writer.write(json.dumps({"op": "ping"}) + "\n")
            writer.flush()
            assert json.loads(reader.readline())["ok"]
    finally:
        server.stop()


def test_stop_op_closes_only_its_connection(catalog):
    service = QueryService(catalog)
    server = _start(service)
    try:
        lines = _ask(server.address, [{"op": "stop"}])
        assert json.loads(lines[0])["ok"]
        # The server still accepts new connections afterwards.
        (line,) = _ask(server.address, [{"op": "ping"}])
        assert json.loads(line)["ok"]
    finally:
        server.stop()


def test_quota_shed_responses_are_structured(catalog):
    service = QueryService(catalog, cache_size=8)
    admission = AdmissionController(quotas={"noisy": (0.001, 1.0)})
    server = _start(service, admission=admission)
    try:
        request = {"op": "keyword", "text": "alpha", "tenant": "noisy"}
        lines = _ask(server.address, [request, request])
        first, second = (json.loads(line) for line in lines)
        assert first["ok"]
        assert not second["ok"] and second["error"] == "overloaded"
        assert second["reason"] == "quota" and second["tenant"] == "noisy"
        assert second["retry_after_ms"] >= 1
        ledger = admission.ledger()["noisy"]
        assert ledger == {
            "received": 2,
            "admitted": 1,
            "rejected_quota": 1,
            "rejected_inflight": 0,
        }
    finally:
        server.stop()


def test_ping_and_stats_bypass_admission(catalog):
    service = QueryService(catalog)
    admission = AdmissionController(quotas={DEFAULT_TENANT: (0.001, 1.0)})
    server = _start(service, admission=admission)
    try:
        query = {"op": "keyword", "text": "alpha"}
        lines = _ask(
            server.address, [query, query, {"op": "ping"}, {"op": "stats"}]
        )
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["ok"] and not parsed[1]["ok"]  # quota bit
        assert parsed[2]["ok"] and parsed[3]["ok"]  # health always answers
        assert admission.stats()["totals"]["received"] == 2  # ungated uncounted
    finally:
        server.stop()


def test_stats_op_composes_all_sections(catalog, tmp_path):
    from respdi.service import open_pcache

    service = QueryService(catalog, cache_size=8)
    pcache = open_pcache(catalog, directory=tmp_path / "pc")
    admission = AdmissionController(max_inflight=4)
    server = _start(service, admission=admission, pcache=pcache)
    try:
        query = {"op": "keyword", "text": "alpha", "tenant": "alice"}
        lines = _ask(server.address, [query, query, {"op": "stats"}])
        stats = json.loads(lines[2])["stats"]
        assert stats["server"]["requests_served"] >= 2
        assert stats["admission"]["tenants"]["alice"]["admitted"] == 2
        assert stats["pcache"]["stores"] == 1  # miss then persistent hit
        assert stats["pcache"]["hits"] == 1
        assert stats["latency"]["kind.keyword"]["count"] == 2
        assert stats["latency"]["tenant.alice"]["p99"] >= 0.0
        assert stats["hits"] + stats["misses"] == stats["lookups"]
    finally:
        server.stop()


def test_max_requests_latches_shutdown(catalog):
    service = QueryService(catalog)
    server = _start(service, max_requests=2)
    try:
        _ask(server.address, [{"op": "ping"}, {"op": "ping"}])
        assert server.wait(timeout=5.0)  # the latch tripped
    finally:
        server.stop()
    assert server.requests_served == 2


def test_finished_handlers_are_dropped_and_live_ones_joined(catalog):
    server = _start(QueryService(catalog))
    try:
        for _ in range(50):
            (line,) = _ask(server.address, [{"op": "ping"}])
            assert json.loads(line)["ok"]
        # Each client closed its socket, so its handler saw EOF and left.
        deadline = time.monotonic() + 10
        while server._handlers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.connections_accepted == 50
        assert server._handlers == []

        with socket.create_connection(server.address, timeout=10) as conn:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            conn.sendall(b'{"op": "ping"}\n')
            assert json.loads(reader.readline())["ok"]
            (live,) = server._handlers
            server.stop()
            assert not live.is_alive()  # stop() joined the live handler
            assert server._handlers == []
    finally:
        server.stop()


def test_idle_connection_is_closed_and_its_handler_leaves(catalog, monkeypatch):
    monkeypatch.setattr(netserver, "IDLE_TIMEOUT_S", 0.2)
    server = _start(QueryService(catalog))
    try:
        with socket.create_connection(server.address, timeout=10) as silent:
            # The server closes the silent connection: the read sees EOF.
            assert silent.recv(1) == b""
            deadline = time.monotonic() + 10
            while server._handlers and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._handlers == []

        # A client that speaks more often than the timeout stays served.
        with socket.create_connection(server.address, timeout=10) as conn:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            stop = time.monotonic() + 1.0
            pings = 0
            while time.monotonic() < stop:
                conn.sendall(b'{"op": "ping"}\n')
                assert json.loads(reader.readline())["ok"]
                pings += 1
                time.sleep(0.05)
            assert pings >= 5  # served across five timeouts' worth of time
            assert len(server._handlers) == 1
    finally:
        server.stop()
    assert server.connections_accepted == 2


def test_cli_serve_over_socket(catalog):
    # The CLI path: --port 0 binds an ephemeral port and serves until
    # max-requests; drive it from a thread like an external client would.
    from respdi.catalog.cli import main

    import re
    import sys
    import threading as _threading

    class _Stderr:
        def __init__(self):
            self.lines = []
            self.event = _threading.Event()

        def write(self, text):
            self.lines.append(text)
            if "serving on" in text:
                self.event.set()

        def flush(self):
            pass

    captured = _Stderr()
    original = sys.stderr
    sys.stderr = captured
    exit_codes = []
    try:
        runner = _threading.Thread(
            target=lambda: exit_codes.append(
                main(["serve", str(catalog), "--port", "0",
                      "--max-requests", "1"])
            ),
            daemon=True,
        )
        runner.start()
        assert captured.event.wait(timeout=10)
        match = re.search(
            r"serving on ([\d.]+):(\d+)", "".join(captured.lines)
        )
        assert match
        (line,) = _ask((match.group(1), int(match.group(2))), [{"op": "ping"}])
        assert json.loads(line)["ok"]
        runner.join(timeout=10)
        assert not runner.is_alive()
    finally:
        sys.stderr = original
    assert exit_codes == [0]
