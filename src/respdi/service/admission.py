"""Admission control for the serve path: quotas and backpressure.

A serve loop that accepts every request collapses under overload — the
irresponsible failure mode for infrastructure meant to face millions of
users: *every* tenant's latency explodes because *one* tenant misbehaves.
This module makes overload a structured, per-tenant outcome instead:

* :class:`TokenBucket` — the classic rate limiter: a bucket holding up
  to ``burst`` tokens, refilled continuously at ``rate`` tokens/second.
  A request takes one token or is told exactly how long until one
  exists (``retry_after``), so clients can back off precisely instead
  of hammering.
* :class:`AdmissionController` — per-tenant buckets plus one global
  bounded **inflight gate**: even fully within-quota traffic is capped
  at ``max_inflight`` concurrently executing requests, so a burst of
  expensive queries degrades into fast, honest rejections rather than
  an unbounded thread pile-up.  Rejected requests get
  ``{"error": "overloaded", "retry_after_ms": ...}`` — load *shedding*,
  not load collapsing.

Each decision is counted once, as ``serve.<outcome>`` and
``serve.tenant.<name>.<outcome>``, in the controller's always-on
:class:`~respdi.obs.ComponentRegistry`.  ``received`` is derived as the
sum of the outcomes, so the invariant the stress suite enforces per
tenant and globally, ``admitted + rejected == received``, holds by
construction, whatever the interleaving.

Time is injectable (``clock=``) so quota behavior is deterministic
under test; production uses ``time.monotonic``.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from respdi import obs
from respdi.errors import SpecificationError

#: Tenant name used when a request carries no ``tenant`` field.
DEFAULT_TENANT = "default"


class TokenBucket:
    """A continuously-refilled token bucket (thread-safe).

    Holds at most *burst* tokens, gaining *rate* per second.  ``rate``
    may be ``None`` for an unlimited bucket (always admits) — the
    default tenant policy unless the operator configures quotas.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise SpecificationError("token bucket rate must be > 0 (or None)")
        if burst < 1:
            raise SpecificationError("token bucket burst must be >= 1")
        self.rate = float(rate) if rate is not None else None
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_take(self) -> Tuple[bool, float]:
        """Take one token if available.

        Returns ``(True, 0.0)`` on success, else ``(False, seconds)``
        where *seconds* is the exact wait until one token will exist —
        the honest ``retry_after`` a shed response carries.
        """
        if self.rate is None:
            return True, 0.0
        now = self._clock()
        with self._lock:
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current token count (refilled to now) — introspection only."""
        if self.rate is None:
            return math.inf
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class Admission:
    """The outcome of one admission decision.

    Truthy iff admitted.  An admitted ticket is a context manager that
    releases its inflight slot on exit — the handler wraps the whole
    request in ``with ticket:`` so slots can never leak, even when the
    query raises.
    """

    __slots__ = ("admitted", "tenant", "reason", "retry_after", "_release")

    def __init__(
        self,
        admitted: bool,
        tenant: str,
        reason: Optional[str] = None,
        retry_after: float = 0.0,
        release: Optional[Callable[[], None]] = None,
    ) -> None:
        self.admitted = admitted
        self.tenant = tenant
        self.reason = reason
        self.retry_after = retry_after
        self._release = release

    def __bool__(self) -> bool:
        return self.admitted

    @property
    def retry_after_ms(self) -> int:
        """``retry_after`` in whole milliseconds, never 0 for a rejection.

        A 0ms hint would tell clients "retry immediately" — exactly the
        stampede backpressure exists to prevent — so rejections round up
        to at least 1ms.
        """
        return max(1, math.ceil(self.retry_after * 1000.0))

    def rejection(self) -> Dict[str, Any]:
        """The structured shed response for a rejected request."""
        return {
            "ok": False,
            "error": "overloaded",
            "tenant": self.tenant,
            "reason": self.reason,
            "retry_after_ms": self.retry_after_ms,
        }

    def __enter__(self) -> "Admission":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._release is not None:
            self._release()
            self._release = None
        return False


class AdmissionController:
    """Per-tenant token buckets behind one bounded inflight gate.

    *quotas* maps tenant name to ``(rate, burst)``; tenants not listed
    get *default_rate*/*default_burst* (``default_rate=None`` means
    unlimited — only the inflight gate applies).  ``max_inflight``
    bounds concurrently admitted requests across **all** tenants; when
    full, within-quota requests are shed with ``reason="inflight"`` and
    a small constant retry hint (slots turn over at service rate, which
    the controller cannot predict per-request).
    """

    def __init__(
        self,
        max_inflight: int = 64,
        default_rate: Optional[float] = None,
        default_burst: float = 8.0,
        quotas: Optional[Dict[str, Tuple[Optional[float], float]]] = None,
        inflight_retry_after: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise SpecificationError("max_inflight must be >= 1")
        self.max_inflight = int(max_inflight)
        self.default_rate = default_rate
        self.default_burst = float(default_burst)
        self.inflight_retry_after = float(inflight_retry_after)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        for tenant, (rate, burst) in (quotas or {}).items():
            self._buckets[tenant] = TokenBucket(rate, burst, clock)
        self._inflight = 0
        self.peak_inflight = 0
        self.metrics = obs.ComponentRegistry()

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.default_rate, self.default_burst, self._clock
            )
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str = DEFAULT_TENANT) -> Admission:
        """Decide one request: quota first, then the inflight gate.

        Quota-before-gate means an over-quota tenant cannot consume
        inflight capacity at all — its rejections are pure bookkeeping,
        leaving the shared slots to tenants within their quotas.
        """
        with self._lock:
            bucket = self._bucket(tenant)
        admitted, retry_after = bucket.try_take()
        if not admitted:
            self._count(tenant, "rejected.quota")
            return Admission(
                False, tenant, reason="quota", retry_after=retry_after
            )
        with self._lock:
            full = self._inflight >= self.max_inflight
            if not full:
                self._inflight += 1
                self.peak_inflight = max(self.peak_inflight, self._inflight)
        if full:
            self._count(tenant, "rejected.inflight")
            return Admission(
                False,
                tenant,
                reason="inflight",
                retry_after=self.inflight_retry_after,
            )
        self._count(tenant, "admitted")
        return Admission(True, tenant, release=self._release)

    def _count(self, tenant: str, outcome: str) -> None:
        """Count one decision, in the totals and in *tenant*'s row."""
        self.metrics.inc(f"serve.{outcome}")
        self.metrics.inc(f"serve.tenant.{tenant}.{outcome}")

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _row(self, prefix: str) -> Dict[str, int]:
        """One ledger row from the counters named ``<prefix><outcome>``."""
        admitted, quota, inflight = (
            self.metrics.count(prefix + outcome)
            for outcome in ("admitted", "rejected.quota", "rejected.inflight")
        )
        return {
            "received": admitted + quota + inflight,
            "admitted": admitted,
            "rejected_quota": quota,
            "rejected_inflight": inflight,
        }

    def ledger(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant rows of every tenant that sent a gated request."""
        with self._lock:
            tenants = sorted(self._buckets)
        rows = {tenant: self._row(f"serve.tenant.{tenant}.") for tenant in tenants}
        return {tenant: row for tenant, row in rows.items() if row["received"]}

    def stats(self) -> Dict[str, Any]:
        return {
            "max_inflight": self.max_inflight,
            "inflight": self.inflight,
            "peak_inflight": self.peak_inflight,
            "totals": self._row("serve."),
            "tenants": self.ledger(),
        }


def parse_quota_specs(
    specs: List[str],
) -> Dict[str, Tuple[Optional[float], float]]:
    """Parse CLI ``TENANT=RATE[:BURST]`` specs into a quota mapping.

    ``RATE`` is requests/second; ``BURST`` defaults to ``max(1, RATE)``
    so a freshly-started tenant can spend about one second of its rate
    instantly.
    """
    quotas: Dict[str, Tuple[Optional[float], float]] = {}
    for spec in specs:
        tenant, sep, policy = spec.partition("=")
        if not sep or not tenant:
            raise SpecificationError(
                f"quota spec {spec!r} is not TENANT=RATE[:BURST]"
            )
        rate_part, _, burst_part = policy.partition(":")
        try:
            rate = float(rate_part)
            burst = float(burst_part) if burst_part else max(1.0, rate)
        except ValueError:
            raise SpecificationError(
                f"quota spec {spec!r} has a non-numeric rate or burst"
            ) from None
        quotas[tenant] = (rate, burst)
    return quotas

