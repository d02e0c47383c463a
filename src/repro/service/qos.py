"""Tenant-aware admission control: per-tenant queues under WDRR dispatch.

The registry (PR 8) shares one worker fleet and one matrix plane across
tenants, but the daemon's admission control was still a single bounded
queue — a zipf-hot tenant could fill it and starve every cold tenant.
This module is the scheduling layer that closes that gap:

* :class:`TenantQuota` — the per-tenant knobs (``weight``,
  ``max_queue``, optional ``rate_limit_qps``), persisted in the
  ``registry.json`` manifest (format v2) and set via
  ``repro registry add --weight/--max-queue/--rate-limit``.
* :class:`TokenBucket` — a classic token bucket for the optional
  per-tenant rate limit: capacity-bounded burst, linear refill,
  ``rate_limit_qps=0`` as an explicit kill switch.
* :class:`WeightedDeficitRoundRobin` — per-tenant FIFO queues drained
  in deficit-round-robin order: each round a tenant banks
  ``weight * quantum`` deficit and dispatches one queued request per
  unit of deficit, so long-run dispatch shares converge to the weight
  ratio while every backlogged tenant is visited every round —
  a flooded tenant can push an under-quota tenant back by at most one
  round, never starve it.

Scheduling bugs are timing bugs, so everything here is deterministic
and sleep-free by construction: both the bucket and the scheduler take
an injectable ``clock`` callable (defaulting to
:func:`time.monotonic`), and no method blocks — ``admit`` either
enqueues or raises :class:`QosRejection`, ``take`` either returns the
next request or ``None``.  ``tests/test_qos.py`` drives fairness,
starvation-freedom and refill edge cases entirely on a fake clock.

The daemon (:mod:`repro.service.server`, ``repro serve --qos``) admits
into this scheduler instead of its single queue and lets the existing
micro-batch collector pull requests in WDRR order; batches may mix
tenants up to ``max_batch`` and dispatch still groups by dataset.
These classes are not thread-safe — the daemon drives them from one
event loop, and the tests drive them synchronously.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from repro.exceptions import ValidationError
from repro.service.workload import latency_summary
from repro.utils.validation import check_positive_int

#: ``QosRejection.reason`` when the tenant's queue is at ``max_queue``.
REJECT_QUEUE_FULL = "queue_full"

#: ``QosRejection.reason`` when the tenant's token bucket is empty.
REJECT_RATE_LIMITED = "rate_limited"


@dataclass(frozen=True)
class TenantQuota:
    """Admission-control knobs of one tenant.

    The default quota (weight 1, no explicit queue bound, no rate
    limit) is what every manifest-v1 tenant loads with — QoS is purely
    additive over PR 8 registries.

    Attributes
    ----------
    weight:
        Relative dispatch share under WDRR; a weight-2 tenant drains
        twice as fast as a weight-1 tenant when both are backlogged.
        Must be positive (fractional weights are fine).
    max_queue:
        This tenant's own admission bound.  ``None`` inherits the
        scheduler's default (the daemon passes its global
        ``max_queue``), so single-tenant behaviour is unchanged.
    rate_limit_qps:
        Optional token-bucket rate limit on *admissions* per second.
        ``None`` disables the bucket; ``0`` rejects everything — an
        explicit kill switch for a misbehaving tenant.
    """

    weight: float = 1.0
    max_queue: int | None = None
    rate_limit_qps: float | None = None

    def __post_init__(self):
        """Validate the weight, queue bound and rate limit."""
        if not isinstance(self.weight, (int, float)) \
                or isinstance(self.weight, bool) or self.weight <= 0:
            raise ValidationError(
                f"weight must be a positive number, got {self.weight!r}")
        if self.max_queue is not None:
            check_positive_int(self.max_queue, "max_queue")
        if self.rate_limit_qps is not None and (
                not isinstance(self.rate_limit_qps, (int, float))
                or isinstance(self.rate_limit_qps, bool)
                or self.rate_limit_qps < 0):
            raise ValidationError(
                "rate_limit_qps must be a non-negative number, "
                f"got {self.rate_limit_qps!r}")

    def to_manifest(self) -> dict:
        """The manifest-v2 ``"qos"`` entry: non-default fields only."""
        entry: dict = {}
        if self.weight != 1.0:
            entry["weight"] = self.weight
        if self.max_queue is not None:
            entry["max_queue"] = self.max_queue
        if self.rate_limit_qps is not None:
            entry["rate_limit_qps"] = self.rate_limit_qps
        return entry

    @classmethod
    def from_manifest(cls, payload: object) -> "TenantQuota":
        """Build a quota from a manifest ``"qos"`` entry (or ``None``).

        Missing entries (every manifest-v1 tenant) yield the default
        quota; junk raises :class:`~repro.exceptions.ValidationError`
        so a hand-edited manifest fails loudly at load, not at serve.
        """
        if payload is None:
            return cls()
        if not isinstance(payload, dict):
            raise ValidationError(
                f"manifest 'qos' entry must be an object, got {payload!r}")
        unknown = set(payload) - {"weight", "max_queue", "rate_limit_qps"}
        if unknown:
            raise ValidationError(
                f"unknown manifest 'qos' fields: {sorted(unknown)}")
        return cls(weight=payload.get("weight", 1.0),
                   max_queue=payload.get("max_queue"),
                   rate_limit_qps=payload.get("rate_limit_qps"))


class TokenBucket:
    """A token bucket on an injectable clock.

    Starts full (burst up to *capacity* immediately), refills linearly
    at *rate_qps* tokens per second, never banks beyond *capacity*.
    With ``rate_qps == 0`` the capacity is zero: every ``try_take``
    fails, which is the kill-switch semantic of ``rate_limit_qps=0``.

    Parameters
    ----------
    rate_qps:
        Refill rate in tokens per second (``>= 0``).
    capacity:
        Burst bound.  Defaults to ``max(1, rate_qps)`` — one second of
        traffic, but never so small that a sub-1-qps rate can never
        accumulate a whole token.
    clock:
        Monotonic time source in seconds; injectable so refill is
        testable without sleeping.
    """

    def __init__(self, rate_qps: float, capacity: float | None = None, *,
                 clock: Callable[[], float] = time.monotonic):
        if rate_qps < 0:
            raise ValidationError("rate_qps must be non-negative")
        self.rate_qps = float(rate_qps)
        if capacity is None:
            capacity = max(1.0, self.rate_qps) if self.rate_qps > 0 else 0.0
        if capacity < 0:
            raise ValidationError("capacity must be non-negative")
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = self.capacity
        self._refilled_at = clock()

    def _refill(self) -> None:
        """Accrue tokens for the time elapsed since the last refill."""
        now = self._clock()
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        self._tokens = min(self.capacity,
                           self._tokens + elapsed * self.rate_qps)

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the clock)."""
        self._refill()
        return self._tokens

    def try_take(self, cost: float = 1.0) -> bool:
        """Spend *cost* tokens if available; never blocks."""
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    def retry_after_s(self, cost: float = 1.0) -> float | None:
        """Seconds until *cost* tokens accrue, or ``None`` if never.

        ``None`` (zero-rate bucket, or a cost above capacity) means the
        caller should fall back to its generic retry hint — no finite
        wait will make the take succeed.
        """
        self._refill()
        if self._tokens >= cost:
            return 0.0
        if self.rate_qps <= 0 or cost > self.capacity:
            return None
        return (cost - self._tokens) / self.rate_qps


class QosRejection(Exception):
    """An admission the scheduler refused, with its reason and hint.

    Attributes
    ----------
    tenant:
        The tenant key whose quota rejected the request.
    reason:
        :data:`REJECT_QUEUE_FULL` or :data:`REJECT_RATE_LIMITED`.
    retry_after_ms:
        Tenant-specific backoff hint: the token-refill time for rate
        rejections, the weighted backlog-drain estimate for full
        queues; ``None`` when no finite hint exists (zero-rate bucket).
    """

    def __init__(self, tenant: Hashable, reason: str, message: str, *,
                 retry_after_ms: float | None = None):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.retry_after_ms = retry_after_ms


class _TenantState:
    """One tenant's queue, deficit, bucket and counters."""

    __slots__ = ("quota", "max_queue", "queue", "deficit", "bucket",
                 "admitted", "rejected_queue", "rejected_rate",
                 "dispatched", "latencies")

    def __init__(self, quota: TenantQuota, default_max_queue: int,
                 clock: Callable[[], float]):
        self.quota = quota
        self.max_queue = (quota.max_queue if quota.max_queue is not None
                          else default_max_queue)
        self.queue: deque = deque()
        self.deficit = 0.0
        self.bucket = (None if quota.rate_limit_qps is None
                       else TokenBucket(quota.rate_limit_qps, clock=clock))
        self.admitted = 0
        self.rejected_queue = 0
        self.rejected_rate = 0
        self.dispatched = 0
        self.latencies: list[float] = []


class WeightedDeficitRoundRobin:
    """WDRR dispatch over per-tenant FIFO queues.

    ``admit(tenant, item)`` enqueues under the tenant's quota (or
    raises :class:`QosRejection`); ``take()`` pops the next item in
    deficit-round-robin order.  Within a tenant, dispatch order is
    strictly FIFO; across tenants, long-run shares converge to the
    weight ratio, and every backlogged tenant is served at least once
    per round — the starvation-freedom bound each daemon batch
    inherits.

    Tenants unknown at construction (registered after the daemon
    started) are created lazily with *default_quota* on first admit,
    so the scheduler never drops a routed request on the floor.

    Parameters
    ----------
    quotas:
        Initial per-tenant quotas (the registry's manifest view).
    default_quota:
        Quota for tenants admitted without an explicit entry.
    default_max_queue:
        Queue bound for quotas whose ``max_queue`` is ``None`` — the
        daemon passes its global ``max_queue`` so a one-tenant QoS
        daemon rejects exactly like a non-QoS one.
    quantum:
        Deficit banked per unit weight per round.  ``1.0`` (the
        default) dispatches ``weight`` requests per backlogged tenant
        per round; there is no reason to change it unless request
        costs stop being uniform.
    base_retry_ms:
        Scale of the queue-full ``retry_after_ms`` hint (the daemon
        passes its configured ``retry_after_ms``).  The hint grows
        with the tenant's backlog and shrinks with its weight:
        ``base * queued / weight``.
    clock:
        Monotonic time source shared with every tenant bucket;
        injectable so the whole scheduler is testable without sleeps.
    """

    def __init__(self, quotas: Mapping[Hashable, TenantQuota] | None = None,
                 *, default_quota: TenantQuota | None = None,
                 default_max_queue: int = 64, quantum: float = 1.0,
                 base_retry_ms: float = 50.0,
                 clock: Callable[[], float] = time.monotonic):
        if quantum <= 0:
            raise ValidationError("quantum must be positive")
        if base_retry_ms < 0:
            raise ValidationError("base_retry_ms must be non-negative")
        self.quantum = float(quantum)
        self.base_retry_ms = float(base_retry_ms)
        self.default_quota = default_quota or TenantQuota()
        self.default_max_queue = check_positive_int(default_max_queue,
                                                    "default_max_queue")
        self._clock = clock
        self._tenants: dict[Hashable, _TenantState] = {}
        #: Round-robin order over backlogged tenants only.
        self._active: deque = deque()
        self._queued = 0
        for tenant, quota in (quotas or {}).items():
            self.add_tenant(tenant, quota)

    # -- tenant management -----------------------------------------------------

    def add_tenant(self, tenant: Hashable,
                   quota: TenantQuota | None = None) -> None:
        """Register *tenant* with *quota* (default quota when ``None``).

        Idempotent only for unknown tenants: re-adding an existing
        tenant raises, so a quota can never change under a backlog.
        """
        if tenant in self._tenants:
            raise ValidationError(f"tenant {tenant!r} already scheduled")
        self._tenants[tenant] = _TenantState(
            quota or self.default_quota, self.default_max_queue, self._clock)

    def _state(self, tenant: Hashable) -> _TenantState:
        """The (lazily created) state block for *tenant*."""
        state = self._tenants.get(tenant)
        if state is None:
            self.add_tenant(tenant)
            state = self._tenants[tenant]
        return state

    # -- admission -------------------------------------------------------------

    def admit(self, tenant: Hashable, item: object) -> None:
        """Enqueue *item* for *tenant* or raise :class:`QosRejection`.

        The rate limit is checked before the queue bound — a
        rate-limited request never consumes queue capacity — and both
        rejections carry a tenant-specific ``retry_after_ms``.
        """
        state = self._state(tenant)
        if state.bucket is not None and not state.bucket.try_take():
            state.rejected_rate += 1
            retry_s = state.bucket.retry_after_s()
            raise QosRejection(
                tenant, REJECT_RATE_LIMITED,
                f"tenant {tenant!r} exceeded its rate limit "
                f"({state.quota.rate_limit_qps} qps)",
                retry_after_ms=(None if retry_s is None else retry_s * 1e3))
        if len(state.queue) >= state.max_queue:
            state.rejected_queue += 1
            raise QosRejection(
                tenant, REJECT_QUEUE_FULL,
                f"tenant {tenant!r} queue full ({state.max_queue}); "
                "retry after the advertised delay",
                retry_after_ms=self.base_retry_ms * len(state.queue)
                / state.quota.weight)
        if not state.queue:
            self._active.append(tenant)
        state.queue.append(item)
        state.admitted += 1
        self._queued += 1

    # -- dispatch --------------------------------------------------------------

    def take(self):
        """Pop the next item in WDRR order, or ``None`` when empty.

        The front-of-round tenant dispatches while it has deficit;
        when its deficit runs out it moves to the back of the round
        and banks ``weight * quantum`` more.  A tenant whose queue
        empties leaves the round and forfeits its remaining deficit
        (standard DRR — idle tenants cannot bank priority).
        """
        while self._active:
            tenant = self._active[0]
            state = self._tenants[tenant]
            if state.deficit >= 1.0:
                state.deficit -= 1.0
                item = state.queue.popleft()
                state.dispatched += 1
                self._queued -= 1
                if not state.queue:
                    self._active.popleft()
                    state.deficit = 0.0
                return item
            self._active.rotate(-1)
            state.deficit += state.quota.weight * self.quantum
        return None

    def __len__(self) -> int:
        return self._queued

    def queued(self, tenant: Hashable) -> int:
        """How many of *tenant*'s requests are waiting for dispatch."""
        state = self._tenants.get(tenant)
        return 0 if state is None else len(state.queue)

    # -- observability ---------------------------------------------------------

    def record_latency(self, tenant: Hashable, seconds: float) -> None:
        """Sample one dispatch-to-answer latency for *tenant*.

        The daemon calls this when a dispatched request's results come
        back, anchoring per-tenant p50/p95/p99 on the same
        admission-to-response window as the global ``server.latency``
        block.  Samples are trimmed FIFO beyond 65536 per tenant.
        """
        state = self._state(tenant)
        state.latencies.append(seconds)
        if len(state.latencies) > 65536:
            del state.latencies[:32768]

    def stats(self) -> dict:
        """JSON-ready scheduler snapshot.

        Totals (``queued`` / ``admitted`` / ``rejected`` /
        ``dispatched``) plus a ``per_tenant`` map of quota knobs, the
        live ``queued`` / ``deficit``, admission counters split by
        rejection reason, and the per-tenant latency percentile block
        (:func:`~repro.service.workload.latency_summary`).  Drift-gated
        against ``docs/serving.md`` by ``tests/test_docs.py``.
        """
        per_tenant = {}
        admitted = rejected = dispatched = 0
        for tenant in sorted(self._tenants, key=str):
            state = self._tenants[tenant]
            admitted += state.admitted
            rejected += state.rejected_queue + state.rejected_rate
            dispatched += state.dispatched
            per_tenant[tenant] = {
                "weight": state.quota.weight,
                "max_queue": state.max_queue,
                "rate_limit_qps": state.quota.rate_limit_qps,
                "queued": len(state.queue),
                "deficit": state.deficit,
                "admitted": state.admitted,
                "rejected": state.rejected_queue + state.rejected_rate,
                "rejected_rate_limited": state.rejected_rate,
                "dispatched": state.dispatched,
                "latency": latency_summary(state.latencies),
            }
        return {
            "quantum": self.quantum,
            "queued": self._queued,
            "admitted": admitted,
            "rejected": rejected,
            "dispatched": dispatched,
            "per_tenant": per_tenant,
        }


__all__ = [
    "REJECT_QUEUE_FULL",
    "REJECT_RATE_LIMITED",
    "TenantQuota",
    "TokenBucket",
    "QosRejection",
    "WeightedDeficitRoundRobin",
]
