"""Deterministic scheduler tests for :mod:`repro.service.qos`.

Scheduling bugs are timing bugs, so every test here runs sleep-free on
an injected fake clock:

* WDRR fairness — two backlogged tenants at weights 2:1 split dispatch
  within ±10% over 1k synthetic requests (exactly 2:1, in fact);
* starvation-freedom — a flooded tenant pushes an under-quota tenant
  back by at most one round (≤ one daemon batch);
* token-bucket refill edge cases — burst at start, drain to empty,
  fractional refill, and the zero-rate kill switch;
* admission bookkeeping — per-tenant queue bounds, rejection reasons,
  tenant-specific retry hints, stats truthfulness;
* hypothesis properties — for random weight vectors and arrival
  orders, dispatch is FIFO within every tenant and
  ``dispatched == admitted`` (no drops, no dupes).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.service.qos import (
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMITED,
    QosRejection,
    TenantQuota,
    TokenBucket,
    WeightedDeficitRoundRobin,
)

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_scheduler(quotas=None, **kwargs):
    clock = kwargs.pop("clock", FakeClock())
    scheduler = WeightedDeficitRoundRobin(
        quotas, clock=clock,
        default_max_queue=kwargs.pop("default_max_queue", 10_000), **kwargs)
    return scheduler, clock


def drain(scheduler, limit=None):
    items = []
    while limit is None or len(items) < limit:
        item = scheduler.take()
        if item is None:
            break
        items.append(item)
    return items


# -- quota validation ---------------------------------------------------------


def test_quota_validation():
    with pytest.raises(ValidationError, match="weight"):
        TenantQuota(weight=0)
    with pytest.raises(ValidationError, match="weight"):
        TenantQuota(weight=-2.0)
    with pytest.raises(ValidationError):
        TenantQuota(max_queue=0)
    with pytest.raises(ValidationError, match="rate_limit_qps"):
        TenantQuota(rate_limit_qps=-1)
    TenantQuota(rate_limit_qps=0)  # the kill switch is a valid quota


def test_quota_manifest_round_trip():
    assert TenantQuota().to_manifest() == {}
    quota = TenantQuota(weight=2.5, max_queue=4, rate_limit_qps=0.5)
    assert TenantQuota.from_manifest(quota.to_manifest()) == quota
    assert TenantQuota.from_manifest(None) == TenantQuota()
    with pytest.raises(ValidationError, match="unknown"):
        TenantQuota.from_manifest({"weigth": 2})
    with pytest.raises(ValidationError, match="object"):
        TenantQuota.from_manifest([1, 2])


# -- WDRR fairness ------------------------------------------------------------


def test_wdrr_two_to_one_shares_over_1k_requests():
    """Weights 2:1, both saturated: dispatch shares within ±10%."""
    scheduler, _ = make_scheduler({"hot": TenantQuota(weight=2.0),
                                   "cold": TenantQuota(weight=1.0)})
    for i in range(1000):
        scheduler.admit("hot", ("hot", i))
        scheduler.admit("cold", ("cold", i))
    window = drain(scheduler, limit=900)
    shares = Counter(tenant for tenant, _ in window)
    assert shares["hot"] + shares["cold"] == 900
    assert shares["hot"] / 900 == pytest.approx(2 / 3, abs=0.10 * 2 / 3)
    assert shares["cold"] / 900 == pytest.approx(1 / 3, abs=0.10 / 3)
    # Within each tenant, strictly FIFO.
    for tenant in ("hot", "cold"):
        sequence = [i for name, i in window if name == tenant]
        assert sequence == sorted(sequence)


def test_wdrr_fractional_weights():
    scheduler, _ = make_scheduler({"a": TenantQuota(weight=1.5),
                                   "b": TenantQuota(weight=0.5)})
    for i in range(600):
        scheduler.admit("a", ("a", i))
        scheduler.admit("b", ("b", i))
    shares = Counter(t for t, _ in drain(scheduler, limit=400))
    assert shares["a"] / 400 == pytest.approx(0.75, abs=0.05)


def test_wdrr_flooded_tenant_cannot_starve_cold_tenant():
    """A cold request lands within one round of a hot flood.

    The daemon's collector redeems one ``take()`` per admitted request
    up to ``max_batch`` per batch; bounding the cold request's
    dispatch *position* therefore bounds its delay to at most one
    batch whenever the bound fits in a batch.
    """
    scheduler, _ = make_scheduler({"hot": TenantQuota(weight=4.0),
                                   "cold": TenantQuota(weight=1.0)})
    for i in range(500):
        scheduler.admit("hot", ("hot", i))
    # Pre-spin the round so the hot tenant sits mid-burst with banked
    # deficit — the worst case for a newly active tenant.
    burned = drain(scheduler, limit=3)
    assert all(tenant == "hot" for tenant, _ in burned)
    scheduler.admit("cold", ("cold", 0))
    upcoming = drain(scheduler, limit=10)
    # Worst case: the hot tenant finishes its banked burst (< 2 rounds
    # of weight-4 deficit) before the round reaches the cold tenant.
    position = upcoming.index(("cold", 0))
    assert position <= 2 * 4  # 2 rounds * weight 4
    # And from a standing start the cold tenant is served immediately
    # after at most one hot burst per round thereafter.
    shares = Counter(t for t, _ in upcoming)
    assert shares["cold"] == 1


def test_wdrr_idle_tenant_banks_no_priority():
    """A tenant that drains to empty forfeits its deficit."""
    scheduler, _ = make_scheduler({"a": TenantQuota(weight=8.0),
                                   "b": TenantQuota(weight=1.0)})
    scheduler.admit("a", ("a", 0))
    assert drain(scheduler) == [("a", 0)]
    # "a" went idle; its banked weight-8 deficit must not let it jump
    # a later backlog ahead of schedule.
    for i in range(10):
        scheduler.admit("b", ("b", i))
    scheduler.admit("a", ("a", 1))
    first_b = drain(scheduler, limit=1)
    assert first_b == [("b", 0)]  # FIFO round order, no banked jump


def test_wdrr_single_tenant_degenerates_to_fifo():
    scheduler, _ = make_scheduler({"only": TenantQuota(weight=0.25)})
    for i in range(50):
        scheduler.admit("only", i)
    assert drain(scheduler) == list(range(50))
    assert scheduler.take() is None
    assert len(scheduler) == 0


def test_wdrr_lazy_tenant_uses_default_quota():
    scheduler, _ = make_scheduler(default_max_queue=2)
    scheduler.admit("surprise", 1)
    scheduler.admit("surprise", 2)
    with pytest.raises(QosRejection) as excinfo:
        scheduler.admit("surprise", 3)
    assert excinfo.value.reason == REJECT_QUEUE_FULL
    assert scheduler.stats()["per_tenant"]["surprise"]["max_queue"] == 2


# -- admission bounds and retry hints ----------------------------------------


def test_per_tenant_queue_bounds_are_independent():
    scheduler, _ = make_scheduler(
        {"small": TenantQuota(max_queue=2), "big": TenantQuota(max_queue=8)})
    for i in range(2):
        scheduler.admit("small", i)
    for i in range(8):
        scheduler.admit("big", i)
    with pytest.raises(QosRejection):
        scheduler.admit("small", 99)
    stats = scheduler.stats()
    assert stats["per_tenant"]["small"]["rejected"] == 1
    assert stats["per_tenant"]["big"]["rejected"] == 0
    assert stats["queued"] == 10


def test_queue_full_retry_hint_scales_with_backlog_over_weight():
    scheduler, _ = make_scheduler(
        {"heavy": TenantQuota(weight=4.0, max_queue=8),
         "light": TenantQuota(weight=1.0, max_queue=8)},
        base_retry_ms=50.0)
    for i in range(8):
        scheduler.admit("heavy", i)
        scheduler.admit("light", i)
    with pytest.raises(QosRejection) as heavy:
        scheduler.admit("heavy", 99)
    with pytest.raises(QosRejection) as light:
        scheduler.admit("light", 99)
    assert heavy.value.retry_after_ms == pytest.approx(50.0 * 8 / 4)
    assert light.value.retry_after_ms == pytest.approx(50.0 * 8 / 1)
    assert light.value.retry_after_ms > heavy.value.retry_after_ms


def test_rate_limited_retry_hint_is_refill_time():
    clock = FakeClock()
    scheduler, _ = make_scheduler(
        {"limited": TenantQuota(rate_limit_qps=2.0)}, clock=clock)
    scheduler.admit("limited", 1)
    scheduler.admit("limited", 2)  # burst capacity max(1, 2) = 2
    with pytest.raises(QosRejection) as excinfo:
        scheduler.admit("limited", 3)
    assert excinfo.value.reason == REJECT_RATE_LIMITED
    assert excinfo.value.retry_after_ms == pytest.approx(500.0)
    clock.advance(0.5)  # one token refills
    scheduler.admit("limited", 3)
    assert scheduler.stats()["per_tenant"]["limited"]["rejected"] == 1
    assert scheduler.stats()["per_tenant"][
        "limited"]["rejected_rate_limited"] == 1


# -- token bucket -------------------------------------------------------------


def test_token_bucket_burst_then_drain():
    clock = FakeClock()
    bucket = TokenBucket(5.0, clock=clock)
    assert bucket.capacity == 5.0
    taken = sum(bucket.try_take() for _ in range(10))
    assert taken == 5  # full burst, then dry
    assert bucket.retry_after_s() == pytest.approx(0.2)


def test_token_bucket_refill_is_linear_and_capped():
    clock = FakeClock()
    bucket = TokenBucket(10.0, capacity=3.0, clock=clock)
    for _ in range(3):
        assert bucket.try_take()
    assert not bucket.try_take()
    clock.advance(0.05)  # half a token: still dry
    assert not bucket.try_take()
    clock.advance(0.05)
    assert bucket.try_take()
    clock.advance(1000.0)  # refill caps at capacity, no banking
    assert bucket.tokens == pytest.approx(3.0)


def test_token_bucket_sub_1qps_rate_still_accumulates_a_token():
    clock = FakeClock()
    bucket = TokenBucket(0.5, clock=clock)  # capacity floors at 1.0
    assert bucket.try_take()
    assert not bucket.try_take()
    clock.advance(2.0)
    assert bucket.try_take()


def test_token_bucket_zero_rate_is_a_kill_switch():
    clock = FakeClock()
    bucket = TokenBucket(0.0, clock=clock)
    assert not bucket.try_take()
    clock.advance(1e9)
    assert not bucket.try_take()
    assert bucket.retry_after_s() is None  # no finite hint exists
    scheduler, _ = make_scheduler(
        {"dead": TenantQuota(rate_limit_qps=0)}, clock=clock)
    with pytest.raises(QosRejection) as excinfo:
        scheduler.admit("dead", 1)
    assert excinfo.value.retry_after_ms is None


def test_token_bucket_validation():
    with pytest.raises(ValidationError):
        TokenBucket(-1.0)
    with pytest.raises(ValidationError):
        TokenBucket(1.0, capacity=-1.0)


# -- stats --------------------------------------------------------------------


def test_stats_totals_and_latency_block():
    scheduler, _ = make_scheduler({"a": TenantQuota(weight=2.0)})
    for i in range(4):
        scheduler.admit("a", i)
    drain(scheduler, limit=3)
    scheduler.record_latency("a", 0.010)
    scheduler.record_latency("a", 0.030)
    stats = scheduler.stats()
    assert stats["admitted"] == 4
    assert stats["dispatched"] == 3
    assert stats["queued"] == 1
    block = stats["per_tenant"]["a"]
    assert block["queued"] == 1
    assert block["latency"]["count"] == 2
    assert block["latency"]["p50_ms"] == pytest.approx(20.0)
    assert {"p95_ms", "p99_ms", "mean_ms", "max_ms"} <= set(block["latency"])


def test_duplicate_tenant_registration_rejected():
    scheduler, _ = make_scheduler({"a": TenantQuota()})
    with pytest.raises(ValidationError, match="already"):
        scheduler.add_tenant("a")


# -- hypothesis properties ----------------------------------------------------


@st.composite
def schedules(draw):
    """Random weights plus a random arrival order over those tenants."""
    n_tenants = draw(st.integers(1, 5))
    weights = [draw(st.floats(0.1, 8.0, allow_nan=False)) for _ in
               range(n_tenants)]
    arrivals = draw(st.lists(st.integers(0, n_tenants - 1), min_size=1,
                             max_size=120))
    return weights, arrivals


@SETTINGS
@given(schedule=schedules())
def test_wdrr_fifo_within_tenant_for_any_arrival_order(schedule):
    """WDRR never reorders two requests of the same tenant."""
    weights, arrivals = schedule
    quotas = {t: TenantQuota(weight=w) for t, w in enumerate(weights)}
    scheduler, _ = make_scheduler(quotas)
    sequence_in = defaultdict(list)
    for position, tenant in enumerate(arrivals):
        scheduler.admit(tenant, (tenant, position))
        sequence_in[tenant].append(position)
    dispatched = drain(scheduler)
    sequence_out = defaultdict(list)
    for tenant, position in dispatched:
        sequence_out[tenant].append(position)
    for tenant, positions in sequence_out.items():
        assert positions == sequence_in[tenant]


@SETTINGS
@given(schedule=schedules(), interleave=st.integers(1, 7))
def test_wdrr_conserves_requests(schedule, interleave):
    """Total dispatched == total admitted: no drops, no dupes — even
    when takes interleave with admissions mid-backlog."""
    weights, arrivals = schedule
    quotas = {t: TenantQuota(weight=w) for t, w in enumerate(weights)}
    scheduler, _ = make_scheduler(quotas)
    dispatched = []
    for position, tenant in enumerate(arrivals):
        scheduler.admit(tenant, (tenant, position))
        if position % interleave == 0:
            item = scheduler.take()
            if item is not None:
                dispatched.append(item)
    dispatched += drain(scheduler)
    assert len(dispatched) == len(arrivals)
    assert len(set(dispatched)) == len(arrivals)  # no dupes
    stats = scheduler.stats()
    assert stats["admitted"] == len(arrivals)
    assert stats["dispatched"] == len(arrivals)
    assert stats["queued"] == 0 and len(scheduler) == 0
