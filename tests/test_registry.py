"""Multi-tenant :class:`~repro.service.registry.IndexRegistry` tests.

Covers the registry PR's acceptance criteria:

* evict -> fault-back bit-identity — a tenant bounced through the cold
  tier answers exactly like an always-hot replica, across all six
  objectives, both dtypes, and the serial vs process executors;
* no cross-tenant aliasing — two tenants with identically-shaped rungs
  return different answers (cache keys open with ``(dataset_id,
  epoch)``);
* hot/cold tiering counters — ``stats()["tenants"]`` counts faults,
  evictions and residency truthfully across transitions;
* per-tenant refresh is epoch-safe under concurrent cross-tenant load
  and epochs stay monotonic across eviction;
* manifest round-trip — ``save_manifest`` / ``from_directory`` rebuild
  an answer-identical registry; malformed manifests are rejected;
* leak-free lifecycle — a process-executor registry publishes zero
  shared-memory segments after ``close()``, and a worker killed under
  the shared fleet is replaced for every tenant.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.metricspace.points import PointSet
from repro.service import (
    MANIFEST_NAME,
    DiversityService,
    IndexRegistry,
    Query,
    UnknownDatasetError,
    build_coreset_index,
    load_index,
    save_index,
)
from repro.service.registry import MAX_RESIDENT_ENV_VAR

#: Three tenants with identically-shaped datasets (different contents).
TENANT_SEEDS = {"eu": 3, "us": 4, "apac": 5}

OBJECTIVES = ("remote-edge", "remote-clique", "remote-star", "remote-tree",
              "remote-cycle", "remote-bipartition")


def _points(seed: int, n: int = 140) -> PointSet:
    rng = np.random.default_rng(seed)
    return PointSet(rng.normal(size=(n, 3)))


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


def result_key(result) -> tuple:
    return (result.value, tuple(result.indices), result.rung)


@pytest.fixture(scope="module")
def indexes():
    return {name: build_coreset_index(_points(seed), 5, seed=0)
            for name, seed in TENANT_SEEDS.items()}


# -- evict -> fault-back bit-identity -----------------------------------------


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("dtype", [None, "float32"])
def test_evict_fault_back_bit_identity(indexes, tmp_path, executor, dtype):
    """Tiered answers == always-hot answers, all objectives x dtypes."""
    paths = {}
    for name in ("eu", "us"):
        base = tmp_path / name
        save_index(indexes[name], base)
        paths[name] = base
    queries = [Query(objective, 4, 1.0) for objective in OBJECTIVES]
    expected = {}
    for name in ("eu", "us"):
        with DiversityService(load_index(paths[name], dtype=dtype),
                              cache_size=64) as oracle:
            expected[name] = [result_key(r)
                              for r in oracle.query_batch(queries)]
    with IndexRegistry(max_resident=1, executor=executor,
                       executor_workers=2) as registry:
        for name in ("eu", "us"):
            registry.register(name, path=paths[name], dtype=dtype)
        for _ in range(2):  # round 2 re-faults previously evicted tenants
            for name in ("eu", "us"):
                got = [result_key(r)
                       for r in registry.query_batch(queries, name)]
                assert got == expected[name]
        tenants = registry.stats()["tenants"]
        # max_resident=1 with alternating tenants: every visit after the
        # first of each tenant is a fault, every fault evicts the other.
        assert tenants["per_tenant"]["eu"]["faults"] == 2
        assert tenants["per_tenant"]["us"]["faults"] == 2
        assert tenants["evictions"] == 3
        assert tenants["resident"] == 1
        # The query path never rebuilds core-sets.
        with registry.attach("eu") as service:
            assert service.stats()["counters"]["build_calls"] == 0


# -- cross-tenant isolation ---------------------------------------------------


def test_same_shape_tenants_do_not_alias(indexes):
    """Identically-shaped rungs under one shared plane never collide."""
    with IndexRegistry() as registry:
        registry.register("eu", indexes["eu"])
        registry.register("us", indexes["us"])
        first = {name: registry.query(name, "remote-edge", 4)
                 for name in ("eu", "us")}
        assert first["eu"].value != first["us"].value
        # Both rung matrices live in the ONE shared cache, keyed apart
        # by their (dataset_id, epoch, ...) prefix.
        keys = list(registry._matrices._entries)
        assert {key[0] for key in keys} == {"eu", "us"}
        assert all(key[1] == 0 for key in keys)
        # Replays hit each tenant's own result cache, never the other's.
        for name in ("eu", "us"):
            again = registry.query(name, "remote-edge", 4)
            assert again.cached
            assert again.value == first[name].value


# -- tiering counters ---------------------------------------------------------


def test_stats_counts_residency_faults_and_hits(indexes):
    with IndexRegistry(max_resident=1) as registry:
        registry.register("eu", indexes["eu"])
        registry.register("us", indexes["us"])  # evicts "eu" (LRU)
        registry.query("eu", "remote-edge", 4)  # faults eu, evicts us
        registry.query("eu", "remote-edge", 4)  # result-cache hit
        registry.query("us", "remote-edge", 4)  # faults us, evicts eu
        stats = registry.stats()
        tenants = stats["tenants"]
        assert tenants["registered"] == 2
        assert tenants["resident"] == 1
        assert tenants["max_resident"] == 1
        per = tenants["per_tenant"]
        assert set(per) == {"eu", "us"}
        assert per["us"]["resident"] and not per["eu"]["resident"]
        assert per["us"]["resident_bytes"] > 0
        assert per["eu"]["resident_bytes"] == 0
        assert per["eu"]["hits"] == 1  # folded in at eviction time
        assert per["eu"]["faults"] == 1 and per["eu"]["evictions"] == 2
        assert per["us"]["faults"] == 1 and per["us"]["evictions"] == 1
        assert tenants["faults"] == 2 and tenants["evictions"] == 3
        for block in per.values():
            assert set(block) == {"resident", "hits", "faults", "evictions",
                                  "resident_bytes", "epoch", "dtype", "quota"}
            assert set(block["quota"]) == {"weight", "max_queue",
                                           "rate_limit_qps"}
            assert block["quota"]["weight"] == 1.0  # default quota
        assert stats["matrices"]["local"]["cached"] >= 1
        assert stats["executors"]["default"] == "serial"


def test_max_resident_env_fallback(monkeypatch):
    monkeypatch.setenv(MAX_RESIDENT_ENV_VAR, "2")
    with IndexRegistry() as registry:
        assert registry.max_resident == 2
    for junk in ("nope", "0", "-3"):
        monkeypatch.setenv(MAX_RESIDENT_ENV_VAR, junk)
        with IndexRegistry() as registry:
            assert registry.max_resident is None


# -- refresh ------------------------------------------------------------------


def test_refresh_is_tenant_scoped_and_epoch_monotonic(indexes):
    extra = _points(31, n=60)
    with IndexRegistry(max_resident=1) as registry:
        registry.register("eu", indexes["eu"])
        registry.register("us", indexes["us"])
        before_us = registry.query("us", "remote-edge", 4)
        assert registry.refresh("eu", extra) == ("eu", 1)
        after_eu = registry.query("eu", "remote-edge", 4)
        assert after_eu.epoch == 1
        # The other tenant is untouched: same epoch, same answer.
        again_us = registry.query("us", "remote-edge", 4)
        assert again_us.epoch == 0
        assert again_us.value == before_us.value
        # Bounce "eu" through the cold tier: the replayed epoch stays 1
        # and the refreshed answer survives the spill bit-exactly.
        back = registry.query("eu", "remote-edge", 4)
        assert registry.stats()["tenants"]["per_tenant"]["eu"]["faults"] > 0
        assert back.epoch == 1
        assert result_key(back) == result_key(after_eu)
    with DiversityService(indexes["eu"], cache_size=64) as oracle:
        oracle.refresh(extra)
        assert result_key(oracle.query("remote-edge", 4)) == result_key(back)


def test_refresh_under_concurrent_cross_tenant_load(indexes):
    with IndexRegistry() as registry:
        registry.register("eu", indexes["eu"])
        registry.register("us", indexes["us"])
        expected = result_key(registry.query("us", "remote-edge", 4))
        stop = threading.Event()
        mismatches: list = []

        def hammer():
            while not stop.is_set():
                got = registry.query("us", "remote-edge", 4)
                if result_key(got) != expected or got.epoch != 0:
                    mismatches.append(got)  # pragma: no cover - failure

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for round_number in range(1, 4):
                _, epoch = registry.refresh("eu", _points(40 + round_number,
                                                          n=50))
                assert epoch == round_number
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not mismatches
        assert registry.query("eu", "remote-edge", 4).epoch == 3


# -- membership + validation --------------------------------------------------


def test_membership_and_validation(indexes):
    registry = IndexRegistry()
    registry.register("eu", indexes["eu"])
    with pytest.raises(ValidationError, match="already registered"):
        registry.register("eu", indexes["eu"])
    with pytest.raises(UnknownDatasetError, match="serving: eu"):
        registry.query("nope", "remote-edge", 3)
    assert registry.resolve(None) == "eu"  # sole tenant is the default
    registry.register("us", indexes["us"])
    with pytest.raises(ValidationError, match="must name"):
        registry.resolve(None)
    with registry.attach("eu"):
        with pytest.raises(ValidationError, match="attached"):
            registry.detach("eu")
    registry.detach("eu")
    assert registry.list() == ["us"]
    with pytest.raises(ValidationError, match="exactly one"):
        registry.register("x")
    with pytest.raises(ValidationError, match="k_max"):
        registry.register("x", points=_points(1))
    registry.close()
    registry.close()  # idempotent
    with pytest.raises(ValidationError, match="closed"):
        registry.register("x", indexes["eu"])


def test_register_builds_from_points():
    with IndexRegistry() as registry:
        registry.register("built", points=_points(9, n=80), k_max=4, seed=0)
        result = registry.query("built", "remote-clique", 3)
        assert result.k == 3 and result.value > 0


# -- manifest persistence -----------------------------------------------------


def test_manifest_round_trip(indexes, tmp_path):
    external = tmp_path / "elsewhere" / "us"
    external.parent.mkdir()
    save_index(indexes["us"], external)
    fleet = tmp_path / "fleet"
    with IndexRegistry() as registry:
        registry.register("eu", indexes["eu"])  # in-memory, never spilled
        registry.register("us", path=external, dtype="float32")
        expected = {name: result_key(registry.query(name, "remote-clique", 4))
                    for name in ("eu", "us")}
        manifest = registry.save_manifest(fleet)
    payload = json.loads(manifest.read_text())
    assert payload["format_version"] == 2
    entries = {entry["dataset_id"]: entry for entry in payload["tenants"]}
    assert set(entries) == {"eu", "us"}
    assert entries["us"]["dtype"] == "float32"
    with IndexRegistry.from_directory(fleet) as reloaded:
        assert reloaded.list() == ["eu", "us"]
        for name, key in expected.items():
            assert result_key(reloaded.query(name, "remote-clique", 4)) == key


def test_manifest_v2_quota_round_trip(indexes, tmp_path):
    """Manifest v2 persists per-tenant QoS quotas; defaults stay terse."""
    from repro.service.qos import TenantQuota

    fleet = tmp_path / "fleet"
    with IndexRegistry() as registry:
        registry.register("hot", indexes["eu"],
                          quota=TenantQuota(weight=3.0, max_queue=8,
                                            rate_limit_qps=50.0))
        registry.register("cold", indexes["us"])  # default quota
        registry.save_manifest(fleet)
    payload = json.loads((fleet / MANIFEST_NAME).read_text())
    entries = {entry["dataset_id"]: entry for entry in payload["tenants"]}
    assert entries["hot"]["qos"] == {"weight": 3.0, "max_queue": 8,
                                     "rate_limit_qps": 50.0}
    assert "qos" not in entries["cold"]  # defaults are not spelled out
    with IndexRegistry.from_directory(fleet) as reloaded:
        quotas = reloaded.quotas()
        assert quotas["hot"] == TenantQuota(weight=3.0, max_queue=8,
                                            rate_limit_qps=50.0)
        assert quotas["cold"] == TenantQuota()
        per = reloaded.stats()["tenants"]["per_tenant"]
        assert per["hot"]["quota"] == {"weight": 3.0, "max_queue": 8,
                                       "rate_limit_qps": 50.0}


def test_manifest_v1_loads_with_default_quotas(indexes, tmp_path):
    """A PR-8 (format v1) manifest still loads; every quota defaults."""
    from repro.service.qos import TenantQuota

    fleet = tmp_path / "fleet"
    with IndexRegistry() as registry:
        registry.register("eu", indexes["eu"])
        registry.save_manifest(fleet)
    manifest = fleet / MANIFEST_NAME
    payload = json.loads(manifest.read_text())
    payload["format_version"] = 1  # rewrite as the previous format
    manifest.write_text(json.dumps(payload))
    with IndexRegistry.from_directory(fleet) as reloaded:
        assert reloaded.quotas() == {"eu": TenantQuota()}


def test_manifest_rejects_malformed_qos_block(indexes, tmp_path):
    fleet = tmp_path / "fleet"
    with IndexRegistry() as registry:
        registry.register("eu", indexes["eu"])
        registry.save_manifest(fleet)
    manifest = fleet / MANIFEST_NAME
    payload = json.loads(manifest.read_text())
    payload["tenants"][0]["qos"] = {"weight": -1}
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="qos"):
        IndexRegistry.from_directory(fleet)
    payload["tenants"][0]["qos"] = {"wieght": 2}
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="unknown"):
        IndexRegistry.from_directory(fleet)


def test_from_directory_rejects_bad_manifests(tmp_path):
    with pytest.raises(ValidationError, match="not a registry"):
        IndexRegistry.from_directory(tmp_path)
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text("{nope")
    with pytest.raises(ValidationError, match="malformed"):
        IndexRegistry.from_directory(tmp_path)
    manifest.write_text(json.dumps({"format_version": 99, "tenants": []}))
    with pytest.raises(ValidationError, match="format_version"):
        IndexRegistry.from_directory(tmp_path)
    manifest.write_text(json.dumps({"format_version": 1,
                                    "tenants": [{"index": "orphan"}]}))
    with pytest.raises(ValidationError, match="malformed tenant"):
        IndexRegistry.from_directory(tmp_path)


# -- lifecycle ----------------------------------------------------------------


def test_process_registry_leaves_no_segments(indexes):
    registry = IndexRegistry(executor="process", executor_workers=2)
    try:
        registry.register("eu", indexes["eu"])
        registry.register("us", indexes["us"])
        queries = [Query("remote-edge", 4), Query("remote-clique", 4)]
        for name in ("eu", "us"):
            registry.query_batch(queries, name)
        names = set(registry.segment_names())
        assert names, "process batches must publish shared segments"
        assert names <= _shm_segments()
    finally:
        registry.close()
    assert registry.segment_names() == []
    assert names & _shm_segments() == set()


def test_process_fleet_heals_for_every_tenant(indexes):
    # Every tenant rides one worker fleet, so one dead worker must not
    # take the fleet down for any of them.
    queries = [Query(objective, 4) for objective in OBJECTIVES]
    expected = {}
    for name in ("eu", "us"):
        with DiversityService(indexes[name]) as oracle:
            expected[name] = [result_key(r)
                              for r in oracle.query_batch(queries)]
    with IndexRegistry(executor="process", executor_workers=2) as registry:
        for name in ("eu", "us"):
            registry.register(name, indexes[name])
        registry.query_batch([Query("remote-edge", 3)], "eu")  # fleet up
        pool = registry._pool.get("process")._pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        for name in ("eu", "us"):
            got = [result_key(r) for r in registry.query_batch(queries, name)]
            assert got == expected[name]
        assert registry._pool.get("process")._pool is not pool
