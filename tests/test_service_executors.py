"""Tests for the two query backends, ``serial`` and ``thread``.

* serial vs thread determinism — answers are bit-identical (rung,
  indices and ``value.hex()``) over all six objectives, both dtypes, and
  before and after a refresh;
* the backend names — ``executor="process"`` (or any unknown name) is
  rejected at every entry point, the CLI included, naming both backends;
* the thread backend's pool — sized by the call's fan-out, gone when the
  call returns, and inherited by a registry's tenants;
* epsilon-aware result reuse (``eps_hits``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.datasets.synthetic import sphere_shell
from repro.diversity.objectives import get_objective, list_objectives
from repro.diversity.sequential.registry import solve_on_matrix
from repro.exceptions import ValidationError
from repro.service import (
    DiversityService,
    IndexRegistry,
    Query,
    build_coreset_index,
    make_workload,
    save_index,
)


@pytest.fixture(scope="module")
def dataset():
    return sphere_shell(1600, 8, dim=3, seed=7)


@pytest.fixture(scope="module")
def index(dataset):
    return build_coreset_index(dataset, k_max=8, k_min=4, parallelism=4,
                               seed=0)


def _answers(results) -> list[tuple]:
    """Everything that must not differ between backends, bit for bit."""
    return [(r.objective, r.k, r.rung, tuple(int(i) for i in r.indices),
             r.value.hex(), r.epoch) for r in results]


# -- cross-executor determinism ----------------------------------------------

class TestCrossExecutorDeterminism:
    def _workload(self):
        # Every objective at two k values, plus a mixed randomized tail
        # with in-batch repeats.
        explicit = [Query(name, k)
                    for name in list_objectives() for k in (3, 6)]
        return explicit + explicit[:4] + list(make_workload(8, 10, seed=11))

    def test_serial_thread_identical(self, index):
        workload = self._workload()
        serial = DiversityService(index).query_batch(workload)
        thread = DiversityService(index).query_concurrent(workload,
                                                          max_workers=4)
        batch = DiversityService(index).query_batch(workload,
                                                    executor="thread")
        for results in (thread, batch):
            assert _answers(results) == _answers(serial)
            for ours, reference in zip(results, serial):
                assert np.array_equal(ours.points, reference.points)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_objective_both_dtypes_across_a_refresh(self, dataset,
                                                          index, dtype):
        # No other test runs a float32 index through threads.  Each
        # service answers on epoch 0, absorbs the same points, then
        # answers again cold on epoch 1.
        workload = [Query(name, k, epsilon)
                    for name in list_objectives() for k in (3, 5, 8)
                    for epsilon in (1.0, 0.3)]
        more = sphere_shell(500, 8, dim=3, seed=19)
        rounds = {}
        for executor in ("serial", "thread"):
            service = DiversityService(index.astype(dtype),
                                       executor=executor, executor_workers=2,
                                       cache_size=256)
            before = service.query_batch(workload)
            service.refresh(more)
            rounds[executor] = (before, service.query_batch(workload))
        for serial, thread in zip(rounds["serial"], rounds["thread"]):
            assert _answers(thread) == _answers(serial)
        before, after = rounds["serial"]
        assert {r.epoch for r in before} == {0}
        assert {r.epoch for r in after} == {1}
        assert all(r.points.dtype == np.dtype(dtype) for r in after)

    def test_empty_batch_on_every_executor(self, index):
        assert DiversityService(index).query_batch([]) == []
        assert DiversityService(index,
                                executor="thread").query_batch([]) == []
        assert DiversityService(index).query_concurrent([]) == []

    def test_mixed_eps_workload_identical_across_executors(self, index):
        # A tight-eps and a loose-eps request for the same (objective, k)
        # in ONE batch: epsilon reuse resolves against the batch-start
        # cache only, so the loose query must solve its own rung on both
        # backends — never reuse the tight answer solved mid-batch, which
        # would make results depend on solve order and thread timing.
        workload = [Query("remote-clique", 4, 0.2),
                    Query("remote-clique", 4, 1.0),
                    Query("remote-edge", 4, 0.2),
                    Query("remote-edge", 4, 1.0)]
        serial = DiversityService(index).query_batch(workload)
        assert serial[0].rung != serial[1].rung  # distinct rungs solved
        service = DiversityService(index)
        results = service.query_concurrent(workload, max_workers=2,
                                           executor="thread")
        assert _answers(results) == _answers(serial)
        assert service.stats()["counters"]["eps_hits"] == 0


# -- backend names ------------------------------------------------------------

class TestExecutorNames:
    BOTH = "serial, thread"

    @pytest.mark.parametrize("name", ["process", "mapreduce"])
    def test_service_rejects_unknown_default(self, index, name):
        with pytest.raises(ValidationError, match=self.BOTH):
            DiversityService(index, executor=name)

    @pytest.mark.parametrize("name", ["process", "fork"])
    @pytest.mark.parametrize("entry", ["query_batch", "query_concurrent"])
    def test_entry_points_reject_unknown_executor(self, index, entry, name):
        service = DiversityService(index)
        with pytest.raises(ValidationError, match=self.BOTH):
            getattr(service, entry)([Query("remote-edge", 4)],
                                    executor=name)
        # Rejected before routing: nothing was counted.
        assert service.stats()["counters"]["routing_decisions"] == 0

    def test_registry_rejects_process(self):
        with pytest.raises(ValidationError, match=self.BOTH):
            IndexRegistry(executor="process")

    def test_serve_rejects_process(self, index, tmp_path, capsys):
        save_index(index, tmp_path / "idx")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", "--index", str(tmp_path / "idx"),
                      "--executor", "process"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err


# -- the thread backend's pool ------------------------------------------------

def _pool_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-query")]


class TestThreadBackend:
    QUERIES = [Query(name, k) for name in ("remote-edge", "remote-clique")
               for k in (3, 4, 6)]

    @pytest.mark.parametrize("entry", ["query_batch", "query_concurrent"])
    def test_pool_never_exceeds_the_calls_fan_out(self, index, monkeypatch,
                                                  entry):
        # query_batch fans out to the service's executor_workers,
        # query_concurrent to its own max_workers: a fan-out of one runs
        # every query on one pool thread.
        names = set()
        original = DiversityService._answer_one

        def recorded(*args, **kwargs):
            names.add(threading.current_thread().name)
            return original(*args, **kwargs)

        monkeypatch.setattr(DiversityService, "_answer_one", recorded)
        if entry == "query_batch":
            results = DiversityService(index, executor="thread",
                                       executor_workers=1,
                                       ).query_batch(self.QUERIES)
        else:
            results = DiversityService(index, executor="thread",
                                       executor_workers=4,
                                       ).query_concurrent(self.QUERIES,
                                                          max_workers=1)
        assert len(names) == 1
        assert next(iter(names)).startswith("repro-query")
        serial = DiversityService(index).query_batch(self.QUERIES)
        assert _answers(results) == _answers(serial)

    def test_pool_lives_for_one_call(self, index):
        service = DiversityService(index, executor="thread",
                                   executor_workers=2)
        service.query_batch(self.QUERIES)
        assert _pool_threads() == []
        service.query_concurrent(self.QUERIES, max_workers=2)
        assert _pool_threads() == []
        service.close()
        assert service.query("remote-edge", 4).cached  # still usable

    @pytest.mark.parametrize("workers", [0, True, 2.0])
    def test_rejects_a_bad_fan_out(self, index, workers):
        with pytest.raises(ValidationError, match="executor_workers"):
            DiversityService(index, executor_workers=workers)
        with pytest.raises(ValidationError, match="executor_workers"):
            IndexRegistry(executor_workers=workers)

    def test_stats_report_the_default_backend(self, index):
        service = DiversityService(index, executor="thread",
                                   executor_workers=3)
        service.query_batch(self.QUERIES)
        stats = service.stats()
        assert stats["executors"] == {"default": "thread", "workers": 3}
        assert stats["counters"]["batches_answered"] == 1
        assert stats["counters"]["concurrent_batches"] == 0

    def test_registry_tenants_inherit_the_backend(self, index):
        with IndexRegistry(executor="thread",
                           executor_workers=3) as registry:
            registry.register("eu", index)
            expected = {"default": "thread", "workers": 3}
            assert registry.stats()["executors"] == expected
            with registry.attach("eu") as service:
                assert service.stats()["executors"] == expected
            results = registry.query_batch(self.QUERIES, "eu")
        serial = DiversityService(index).query_batch(self.QUERIES)
        assert _answers(results) == _answers(serial)


# -- epsilon-aware result reuse -----------------------------------------------

class TestEpsilonAwareReuse:
    def test_tight_answer_serves_loose_query(self, index):
        service = DiversityService(index)
        tight = service.query("remote-edge", 4, epsilon=0.2)
        loose_rung = index.route("remote-edge", 4, 1.0)
        assert tight.rung != loose_rung.key, \
            "test needs eps to route to different rungs"
        loose = service.query("remote-edge", 4, epsilon=1.0)
        assert loose.cached and loose.solve_seconds == 0.0
        assert loose.value == tight.value
        assert loose.rung == tight.rung  # served from the larger rung
        assert loose.epsilon == 1.0  # caller's own slack echoed back
        stats = service.stats()
        assert stats["counters"]["eps_hits"] == 1
        # Accounting: both queries counted exactly one hit or miss.
        assert stats["caches"]["results"]["hits"] + stats["caches"]["results"]["misses"] == 2

    def test_reused_answer_matches_direct_computation(self, index):
        service = DiversityService(index)
        objective = get_objective("remote-clique")
        tight = service.query(objective.name, 4, epsilon=0.2)
        loose = service.query(objective.name, 4, epsilon=1.0)
        assert service.stats()["counters"]["eps_hits"] == 1
        rung = next(r for r in index.all_rungs() if r.key == tight.rung)
        dist = rung.coreset.pairwise()
        indices = solve_on_matrix(dist, 4, objective)
        value = float(objective.value(dist[np.ix_(indices, indices)]))
        assert loose.value == value
        assert np.array_equal(loose.indices, indices)

    def test_loose_answer_never_serves_tight_query(self, index):
        service = DiversityService(index)
        loose = service.query("remote-edge", 4, epsilon=1.0)
        tight = service.query("remote-edge", 4, epsilon=0.2)
        assert not tight.cached
        assert tight.rung != loose.rung
        assert service.stats()["counters"]["eps_hits"] == 0

    def test_thread_backend_reuses_tighter_answers(self, index):
        with DiversityService(index, executor="thread",
                              executor_workers=2) as service:
            tight = service.query("remote-edge", 4, epsilon=0.2)
            loose = service.query("remote-edge", 4, epsilon=1.0)
            assert loose.cached and loose.value == tight.value
            assert service.stats()["counters"]["eps_hits"] == 1
