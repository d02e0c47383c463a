"""Tests for the pluggable executor layer and the shared-memory data plane.

Covers the process-parallel acceptance criteria of the executor PR:

* cross-executor determinism — serial vs thread vs process answers are
  bit-identical over all six objectives for the same seeds;
* zero builds and exactly-once matrix fills **across processes** (the
  cross-process single-flight over flagged shared segments);
* leak-free lifecycle — ``/dev/shm`` holds zero extra segments after
  ``DiversityService.close()``, including across an epoch'd refresh;
* resource-tracker accounting — a subprocess-run service produces no
  tracker warnings (spawn workers must not double-register segments);
* the ``repro.shm`` primitives and the ``SharedMatrixCache`` budget /
  pinning / oversize semantics;
* epsilon-aware result reuse (``eps_hits``).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro import shm
from repro.datasets.synthetic import sphere_shell
from repro.diversity.objectives import get_objective, list_objectives
from repro.diversity.sequential.registry import solve_on_matrix
from repro.exceptions import ValidationError
from repro.service import (
    DiversityService,
    Query,
    SharedMatrixCache,
    build_coreset_index,
    make_workload,
)


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture(scope="module")
def dataset():
    return sphere_shell(1600, 8, dim=3, seed=7)


@pytest.fixture(scope="module")
def index(dataset):
    return build_coreset_index(dataset, k_max=8, k_min=4, parallelism=4,
                               seed=0)


@pytest.fixture(scope="module")
def process_service(index):
    """One shared process-backend service (2 spawn workers) per module."""
    service = DiversityService(index, executor="process", executor_workers=2)
    yield service
    service.close()


# -- repro.shm primitives -----------------------------------------------------

class TestSharedNDArray:
    def test_publish_resolve_roundtrip_and_unlink(self):
        data = np.arange(12.0).reshape(3, 4)
        owner = shm.SharedNDArray.publish(data)
        assert np.array_equal(owner.ref.resolve(), data)
        assert owner.nbytes == data.nbytes
        name = owner.ref.name
        assert name in _shm_segments()
        owner.close()
        owner.close()  # idempotent
        assert name not in _shm_segments()
        shm.close_attachments()

    def test_flagged_segment_fill_once(self):
        owner = shm.SharedNDArray((2, 2), np.float64, flagged=True)
        try:
            lock = threading.Lock()
            calls = []

            def compute():
                calls.append(1)
                return np.full((2, 2), 7.0)

            first, computed_first = shm.fill_once(owner.ref, lock, compute)
            again, computed_again = shm.fill_once(owner.ref, lock, compute)
            assert computed_first and not computed_again
            assert len(calls) == 1
            assert np.array_equal(first, np.full((2, 2), 7.0))
            assert np.array_equal(again, first)
        finally:
            owner.close()
            shm.close_attachments()

    def test_unflagged_ref_rejects_flag_access(self):
        owner = shm.SharedNDArray.publish(np.zeros((2, 2)))
        try:
            with pytest.raises(ValueError):
                owner.ref.resolve_flag()
        finally:
            owner.close()

    def test_attachment_cache_evicts_beyond_limit(self):
        owners = [shm.SharedNDArray.publish(np.zeros((4,))) for _ in range(3)]
        try:
            shm.set_attachment_cache_limit(2)
            for owner in owners:
                owner.ref.resolve()
            assert len(shm._ATTACHED) == 2
            # The oldest attachment was evicted; re-resolving re-attaches.
            assert owners[0].ref.resolve() is not None
        finally:
            shm.set_attachment_cache_limit(1)
            shm.close_attachments()
            for owner in owners:
                owner.close()

    def test_dead_attachments_pruned_on_new_attach(self):
        # A publisher-side unlink must not stay pinned by this process's
        # attachment cache once a new segment comes along (the real-RAM
        # half of the matrix budget in process mode).
        first = shm.SharedNDArray.publish(np.zeros((4,)))
        second = shm.SharedNDArray.publish(np.zeros((4,)))
        try:
            shm.set_attachment_cache_limit(8)
            first.ref.resolve()
            name = first.ref.name
            assert name in shm._ATTACHED
            first.close()  # unlinked while still cached here
            assert name in shm._ATTACHED  # ...and still mapped
            second.ref.resolve()  # a new attach prunes the dead mapping
            assert name not in shm._ATTACHED
        finally:
            shm.set_attachment_cache_limit(1)
            shm.close_attachments()
            first.close()
            second.close()

    def test_finalizer_backstop_unlinks(self):
        owner = shm.SharedNDArray.publish(np.zeros((8, 8)))
        name = owner.ref.name
        assert name in _shm_segments()
        del owner
        import gc

        gc.collect()
        assert name not in _shm_segments()


# -- shared matrix cache ------------------------------------------------------

def _segment_bytes(n: int) -> int:
    return n * n * 8 + shm.FLAG_BYTES


class TestSharedMatrixCache:
    def test_lease_hit_miss_and_close(self):
        cache = SharedMatrixCache(budget_bytes=0)
        first = cache.lease("rung", 8)
        again = cache.lease("rung", 8)
        assert again.ref.name == first.ref.name
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert len(cache) == 1
        name = first.ref.name
        cache.release(first)
        cache.release(again)
        assert name in _shm_segments()  # resident entries persist
        cache.close()
        assert name not in _shm_segments()
        with pytest.raises(RuntimeError):
            cache.lease("rung", 8)

    def test_eviction_unlinks_and_recompute_registers(self):
        budget = 2 * _segment_bytes(16) + _segment_bytes(8)
        cache = SharedMatrixCache(budget_bytes=budget)
        names = {}
        for key in ("a", "b", "c"):
            lease = cache.lease(key, 16)
            names[key] = lease.ref.name
            cache.note_computed(key)
            cache.release(lease)
        assert cache.stats.evictions == 1
        assert names["a"] not in _shm_segments()  # LRU victim unlinked
        assert names["b"] in _shm_segments()
        assert cache.nbytes <= budget
        # Re-leasing the evicted key allocates a fresh segment; its fill
        # registers as a recompute (the budget-pressure signal).
        release = cache.lease("a", 16)
        assert release.ref.name != names["a"]
        cache.note_computed("a")
        assert cache.stats.recomputes == 1
        cache.release(release)
        cache.close()

    def test_pinned_entries_survive_eviction_pressure(self):
        budget = _segment_bytes(16)  # room for one matrix
        cache = SharedMatrixCache(budget_bytes=budget)
        pinned = cache.lease("a", 16)
        other = cache.lease("b", 16)  # overflows, but "a" is pinned
        assert pinned.ref.name in _shm_segments()
        assert other.ref.name in _shm_segments()
        cache.release(other)
        # Releasing re-shrinks: the unpinned LRU entry goes first.
        assert cache.nbytes <= budget or len(cache) == 1
        assert pinned.ref.name in _shm_segments()
        cache.release(pinned)
        cache.close()
        assert pinned.ref.name not in _shm_segments()

    def test_oversize_never_resident(self):
        budget = _segment_bytes(4)
        cache = SharedMatrixCache(budget_bytes=budget)
        lease = cache.lease("big", 64)
        shared = cache.lease("big", 64)  # concurrent holder shares it
        assert shared.ref.name == lease.ref.name
        assert len(cache) == 0 and cache.nbytes == 0
        assert lease.ref.name in _shm_segments()
        cache.release(lease)
        assert lease.ref.name in _shm_segments()  # still pinned once
        cache.release(shared)
        assert lease.ref.name not in _shm_segments()  # last release unlinks
        cache.close()

    def test_successor_inherits_budget_and_stats(self):
        cache = SharedMatrixCache(budget_bytes=2 * _segment_bytes(8))
        lease = cache.lease("a", 8)
        cache.note_computed("a")
        cache.release(lease)
        fresh = cache.successor()
        assert fresh.budget_bytes == cache.budget_bytes
        assert fresh.stats.computes == 1
        assert len(fresh) == 0
        cache.close()
        fresh.close()


# -- cross-executor determinism ----------------------------------------------

class TestCrossExecutorDeterminism:
    def _workload(self):
        # Every objective at two k values, plus a mixed randomized tail
        # with in-batch repeats.
        explicit = [Query(name, k)
                    for name in list_objectives() for k in (3, 6)]
        return explicit + explicit[:4] + list(make_workload(8, 10, seed=11))

    def test_serial_thread_process_identical(self, index, process_service):
        workload = self._workload()
        serial = DiversityService(index).query_batch(workload)
        thread = DiversityService(index).query_concurrent(workload,
                                                          max_workers=4)
        process = process_service.query_batch(workload)
        for label, results in (("thread", thread), ("process", process)):
            assert len(results) == len(serial)
            for ours, reference in zip(results, serial):
                assert ours.value == reference.value, label
                assert ours.rung == reference.rung, label
                assert np.array_equal(ours.indices, reference.indices), label
                assert np.array_equal(ours.points, reference.points), label
        # query_batch parity extends to the cached flags, not just values.
        assert [r.cached for r in process] == [r.cached for r in serial]

    def test_process_zero_builds_and_exactly_once_matrices(self, index,
                                                           process_service):
        # Run the workload ourselves (don't rely on test order): repeats
        # of already-cached queries add hits but no computes, so the
        # exactly-once assertion holds standalone and after prior tests.
        process_service.query_batch(self._workload())
        stats = process_service.stats()
        assert stats["counters"]["build_calls"] == 0
        shared = stats["matrices"]["shared"]
        assert shared is not None
        distinct_rungs = len({index.route(q.objective, q.k).key
                              for q in self._workload()})
        assert shared["computes"] == distinct_rungs
        assert shared["recomputes"] == 0
        # Driver-side (serial/thread) matrices were never touched by the
        # process batches.
        assert stats["caches"]["results"]["hits"] + stats["caches"]["results"]["misses"] \
            == stats["counters"]["queries_answered"]

    def test_query_concurrent_process_executor(self, index, process_service):
        workload = make_workload(8, 12, seed=23)
        expected = DiversityService(index).query_batch(workload)
        results = process_service.query_concurrent(workload, max_workers=2,
                                                   executor="process")
        assert [(r.value, r.rung) for r in results] == \
            [(r.value, r.rung) for r in expected]

    def test_budgeted_process_service_identical(self, index):
        # A binding budget on the shared segments (small enough that the
        # largest rung matrix is oversize) forces evictions/recomputes
        # across batches; answers must not change.
        workload = self._workload()
        expected = DiversityService(index).query_batch(workload)
        with DiversityService(index, executor="process", executor_workers=2,
                              matrix_budget_mb=1) as service:
            first = service.query_batch(workload)
            service.cache.clear()  # force re-solves, not LRU replays
            second = service.query_batch(workload)
            for results in (first, second):
                for ours, reference in zip(results, expected):
                    assert ours.value == reference.value
                    assert np.array_equal(ours.indices, reference.indices)
            shared = service.stats()["matrices"]["shared"]
            assert shared["budget_bytes"] == 2**20
            assert shared["resident_bytes"] <= 2**20
            assert shared["recomputes"] > 0  # the budget really bound

    def test_rejects_unknown_executor(self, index):
        with pytest.raises(ValidationError):
            DiversityService(index, executor="mapreduce")
        with pytest.raises(ValidationError):
            DiversityService(index).query_batch([Query("remote-edge", 4)],
                                                executor="fork")

    def test_empty_batch_on_every_executor(self, index, process_service):
        assert DiversityService(index).query_batch([]) == []
        assert DiversityService(index,
                                executor="thread").query_batch([]) == []
        assert DiversityService(index).query_concurrent([]) == []
        assert process_service.query_batch([]) == []

    def test_mixed_eps_workload_identical_across_executors(self, index,
                                                           process_service):
        # A tight-eps and a loose-eps request for the same (objective, k)
        # in ONE batch: epsilon reuse resolves against the batch-start
        # cache only, so the loose query must solve its own rung in every
        # backend — never reuse the tight answer solved mid-batch, which
        # would make results depend on solve order and thread timing.
        workload = [Query("remote-clique", 4, 0.2),
                    Query("remote-clique", 4, 1.0),
                    Query("remote-edge", 4, 0.2),
                    Query("remote-edge", 4, 1.0)]
        serial = DiversityService(index).query_batch(workload)
        assert serial[0].rung != serial[1].rung  # distinct rungs solved
        for executor in ("thread", "process"):
            service = (process_service if executor == "process"
                       else DiversityService(index))
            results = service.query_concurrent(workload, max_workers=2,
                                               executor=executor)
            for ours, reference in zip(results, serial):
                assert ours.rung == reference.rung, executor
                assert ours.value == reference.value, executor
            if executor == "thread":
                assert service.stats()["counters"]["eps_hits"] == 0


# -- lifecycle: leaks, refresh epochs, tracker accounting ---------------------

class TestProcessLifecycle:
    def test_no_leaked_segments_after_close(self, index):
        # Assert on the service's own segment names rather than a raw
        # /dev/shm diff, which races against unrelated shm users (e.g. a
        # second pytest or a benchmark running beside the suite).  The
        # raw before/after count check lives in the isolated subprocess
        # test below.
        with DiversityService(index, executor="process",
                              executor_workers=2) as service:
            service.query_batch([Query("remote-edge", 4),
                                 Query("remote-clique", 4)])
            names = set(service._executor_obj("process").segment_names())
            assert len(names) == 4  # 2 rung core-sets + 2 matrices
            assert names <= _shm_segments()
        assert names & _shm_segments() == set()

    def test_refresh_swaps_epoch_planes(self, index):
        service = DiversityService(index, executor="process",
                                   executor_workers=2)
        try:
            old = service.query_batch([Query("remote-edge", 4)])
            backend = service._executor_obj("process")
            old_segments = set(backend.segment_names())
            assert old_segments <= _shm_segments()
            fresh_points = sphere_shell(400, 8, dim=3, seed=41)
            service.refresh(fresh_points)
            # No process batch in flight: the superseded plane unlinks
            # on the refresh notification itself.
            assert old_segments & _shm_segments() == set()
            new = service.query_batch([Query("remote-edge", 4)])
            new_segments = set(backend.segment_names())
            # New-epoch segments are fresh, answers come from the
            # extended index (identical to a cold serial service on it).
            assert new_segments.isdisjoint(old_segments)
            assert new_segments <= _shm_segments()
            reference = DiversityService(service.index).query_batch(
                [Query("remote-edge", 4)])
            assert new[0].value == reference[0].value
            assert np.array_equal(new[0].indices, reference[0].indices)
            assert old[0].rung == new[0].rung
            # Lifetime stats carry across the epoch swap (successor
            # semantics): one matrix fill per epoch.
            assert service.stats()["matrices"]["shared"]["computes"] == 2
        finally:
            service.close()
        assert (old_segments | new_segments) & _shm_segments() == set()

    def test_inflight_batch_survives_refresh(self, dataset, index):
        # A batch that snapshotted the old epoch must complete correctly
        # even when a refresh lands while it runs.
        service = DiversityService(index, executor="process",
                                   executor_workers=2)
        try:
            workload = make_workload(8, 12, seed=5)
            expected = DiversityService(index).query_batch(workload)
            errors: list[Exception] = []
            results: list = []

            def run_batch():
                try:
                    results.extend(service.query_batch(workload))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            worker = threading.Thread(target=run_batch)
            worker.start()
            service.refresh(sphere_shell(400, 8, dim=3, seed=43))
            worker.join()
            assert not errors
            assert len(results) == len(workload)
            # Whichever epoch the batch snapshotted, its answers must be
            # internally consistent; a pre-refresh snapshot matches the
            # old index bit-for-bit.
            if results[0].rung == expected[0].rung and \
                    results[0].value == expected[0].value:
                assert [(r.value, r.rung) for r in results] == \
                    [(r.value, r.rung) for r in expected]
        finally:
            service.close()

    def test_stale_epoch_batch_gets_self_retiring_plane(self, index):
        # A batch whose snapshot raced a refresh (its epoch is already
        # superseded) must not resurrect a resident plane for the dead
        # epoch: it gets a private plane that drains with the batch.
        service = DiversityService(index, executor="process",
                                   executor_workers=2)
        try:
            backend = service._executor_obj("process")
            backend.on_epoch(1)  # refresh notification arrived first
            plane = backend._plane_for(0)  # straggler batch, old epoch
            ref = plane.coreset_ref(index.all_rungs()[0])
            assert ref.name in _shm_segments()
            assert ("", 0) not in backend._planes  # never registered
            plane.release()  # batch drains -> plane closes itself
            assert ref.name not in _shm_segments()
            # Normal new-epoch traffic is unaffected.
            current = backend._plane_for(1)
            assert ("", 1) in backend._planes
            current.release()
        finally:
            service.close()

    def test_subprocess_run_emits_no_tracker_warnings(self, tmp_path):
        # Spawn-context workers must not double-register segments with
        # the resource tracker: the whole flow runs in a subprocess so
        # tracker output at interpreter shutdown is captured too.
        script = tmp_path / "svc_tracker_probe.py"
        script.write_text(textwrap.dedent("""\
            import os
            from repro.datasets.synthetic import sphere_shell
            from repro.service import (DiversityService, Query,
                                       build_coreset_index)

            def main():
                points = sphere_shell(600, 8, dim=3, seed=3)
                index = build_coreset_index(points, k_max=8, k_min=4,
                                            parallelism=2, seed=0)
                before = {n for n in os.listdir("/dev/shm")
                          if n.startswith("psm_")}
                with DiversityService(index, executor="process",
                                      executor_workers=2) as service:
                    service.query_batch([Query("remote-edge", 4),
                                         Query("remote-clique", 4),
                                         Query("remote-edge", 4)])
                after = {n for n in os.listdir("/dev/shm")
                         if n.startswith("psm_")}
                assert after - before == set(), after - before
                print("OK")

            if __name__ == "__main__":
                main()
        """))
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=300,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr

    def test_warm_executor_prestarts_workers(self, process_service):
        # Warmup is idempotent and leaves the pool serving normally.
        process_service.warm_executor("process", max_workers=2)
        result = process_service.query("remote-edge", 5)
        assert result.k == 5


class TestProcessHealing:
    """A killed worker breaks the pool; the executor heals and retries."""

    QUERIES = [Query(name, k) for name in list_objectives() for k in (4, 8)]

    @staticmethod
    def _assert_identical(results, reference):
        assert len(results) == len(reference)
        for ours, theirs in zip(results, reference):
            assert ours.value == theirs.value
            assert ours.rung == theirs.rung
            assert np.array_equal(ours.indices, theirs.indices)

    @staticmethod
    def _kill_one_worker(backend) -> None:
        pid = next(iter(backend._pool._processes))
        os.kill(pid, signal.SIGKILL)

    @staticmethod
    def _wait_until_broken(pool) -> None:
        deadline = time.monotonic() + 30
        while not pool._broken:
            assert time.monotonic() < deadline, "the kill went unnoticed"
            time.sleep(0.01)

    def test_kill_between_batches(self, index):
        reference = DiversityService(index).query_batch(self.QUERIES)
        with DiversityService(index, executor="process",
                              executor_workers=2, cache_size=1) as service:
            service.warm_executor("process", max_workers=2)
            backend = service._executor_obj("process")
            self._kill_one_worker(backend)
            for _ in range(3):
                # A one-entry result cache makes every batch solve again.
                self._assert_identical(service.query_batch(self.QUERIES),
                                       reference)
            results = service.stats()["caches"]["results"]
            assert results["hits"] + results["misses"] == 3 * len(
                self.QUERIES)

    def test_kill_mid_batch_with_stripe_locks_held(self, index):
        reference = DiversityService(index).query_batch(self.QUERIES)
        with DiversityService(index, executor="process",
                              executor_workers=2) as service:
            service.warm_executor("process", max_workers=2)
            backend = service._executor_obj("process")
            pool = backend._pool
            # Holding every stripe lock parks the workers inside
            # shm.fill_once, and stands in for a worker that died holding
            # one: the retry must not wait on these locks.
            held = list(backend._locks)
            for lock in held:
                lock.acquire()
            outcome = {}

            def run():
                try:
                    outcome["results"] = service.query_batch(self.QUERIES)
                except Exception as exc:  # reported below
                    outcome["error"] = exc

            thread = threading.Thread(target=run)
            try:
                thread.start()
                deadline = time.monotonic() + 30
                while not pool._pending_work_items:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                self._kill_one_worker(backend)
                thread.join(timeout=60)
                finished = not thread.is_alive()
            finally:
                for lock in held:
                    lock.release()
                thread.join(timeout=60)
            assert finished, "the retry waited on a dead holder's lock"
            assert not thread.is_alive()
            assert "error" not in outcome, outcome.get("error")
            self._assert_identical(outcome["results"], reference)
            results = service.stats()["caches"]["results"]
            assert results["misses"] == len(self.QUERIES)
            self._assert_identical(service.query_batch(self.QUERIES),
                                   reference)

    def test_warm_heals_a_killed_worker(self, index):
        reference = DiversityService(index).query_batch(self.QUERIES)
        with DiversityService(index, executor="process",
                              executor_workers=2) as service:
            service.warm_executor("process", max_workers=2)
            backend = service._executor_obj("process")
            broken = backend._pool
            self._kill_one_worker(backend)
            self._wait_until_broken(broken)
            service.warm_executor("process", max_workers=2)
            assert backend._pool is not broken
            self._assert_identical(service.query_batch(self.QUERIES),
                                   reference)

    def test_second_break_propagates_and_heals(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.service import ProcessExecutor

        backend = ProcessExecutor()
        try:
            with pytest.raises(BrokenProcessPool):
                backend._map(1, os._exit, [(1,)])
            assert backend._map(1, abs, [(-3,)]) == [3]
        finally:
            backend.close()


    def test_error_on_a_broken_pool_counts_as_the_break(self, monkeypatch):
        from repro.service import ProcessExecutor

        backend = ProcessExecutor()
        try:
            pool = backend._ensure_pool(1)

            def racing_submit(*args, **kwargs):
                # A submit that raced the break fails to spawn a worker
                # on the pool's torn-down queues.
                pool._broken = "a worker died"
                raise OSError("handle is closed")

            monkeypatch.setattr(pool, "submit", racing_submit)
            assert backend._map(1, abs, [(-3,)]) == [3]
            assert backend._pool is not pool
        finally:
            backend.close()

    def test_reaping_a_broken_pool_stops_a_straggler(self):
        # The state a submit racing the break leaves behind: the pool's
        # manager thread waits on a worker spawned after it terminated
        # the others.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.service.executors import _reap_broken_pool

        ctx = multiprocessing.get_context("spawn")
        straggler = ctx.Process(target=time.sleep, args=(600,))
        straggler.start()
        manager = threading.Thread(target=straggler.join)
        manager.start()
        pool = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
        pool._broken = "a worker died"
        pool._processes = {straggler.pid: straggler}
        pool._executor_manager_thread = manager
        reaper = threading.Thread(target=_reap_broken_pool, args=(pool,))
        reaper.start()
        reaper.join(timeout=30)
        try:
            assert not reaper.is_alive(), "the reaper waited on the straggler"
            assert not straggler.is_alive()
        finally:
            straggler.kill()
            reaper.join(timeout=30)

    def test_error_on_a_healthy_pool_propagates(self):
        from repro.service import ProcessExecutor

        backend = ProcessExecutor()
        try:
            pool = backend._ensure_pool(1)
            with pytest.raises(ZeroDivisionError):
                backend._map(1, divmod, [(1, 0)])
            assert backend._pool is pool  # kept: nothing broke
        finally:
            backend.close()

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

    def test_eps_reuse_in_process_mode(self, index):
        with DiversityService(index, executor="process",
                              executor_workers=2) as service:
            tight = service.query("remote-edge", 4, epsilon=0.2)
            loose = service.query("remote-edge", 4, epsilon=1.0)
            assert loose.cached and loose.value == tight.value
            assert service.stats()["counters"]["eps_hits"] == 1


# -- float32 fast path over the shared plane ----------------------------------

class TestDtypeProcessPlane:
    """Process workers fill and solve float32 segments unchanged.

    The dtype rides the rung core-set into
    :meth:`SharedMatrixCache.lease`, so a float32 index's segments cost
    half the bytes of a float64 index's under the same budget — and the
    worker-side solve (attach, fill-once, solve_on_matrix) needs no
    dtype plumbing at all.
    """

    def _workloads(self):
        return [Query(name, k) for name in list_objectives() for k in (3, 5)]

    def test_budgeted_float32_process_identity(self, index):
        """Under one binding budget, the float32 process service answers
        with float64-solver-confirmed selections and half the segment
        residency of the float64 service."""
        workload = self._workloads()
        index32 = index.astype("float32")
        residency = {}
        answers = {}
        # 2 MiB keeps the small rungs resident and evicts the big ones
        # for float64; the float32 plane fits strictly more.
        for label, idx in (("float64", index), ("float32", index32)):
            with DiversityService(idx, executor="process",
                                  executor_workers=2,
                                  matrix_budget_mb=2) as service:
                answers[label] = service.query_batch(workload)
                shared = service.stats()["matrices"]["shared"]
                assert shared["dtype"] == label
                residency[label] = shared
        for ours, reference in zip(answers["float32"], answers["float64"]):
            assert ours.rung == reference.rung
            assert ours.value == pytest.approx(reference.value, rel=1e-4)
        # Identical budgets, half the itemsize: every segment the float32
        # plane allocates is exactly half its float64 twin, so whatever
        # subset stays resident costs at most ~half the bytes.
        assert residency["float32"]["budget_bytes"] \
            == residency["float64"]["budget_bytes"] == 2 * 2**20
        assert residency["float32"]["resident_bytes"] <= \
            0.55 * residency["float64"]["resident_bytes"] + 1024

    def test_float32_segments_verified_in_process_mode(self, index):
        """The float64 shadow verify hooks the process path too."""
        index32 = index.astype("float32")
        with DiversityService(index32, executor="process",
                              executor_workers=2, verify_dtype=True,
                              verify_fraction=1.0) as service:
            service.query_batch(self._workloads())
            verify = service.stats()["verify"]
        assert verify["checks"] > 0
        assert verify["value_mismatches"] == 0
        assert verify["index_mismatches"] == 0

    def test_float32_lease_halves_segment_bytes(self):
        cache = SharedMatrixCache(0)
        try:
            lease64 = cache.lease("a", 64, dtype="float64")
            bytes64 = lease64.ref.resolve().nbytes
            lease32 = cache.lease("b", 64, dtype="float32")
            bytes32 = lease32.ref.resolve().nbytes
            assert bytes32 * 2 == bytes64
            cache.release(lease64)
            cache.release(lease32)
        finally:
            cache.close()
        assert not cache.segment_names()
