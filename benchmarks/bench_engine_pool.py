"""Engine smoke benchmark: persistent pool vs per-round pool dispatch.

PR 1's follow-up work made the MapReduce engine's worker pool persistent:
it is created once and reused across every round (and every job) instead of
being spawned and torn down per round.  This benchmark isolates exactly the
overhead that change removes — the reducers are trivial, so wall time is
process management plus IPC, not algorithm work — and gates the persistent
pool's advantage at a modest >= 1.5x so 2-core CI runners pass with margin
(locally the gap is typically >= 5x).

The persistent engine is warmed with one untimed round first: steady-state
dispatch is what multi-round jobs experience.  The per-round baseline opens
and closes a fresh engine around every round, so it spawns and tears down
its pool each time and cannot be warmed *by construction* — respawning the
pool every round is precisely the measured regression.

Emits ``BENCH_engine_pool.json`` for the CI trajectory.
"""

from __future__ import annotations

import time

from common import emit, emit_json, run_once
from repro.experiments.report import format_table
from repro.mapreduce.engine import MapReduceEngine

ROUNDS = 6
REDUCERS = 4
PARALLELISM = 2
#: CI gate: persistent-pool rounds must beat per-round pools by this factor.
MIN_SPEEDUP = 1.5
INPUTS = [[i] for i in range(REDUCERS)]


def _echo_reducer(payload):
    """Trivial module-level reducer: pure dispatch overhead."""
    return payload


def _persistent_rounds() -> float:
    with MapReduceEngine(parallelism=PARALLELISM,
                         executor="process") as engine:
        engine.run_round([[0], [1]], _echo_reducer)  # warm the pool
        start = time.perf_counter()
        for _ in range(ROUNDS):
            engine.run_round(INPUTS, _echo_reducer)
        return time.perf_counter() - start


def _per_round_pools() -> float:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        with MapReduceEngine(parallelism=PARALLELISM,
                             executor="process") as engine:
            engine.run_round(INPUTS, _echo_reducer)
    return time.perf_counter() - start


def _measure():
    return _persistent_rounds(), _per_round_pools()


def test_engine_pool_overhead(benchmark):
    persistent, per_round = run_once(benchmark, _measure)
    speedup = per_round / persistent
    emit("engine_pool", format_table(
        ["pool mode", f"{ROUNDS} rounds (s)", "per round (ms)"],
        [
            ["persistent", round(persistent, 4),
             round(1000 * persistent / ROUNDS, 2)],
            ["per-round", round(per_round, 4),
             round(1000 * per_round / ROUNDS, 2)],
        ],
        title=f"Engine dispatch overhead ({REDUCERS} trivial reducers, "
              f"parallelism {PARALLELISM}; speedup {speedup:.1f}x)",
    ))
    emit_json("engine_pool", {
        "rounds": ROUNDS,
        "reducers": REDUCERS,
        "parallelism": PARALLELISM,
        "persistent_seconds": round(persistent, 6),
        "per_round_seconds": round(per_round, 6),
        "speedup": round(speedup, 3),
        "min_speedup_gate": MIN_SPEEDUP,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"persistent pool only {speedup:.2f}x faster than per-round pools "
        f"(gate: {MIN_SPEEDUP}x)"
    )
