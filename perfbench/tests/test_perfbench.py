"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import layers
import worker
from conftest import ROOT
from spans import Span, Tracer, resolve, self_times
from speed import MARGIN_S, NOMINAL_S, Speedometer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result: dict, declared: list[dict]) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    values = _check_result(_bench(workload, 0), SPEC["end_to_end"])
    assert all(value > 0 for value in values.values()), values


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_and_its_share(workload):
    values = _check_result(_bench(workload, 1), SPEC["per_layer"])
    if workload == "miss-mix":
        assert values["trace.solver_share"] > 0.5
        assert values["service.cache.hit_rate"] == 0
    elif workload == "serve-hot":
        # The timed phases are all cache hits: no solver runs in them.
        assert values["diversity.sequential.calls"] == 0
        assert values["graph.matching.calls"] == 0
        assert values["service.server.batches_dispatched"] > 0
        assert values["service.protocol.decode_us"] > 0
    else:
        assert values["trace.refresh_share"] > 0.5
        assert values["service.index.dimension_reestimates"] >= 1


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(1, "child", 1.0, 3.0, parent=0),
        Span(2, "child", 2.0, 5.0, parent=0),   # overlaps its sibling
        Span(3, "child", 8.0, 12.0, parent=0),  # runs past its parent
        Span(4, "leaf", 1.5, 2.0, parent=1),
    ]
    selfs = self_times(spans)
    # Children cover [1, 5] and [8, 10] of the root: 6 of its 10 seconds.
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(0.5)


def test_slowdown_is_the_median_probe_around_the_span():
    speed = Speedometer()
    speed.at = [1.0, 2.0, 3.0, 10.0]
    speed.costs = [NOMINAL_S, 2 * NOMINAL_S, 3 * NOMINAL_S, 4 * NOMINAL_S]
    assert speed.factor(1.0, 3.0) == pytest.approx(2.0)
    # Probes within MARGIN_S of the span count too.
    assert speed.factor(2.0 + MARGIN_S, 3.0) == pytest.approx(2.5)
    # No probe near the span: the whole run's median.
    assert speed.factor(20.0, 30.0) == pytest.approx(2.5)


def test_speedometer_times_each_probe_when_asked():
    speed = Speedometer()
    before = time.monotonic()
    speed.sample(3)
    assert len(speed.at) == len(speed.costs) == 3
    assert before <= speed.at[0] <= speed.at[-1] <= time.monotonic()
    assert all(cost > 0 for cost in speed.costs)


def test_tracer_records_nesting_and_request_ids():
    tracer = Tracer()
    with tracer.request(7):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == outer.request == 7


def _targets():
    return [target for target, _, _ in layers.PATCHES + layers.DAEMON_PATCHES] \
        + ["repro.service.server:DiversityServer._dispatch"]


def _current(target):
    owner, attr = resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_uninstall_restores_every_patched_function():
    originals = {target: _current(target) for target in _targets()}
    tracer = Tracer()
    layers.install(tracer, daemon=True)
    try:
        for target, original in originals.items():
            assert _current(target) is not original, target
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _current(target) is original, target


def test_timed_runs_load_no_wrapper(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a timed run installed the layer wrappers")

    monkeypatch.setattr(layers, "install", refuse)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", str(tmp_path))
    out = tmp_path / "result.json"
    for workload in WORKLOADS:
        assert worker.main(["--workload", workload, "--seed", "5",
                            "--seconds", "0.2", "--tiny",
                            "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["failed"] == 0 and "per_layer" not in result
        for target in _targets():
            assert not getattr(_current(target), "__wrapped_by_perfbench__",
                               False), target
    assert not list(tmp_path.glob("*.spans.json"))


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "miss-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0 and proc.stdout == ""
