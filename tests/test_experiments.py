"""Tests for the experiment harness: reference values, trials, reports."""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import sphere_shell
from repro.diversity.exact import divk_exact
from repro.experiments.harness import (
    approximation_ratio,
    run_trials,
    summarize,
)
from repro.experiments.reference import reference_value
from repro.experiments.report import format_series, format_table
from repro.metricspace.points import PointSet


class TestReferenceValue:
    def test_upper_bounded_by_optimum_on_small_instances(self, rng):
        pts = PointSet(rng.random((14, 2)))
        for objective in ("remote-edge", "remote-clique", "remote-tree"):
            exact = divk_exact(pts, 3, objective)
            reference = reference_value(pts, 3, objective)
            assert reference <= exact + 1e-9
            assert reference >= exact / 2.0 - 1e-9  # strong runs get close

    def test_finds_planted_optimum(self):
        pts = sphere_shell(1000, 8, dim=3, seed=3)
        reference = reference_value(pts, 8, "remote-edge")
        # The 8 planted points have min pairwise distance well above the
        # 0.8-ball's contribution; reference should exploit them.
        assert reference > 0.4


class TestHarness:
    def test_ratio(self):
        assert approximation_ratio(2.0, 1.0) == pytest.approx(2.0)
        assert approximation_ratio(2.0, 0.0) == float("inf")

    def test_run_trials_reproducible(self):
        def run(gen):
            return float(gen.random()), {}

        a = run_trials(run, trials=3, seed=0)
        b = run_trials(run, trials=3, seed=0)
        assert [x.value for x in a] == [x.value for x in b]
        assert len(a) == 3

    def test_summarize(self):
        def run(gen):
            return float(gen.integers(1, 10)), {"tag": 1}

        summary = summarize(run_trials(run, trials=5, seed=1))
        assert summary.trials == 5
        assert summary.min_value <= summary.mean_value <= summary.max_value
        assert summary.mean_seconds >= 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ratio_against(self):
        def run(gen):
            return 2.0, {}

        summary = summarize(run_trials(run, trials=2, seed=0))
        assert summary.ratio_against(4.0) == pytest.approx(2.0)


class TestReport:
    def test_table_alignment(self):
        text = format_table(["k", "ratio"], [[8, 1.0234], [128, 1.1]])
        lines = text.splitlines()
        assert lines[0].startswith("k")
        assert "1.023" in text
        assert len(lines) == 4

    def test_table_with_title(self):
        text = format_table(["a"], [[1]], title="Figure 1")
        assert text.splitlines()[0] == "Figure 1"

    def test_large_and_small_floats(self):
        text = format_table(["v"], [[123456.0], [0.00001]])
        assert "e+" in text or "e5" in text
        assert "e-" in text

    def test_series(self):
        text = format_series("k'=2k", [8, 32], [1.1, 1.2])
        assert "k'=2k" in text and "8 -> 1.1" in text
