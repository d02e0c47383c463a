"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data"
    code = main(["generate", "sphere-shell", "--n", "400", "--k", "4",
                 "--out", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_generate_defaults(self):
        args = build_parser().parse_args(
            ["generate", "cube", "--out", "/tmp/x"])
        assert args.n == 10_000
        assert args.dim == 3

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quantum", "--data", "x",
                                       "--k", "4"])


class TestGenerate:
    @pytest.mark.parametrize("generator", ["sphere-shell", "cube", "clusters"])
    def test_generators(self, tmp_path, generator, capsys):
        out = tmp_path / generator
        assert main(["generate", generator, "--n", "200",
                     "--out", str(out)]) == 0
        assert out.with_suffix(".npy").exists()
        assert "200 points" in capsys.readouterr().out

    def test_bag_of_words(self, tmp_path, capsys):
        out = tmp_path / "docs"
        assert main(["generate", "bag-of-words", "--n", "30",
                     "--out", str(out)]) == 0
        assert "cosine" in capsys.readouterr().out


class TestRun:
    @pytest.mark.parametrize("algorithm", ["streaming", "mapreduce", "immm"])
    def test_algorithms(self, dataset, algorithm, capsys):
        assert main(["run", algorithm, "--data", str(dataset),
                     "--k", "4", "--parallelism", "2"]) == 0
        out = capsys.readouterr().out
        assert "value =" in out

    def test_two_pass_and_three_round(self, dataset, capsys):
        for algorithm in ("streaming-2pass", "mapreduce-3round"):
            assert main(["run", algorithm, "--data", str(dataset),
                         "--k", "4", "--objective", "remote-clique",
                         "--parallelism", "2"]) == 0
        assert "value =" in capsys.readouterr().out

    def test_afz(self, dataset, capsys):
        assert main(["run", "afz", "--data", str(dataset), "--k", "4",
                     "--objective", "remote-clique",
                     "--parallelism", "2"]) == 0
        assert "core-set" in capsys.readouterr().out

    def test_with_ratio(self, dataset, capsys):
        assert main(["run", "mapreduce", "--data", str(dataset),
                     "--k", "4", "--with-ratio"]) == 0
        assert "ratio vs best-found reference" in capsys.readouterr().out

    def test_default_k_prime_is_4k(self, dataset, capsys):
        main(["run", "streaming", "--data", str(dataset), "--k", "4"])
        assert "k'=16" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm,objective",
                             [("streaming", "remote-edge"),
                              ("streaming-2pass", "remote-clique")])
    def test_batch_size_flag(self, dataset, algorithm, objective, capsys):
        assert main(["run", algorithm, "--data", str(dataset), "--k", "4",
                     "--objective", objective, "--batch-size", "128"]) == 0
        assert "value =" in capsys.readouterr().out

    def test_process_executor_flag(self, dataset, capsys):
        assert main(["run", "mapreduce", "--data", str(dataset),
                     "--k", "4", "--parallelism", "2",
                     "--executor", "process"]) == 0
        assert "process" in capsys.readouterr().out

    def test_kernel_budget_flag(self, dataset, capsys):
        from repro.metricspace.blocked import (
            get_default_memory_budget,
            set_default_memory_budget,
        )

        before = get_default_memory_budget()
        try:
            assert main(["run", "mapreduce", "--data", str(dataset),
                         "--k", "4", "--kernel-budget-mb", "8"]) == 0
            assert get_default_memory_budget() == 8 * 2**20
        finally:
            set_default_memory_budget(before)
        assert "value =" in capsys.readouterr().out


class TestAutoBatchSize:
    def test_explicit_flag_suppresses_auto_tuning(self, dataset, capsys):
        assert main(["run", "streaming", "--data", str(dataset), "--k", "4",
                     "--batch-size", "64"]) == 0
        assert "auto-tuned" not in capsys.readouterr().out


class TestServiceVerbs:
    def test_index_then_query_roundtrip(self, dataset, tmp_path, capsys):
        idx = tmp_path / "idx"
        assert main(["index", "--data", str(dataset), "--k-max", "8",
                     "--k-min", "4", "--out", str(idx)]) == 0
        out = capsys.readouterr().out
        assert "rung gmm" in out and "rung gmm-ext" in out
        assert idx.with_suffix(".npz").exists()
        assert idx.with_suffix(".json").exists()

        assert main(["query", "--index", str(idx),
                     "--objective", "remote-clique", "--k", "4",
                     "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "value =" in out
        assert "cache hit" in out
        assert "builds during queries: 0" in out

    def test_index_single_family(self, dataset, tmp_path, capsys):
        idx = tmp_path / "idx_gmm"
        assert main(["index", "--data", str(dataset), "--k-max", "4",
                     "--families", "gmm", "--out", str(idx)]) == 0
        out = capsys.readouterr().out
        assert "rung gmm" in out
        assert "gmm-ext" not in out

    def test_query_matrix_budget(self, dataset, tmp_path, capsys):
        idx = tmp_path / "idx"
        assert main(["index", "--data", str(dataset), "--k-max", "4",
                     "--out", str(idx)]) == 0
        out = capsys.readouterr().out
        assert "suggested REPRO_MATRIX_BUDGET_MB=" in out
        assert main(["query", "--index", str(idx),
                     "--objective", "remote-edge", "--k", "4",
                     "--matrix-budget-mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "value =" in out
        assert "MiB budget" in out

    def test_refresh_in_place(self, dataset, tmp_path, capsys):
        idx = tmp_path / "idx"
        more = tmp_path / "more"
        assert main(["generate", "sphere-shell", "--n", "250", "--k", "4",
                     "--seed", "9", "--out", str(more)]) == 0
        assert main(["index", "--data", str(dataset), "--k-max", "8",
                     "--k-min", "4", "--out", str(idx)]) == 0
        capsys.readouterr()
        assert main(["refresh", "--index", str(idx),
                     "--data", str(more)]) == 0
        out = capsys.readouterr().out
        assert "400 -> 650 points" in out
        assert "no MapReduce rebuild" in out
        assert "refresh #1" in out
        # The refreshed index still answers queries.
        assert main(["query", "--index", str(idx),
                     "--objective", "remote-clique", "--k", "4"]) == 0
        assert "value =" in capsys.readouterr().out

    def test_refresh_to_new_path(self, dataset, tmp_path, capsys):
        idx = tmp_path / "idx"
        out_path = tmp_path / "idx_v2"
        more = tmp_path / "more"
        assert main(["generate", "sphere-shell", "--n", "150", "--k", "4",
                     "--seed", "3", "--out", str(more)]) == 0
        assert main(["index", "--data", str(dataset), "--k-max", "4",
                     "--out", str(idx)]) == 0
        capsys.readouterr()
        assert main(["refresh", "--index", str(idx), "--data", str(more),
                     "--out", str(out_path), "--batch-size", "64"]) == 0
        assert out_path.with_suffix(".npz").exists()
        # The original index files are untouched by --out.
        import json

        original = json.loads(idx.with_suffix(".json").read_text())
        assert "refreshes" not in original.get("extra", {})


class TestRemovedPlannerVerbs:
    """The planner's verbs and flag are gone: argparse rejects them."""

    @pytest.mark.parametrize("argv", [
        ["calibrate"],
        ["plan", "--index", "idx", "--k", "4"],
        ["query", "--index", "idx", "--k", "4", "--plan", "auto"],
        ["serve", "--index", "idx", "--plan", "auto"],
    ])
    def test_exits_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestRegistryTune:
    """``repro registry tune``: the adaptive-QoS loop, closed offline."""

    @pytest.fixture
    def registry_dir(self, dataset, tmp_path):
        regdir = tmp_path / "reg"
        for name in ("us", "eu"):
            assert main(["registry", "add", "--dir", str(regdir),
                         "--id", name, "--data", str(dataset),
                         "--k-max", "4"]) == 0
        return regdir

    @staticmethod
    def _snapshot(tmp_path, per_tenant):
        import json

        path = tmp_path / "stats.json"
        path.write_text(json.dumps(
            {"server": {"qos": {"per_tenant": per_tenant}}}))
        return path

    def test_tune_rewrites_manifest_weights(self, registry_dir, tmp_path,
                                            capsys):
        import json

        stats = self._snapshot(tmp_path, {"us": {"dispatched": 400},
                                          "eu": {"dispatched": 100}})
        assert main(["registry", "tune", "--dir", str(registry_dir),
                     "--stats-json", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "restart the daemon to apply" in out
        manifest = json.loads(
            (registry_dir / "registry.json").read_text())
        weights = {entry["dataset_id"]: entry.get("qos", {}).get(
            "weight", 1.0) for entry in manifest["tenants"]}
        assert weights["us"] == 4.0  # busiest tenant gets --max-weight
        assert weights["eu"] == 1.0

    def test_tune_preserves_other_quota_knobs(self, dataset, tmp_path,
                                              capsys):
        import json

        regdir = tmp_path / "reg2"
        assert main(["registry", "add", "--dir", str(regdir), "--id", "us",
                     "--data", str(dataset), "--k-max", "4",
                     "--max-queue", "7", "--rate-limit", "3.5"]) == 0
        stats = self._snapshot(tmp_path, {"us": {"dispatched": 10}})
        assert main(["registry", "tune", "--dir", str(regdir),
                     "--stats-json", str(stats)]) == 0
        (entry,) = json.loads(
            (regdir / "registry.json").read_text())["tenants"]
        assert entry["qos"]["max_queue"] == 7
        assert entry["qos"]["rate_limit_qps"] == 3.5

    def test_tune_needs_exactly_one_source(self, registry_dir, tmp_path,
                                           capsys):
        assert main(["registry", "tune", "--dir", str(registry_dir)]) == 2
        stats = self._snapshot(tmp_path, {"us": {"dispatched": 1}})
        assert main(["registry", "tune", "--dir", str(registry_dir),
                     "--stats-json", str(stats), "--port", "9"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_tune_rejects_snapshot_without_qos(self, registry_dir,
                                               tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text("{}")
        assert main(["registry", "tune", "--dir", str(registry_dir),
                     "--stats-json", str(stats)]) == 2
        assert "no per-tenant QoS stats" in capsys.readouterr().err


class TestEstimate:
    def test_reports_dimension_and_sizes(self, dataset, capsys):
        assert main(["estimate", "--data", str(dataset), "--k", "4",
                     "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "doubling dimension" in out
        assert "mapreduce" in out and "streaming" in out
