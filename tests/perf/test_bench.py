"""Tests for the microbenchmark harness and its regression checking."""

import json

import numpy as np
import pytest

from repro.perf import bench


class TestRegistry:
    def test_all_expected_benches_registered(self):
        names = bench.registered_benches()
        for expected in (
            "selection.pairwise_distances",
            "selection.lazy_greedy",
            "selection.stochastic_greedy",
            "selection.selection_round",
            "nn.im2col",
            "nn.conv2d_forward",
            "nn.conv2d_fwd_bwd",
        ):
            assert expected in names

    def test_group_filter(self):
        assert all(n.startswith("selection.") for n in bench.registered_benches("selection"))
        assert all(n.startswith("nn.") for n in bench.registered_benches("nn"))

    def test_unknown_bench_raises(self):
        with pytest.raises(KeyError):
            bench.run_bench("no.such.bench", size="tiny")

    def test_unknown_size_raises(self):
        with pytest.raises(ValueError):
            bench.run_bench("nn.im2col", size="huge")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            bench.register_bench("nn.im2col", "nn")(lambda size: None)


class TestRunBench:
    def test_tiny_run_produces_sane_result(self):
        r = bench.run_bench("nn.im2col", size="tiny", repeats=3, warmup=1)
        assert r.name == "nn.im2col"
        assert r.group == "nn"
        assert r.repeats == 3
        assert 0 < r.min_s <= r.median_s <= r.p90_s
        assert r.seed_median_s is not None
        assert r.speedup_vs_seed == pytest.approx(r.seed_median_s / r.median_s)
        assert r.params["k"] == 3

    def test_with_seed_false_skips_reference(self):
        r = bench.run_bench("nn.im2col", size="tiny", repeats=2, with_seed=False)
        assert r.seed_median_s is None
        assert r.speedup_vs_seed is None


class TestResultsIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        results = [bench.run_bench("nn.im2col", size="tiny", repeats=2, with_seed=False)]
        path = tmp_path / "BENCH_nn.json"
        bench.write_results(path, results)
        loaded = bench.load_results(path)
        assert loaded["nn.im2col"]["median_s"] == results[0].median_s
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2
        assert "peak_rss_bytes" in doc["results"][0]

    def test_loads_schema_1_baseline_without_rss(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(
            {"schema": 1, "results": [{"name": "a", "median_s": 1.0}]}
        ))
        loaded = bench.load_results(path)
        assert loaded["a"]["median_s"] == 1.0
        assert "peak_rss_bytes" not in loaded["a"]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 99, "results": []}))
        with pytest.raises(ValueError):
            bench.load_results(path)


def _result(name, median):
    return bench.BenchResult(
        name=name, group="nn", size="tiny", repeats=1, warmup=0,
        median_s=median, p90_s=median, min_s=median, mean_s=median,
    )


class TestCompare:
    def test_regression_flagged_beyond_tolerance(self):
        baseline = {"a": {"median_s": 1.0}}
        rows = bench.compare([_result("a", 1.6)], baseline, tolerance=0.5)
        assert rows[0]["regressed"]
        assert rows[0]["ratio"] == pytest.approx(1.6)

    def test_within_tolerance_passes(self):
        baseline = {"a": {"median_s": 1.0}}
        rows = bench.compare([_result("a", 1.4)], baseline, tolerance=0.5)
        assert not rows[0]["regressed"]

    def test_new_bench_is_not_a_regression(self):
        rows = bench.compare([_result("new", 5.0)], {}, tolerance=0.5)
        assert not rows[0]["regressed"]
        assert rows[0]["baseline_median_s"] is None

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            bench.compare([], {}, tolerance=-0.1)


class TestCliBench:
    def test_writes_results_files(self, tmp_path):
        from repro.cli import main

        rc = main(["bench", "--group", "all", "--size", "tiny", "--repeats", "1",
                   "--no-seed", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "BENCH_selection.json").exists()
        assert (tmp_path / "BENCH_nn.json").exists()

    def test_check_fails_on_regression(self, tmp_path, capsys):
        from repro.cli import main

        # Fabricate an impossibly fast baseline: everything regresses.
        fast = {"schema": 1, "results": [
            {"name": n, "median_s": 1e-12}
            for n in bench.registered_benches("nn")
        ]}
        (tmp_path / "BENCH_nn.json").write_text(json.dumps(fast))
        rc = main(["bench", "--group", "nn", "--size", "tiny", "--repeats", "1",
                   "--no-seed", "--check", "--baseline-dir", str(tmp_path)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_passes_against_generous_baseline(self, tmp_path):
        from repro.cli import main

        slow = {"schema": 1, "results": [
            {"name": n, "median_s": 1e9}
            for n in bench.registered_benches("nn")
        ]}
        (tmp_path / "BENCH_nn.json").write_text(json.dumps(slow))
        rc = main(["bench", "--group", "nn", "--size", "tiny", "--repeats", "1",
                   "--no-seed", "--check", "--baseline-dir", str(tmp_path)])
        assert rc == 0

    def test_check_without_baseline_fails(self, tmp_path, capsys):
        # Used to skip silently; now a missing committed baseline is a
        # CI failure (an uncovered group would otherwise rot unnoticed).
        from repro.cli import main

        rc = main(["bench", "--group", "nn", "--size", "tiny", "--repeats", "1",
                   "--no-seed", "--check", "--baseline-dir", str(tmp_path)])
        assert rc == 1
        assert "MISSING BASELINE" in capsys.readouterr().out


class TestCheckRequiresCommittedBaseline:
    def test_present_baseline_within_tolerance_passes(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "bench", "--group", "parallel", "--size", "tiny", "--repeats", "1",
            "--no-seed", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        rc = main([
            "bench", "--group", "parallel", "--size", "tiny", "--repeats", "1",
            "--no-seed", "--check", "--tolerance", "1000", "--baseline-dir",
            str(tmp_path),
        ])
        capsys.readouterr()
        assert rc == 0
