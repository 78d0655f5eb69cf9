"""Perf-regression watchdog: series semantics and exit codes.

The contract CI leans on: a ≥20% drop of the watched metric below the
baseline median exits 1, the committed trajectory passes, and unusable
input exits 2 rather than silently passing.
"""

import json
from pathlib import Path

import pytest

from repro.obs.watch import (
    DEFAULT_TOLERANCE,
    Regression,
    WatchError,
    evaluate_trajectory,
    load_trajectories,
    main,
)

REPO_ROOT = Path(__file__).parent.parent
COMMITTED_TRAJECTORY = REPO_ROOT / "BENCH_hotpath.json"


def record(config, speedup, bench="hotpath", **extra):
    return {"bench": bench, "config": config, "speedup": speedup, **extra}


def series(config, *speedups):
    return [record(config, s) for s in speedups]


def write_trajectory(path, records):
    path.write_text(json.dumps(records))
    return path


class TestEvaluateTrajectory:
    def test_regression_at_default_tolerance(self):
        # baseline median of [5.0, 4.0, 6.0] is 5.0; 3.9 is a 22% drop
        found = evaluate_trajectory(series("batched", 5.0, 4.0, 6.0, 3.9))
        assert len(found) == 1
        regression = found[0]
        assert (regression.bench, regression.config) == ("hotpath", "batched")
        assert regression.baseline == pytest.approx(5.0)
        assert regression.current == pytest.approx(3.9)
        assert regression.drop == pytest.approx(0.22)

    def test_drop_below_tolerance_passes(self):
        assert evaluate_trajectory(series("batched", 5.0, 4.5)) == []

    def test_exact_tolerance_boundary_fails(self):
        # the check is >=, so exactly 20% below the median regresses
        assert evaluate_trajectory(series("batched", 5.0, 4.0))

    def test_improvement_passes(self):
        assert evaluate_trajectory(series("batched", 5.0, 9.0)) == []

    def test_median_baseline_ignores_outlier(self):
        # one historic outlier (12.0) must not move the bar: the median
        # of [5.0, 12.0, 5.2] is 5.2, and 4.6 is only ~12% below it
        assert evaluate_trajectory(series("b", 5.0, 12.0, 5.2, 4.6)) == []

    def test_short_series_skipped(self):
        assert evaluate_trajectory(series("batched", 5.0)) == []

    def test_min_runs_raises_the_floor(self):
        records = series("batched", 5.0, 3.0)
        assert evaluate_trajectory(records)
        assert evaluate_trajectory(records, min_runs=3) == []

    def test_series_group_by_bench_and_config(self):
        records = (
            series("batched", 5.0, 5.1)
            + series("serial", 1.0, 1.0)
            + [record("batched", 2.0, bench="other")]  # different bench
        )
        assert evaluate_trajectory(records) == []

    def test_records_missing_metric_or_config_ignored(self):
        records = [
            {"bench": "hotpath", "config": "batched"},  # no speedup
            {"bench": "hotpath", "speedup": 9.9},  # no config
        ] + series("batched", 5.0, 5.0)
        assert evaluate_trajectory(records) == []

    def test_alternate_metric(self):
        records = [
            record("batched", 5.0, wall_s=1.0),
            record("batched", 5.0, wall_s=2.0),
        ]
        assert evaluate_trajectory(records, metric="speedup") == []
        # wall_s doubled — but as a bigger-is-better metric that is only
        # a regression when watched explicitly... it isn't: it grew.
        assert evaluate_trajectory(records, metric="wall_s") == []

    def test_no_series_carrying_the_metric_rejected(self):
        # a gate watching a metric no record carries judges nothing; it
        # must fail loudly instead of printing "no regressions"
        records = [
            {"bench": "workload", "config": "baseline", "goodput_qps": 9.0}
        ]
        with pytest.raises(WatchError, match="no record carries"):
            evaluate_trajectory(records, metric="speedup")
        with pytest.raises(WatchError, match="no record carries"):
            evaluate_trajectory([])
        assert evaluate_trajectory(records, metric="goodput_qps") == []

    def test_non_positive_tolerance_rejected(self):
        with pytest.raises(WatchError, match="tolerance must be positive"):
            evaluate_trajectory(series("b", 1.0, 1.0), tolerance=0.0)

    def test_regression_renders_human_line(self):
        regression = Regression(
            bench="hotpath", config="batched", metric="speedup",
            baseline=5.0, current=3.9,
        )
        text = str(regression)
        assert "hotpath/batched" in text
        assert "22.0% below" in text
        assert "median 5" in text


class TestLoadTrajectories:
    def test_concatenates_in_argument_order(self, tmp_path):
        a = write_trajectory(tmp_path / "a.json", series("batched", 5.0))
        b = write_trajectory(tmp_path / "b.json", series("batched", 3.0))
        values = [r["speedup"] for r in load_trajectories([a, b])]
        assert values == [5.0, 3.0]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(WatchError, match="unreadable trajectory"):
            load_trajectories([tmp_path / "nope.json"])

    def test_non_list_payload_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(WatchError, match="list of records"):
            load_trajectories([bad])


class TestMainExitCodes:
    def test_committed_trajectory_passes(self):
        assert COMMITTED_TRAJECTORY.exists()
        assert main([str(COMMITTED_TRAJECTORY)]) == 0

    def test_synthetic_regression_exits_one(self, tmp_path):
        # the acceptance scenario: batched speedup drops >=20% vs the
        # committed history when a fresh CI artifact joins the series
        baseline = json.loads(COMMITTED_TRAJECTORY.read_text())
        batched = next(
            r for r in baseline if r["config"] == "batched-16q"
        )
        regressed = dict(batched, speedup=batched["speedup"] * 0.75)
        fresh = write_trajectory(tmp_path / "fresh.json", [regressed])
        assert main([str(COMMITTED_TRAJECTORY), str(fresh)]) == 1

    def test_matching_fresh_run_passes(self, tmp_path):
        baseline = json.loads(COMMITTED_TRAJECTORY.read_text())
        fresh = write_trajectory(tmp_path / "fresh.json", baseline)
        assert main([str(COMMITTED_TRAJECTORY), str(fresh)]) == 0

    def test_unreadable_file_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope.json")]) == 2

    def test_metric_missing_from_every_record_exits_two(self, tmp_path):
        path = write_trajectory(
            tmp_path / "t.json",
            [{"bench": "slo", "config": "clean", "goodput_qps": 1.0}] * 2,
        )
        assert main([str(path)]) == 2
        assert main([str(path), "--metric", "goodput_qps"]) == 0

    @pytest.mark.parametrize(
        "trajectory", ["BENCH_workload.json", "BENCH_slo.json"]
    )
    def test_committed_trajectories_carry_goodput(self, trajectory):
        """The CI watch steps over these files judge ``goodput_qps``."""
        path = REPO_ROOT / trajectory
        assert main([str(path), "--metric", "goodput_qps"]) == 0
        assert main([str(path)]) == 2

    def test_bad_tolerance_exits_two(self, tmp_path):
        good = write_trajectory(tmp_path / "t.json", series("b", 1.0, 1.0))
        assert main([str(good), "--tolerance", "-1"]) == 2

    def test_json_verdict(self, tmp_path, capsys):
        records = series("batched", 5.0, 4.0, 6.0, 3.0)
        path = write_trajectory(tmp_path / "t.json", records)
        assert main([str(path), "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["metric"] == "speedup"
        assert verdict["tolerance"] == DEFAULT_TOLERANCE
        assert verdict["records"] == 4
        [regression] = verdict["regressions"]
        assert regression["config"] == "batched"
        assert regression["drop"] == pytest.approx(0.4)

    def test_custom_tolerance_tightens(self, tmp_path):
        path = write_trajectory(
            tmp_path / "t.json", series("batched", 5.0, 4.6)
        )
        assert main([str(path)]) == 0  # 8% drop passes at default 20%
        assert main([str(path), "--tolerance", "0.05"]) == 1
