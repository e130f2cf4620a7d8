"""Unit tests for the sweep result-table regression comparator.

``benchmarks/check_trajectory.py`` is the CI gate that fails the sweep-smoke
job on a >25% regression of any headline metric of a ``SWEEP_*.json``
table; these tests pin its metric extraction, the direction-aware
comparison, the noise floor, and the directory-level CLI behaviour (missing
candidate file = failure, clean run = exit 0).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "check_trajectory.py"
_spec = importlib.util.spec_from_file_location("check_trajectory", _MODULE_PATH)
check_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trajectory)


def payload_with_series(step_times_by_mode, **extra):
    rows = [
        {"mode": mode, "iteration": i, "step_s": value}
        for mode, values in step_times_by_mode.items()
        for i, value in enumerate(values)
    ]
    return {"experiment": "x", "series": {"trajectory": rows}, **extra}


def test_extracts_medians_per_mode_and_scalars():
    metrics = check_trajectory.extract_metrics(
        payload_with_series(
            {"async": [1.0, 3.0, 2.0], "none": [0.5, 0.5, 0.5]},
            compression_ratio=2.5,
        )
    )
    assert metrics["median_step_s:async"] == (2.0, "lower")
    assert metrics["median_step_s:none"] == (0.5, "lower")
    assert metrics["compression_ratio"] == (2.5, "higher")


def test_extracts_every_ratio_and_speedup_scalar():
    """Every sweep headline scalar is gated — extraction matches by suffix,
    not a fixed key list."""
    metrics = check_trajectory.extract_metrics(
        {
            "median_speedup": 2.9,
            "reference_match_ratio": 1.0,
            "restore_ok_ratio": 1.0,
            "runner_elapsed_s": 12.0,  # not a headline metric
            "some_flag": True,  # bools are not metrics
        }
    )
    assert metrics == {
        "median_speedup": (2.9, "higher"),
        "reference_match_ratio": (1.0, "higher"),
        "restore_ok_ratio": (1.0, "higher"),
    }


def test_ratios_only_drops_raw_durations_but_keeps_ratios():
    baseline = {
        "median_step_s:async": (0.1, "lower"),
        "compression_ratio": (2.5, "higher"),
    }
    candidate = {
        "median_step_s:async": (9.9, "lower"),  # wildly slower machine
        "compression_ratio": (2.5, "higher"),
    }
    assert check_trajectory.compare_metrics(baseline, candidate, ratios_only=True) == []
    assert check_trajectory.compare_metrics(baseline, candidate), (
        "full mode must still flag the duration regression"
    )
    # A regressed ratio is caught even in ratios-only mode.
    candidate["compression_ratio"] = (1.0, "higher")
    assert check_trajectory.compare_metrics(baseline, candidate, ratios_only=True)


def test_lower_is_better_regression_detected_beyond_threshold():
    baseline = {"median_step_s:async": (0.100, "lower")}
    ok = {"median_step_s:async": (0.124, "lower")}
    bad = {"median_step_s:async": (0.126, "lower")}
    assert check_trajectory.compare_metrics(baseline, ok) == []
    problems = check_trajectory.compare_metrics(baseline, bad)
    assert len(problems) == 1 and "median_step_s:async" in problems[0]


def test_higher_is_better_regression_detected():
    baseline = {"compression_ratio": (2.5, "higher")}
    ok = {"compression_ratio": (2.1, "higher")}
    bad = {"compression_ratio": (1.9, "higher")}
    assert check_trajectory.compare_metrics(baseline, ok) == []
    assert len(check_trajectory.compare_metrics(baseline, bad)) == 1


def test_improvements_and_new_metrics_pass():
    baseline = {"median_step_s:async": (0.1, "lower")}
    candidate = {
        "median_step_s:async": (0.01, "lower"),  # 10x faster
        "median_step_s:extra-mode": (9.9, "lower"),  # new, no baseline
    }
    assert check_trajectory.compare_metrics(baseline, candidate) == []


def test_metric_missing_from_candidate_is_a_regression():
    baseline = {"median_step_s:async": (0.1, "lower")}
    problems = check_trajectory.compare_metrics(baseline, {})
    assert problems and "missing from candidate" in problems[0]


def test_noise_floor_suppresses_tiny_time_regressions():
    baseline = {"median_step_s:async": (0.002, "lower")}
    candidate = {"median_step_s:async": (0.004, "lower")}  # 2x, but 2ms -> 4ms
    assert check_trajectory.compare_metrics(baseline, candidate) == []
    assert check_trajectory.compare_metrics(
        baseline, candidate, floor_seconds=0.0
    ), "with the floor disabled the 2x regression must be flagged"


def write_table(directory: Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


def test_directory_comparison_and_cli_exit_codes(tmp_path, capsys):
    baseline_dir = tmp_path / "baseline"
    candidate_dir = tmp_path / "candidate"
    good = payload_with_series({"async": [0.1, 0.1, 0.1]}, compression_ratio=2.5)
    write_table(baseline_dir, "SWEEP_a.json", good)
    write_table(candidate_dir, "SWEEP_a.json", good)
    assert check_trajectory.main(
        ["--baseline", str(baseline_dir), "--candidate", str(candidate_dir)]
    ) == 0

    # A regressed candidate fails ...
    slow = payload_with_series({"async": [0.2, 0.2, 0.2]}, compression_ratio=2.5)
    write_table(candidate_dir, "SWEEP_a.json", slow)
    assert check_trajectory.main(
        ["--baseline", str(baseline_dir), "--candidate", str(candidate_dir)]
    ) == 1
    assert "REGRESSION" in capsys.readouterr().err

    # ... and so does a benchmark that silently stopped producing its file.
    (candidate_dir / "SWEEP_a.json").unlink()
    assert check_trajectory.main(
        ["--baseline", str(baseline_dir), "--candidate", str(candidate_dir)]
    ) == 1


def test_empty_baseline_directory_fails(tmp_path):
    (tmp_path / "baseline").mkdir()
    (tmp_path / "candidate").mkdir()
    assert check_trajectory.main(
        ["--baseline", str(tmp_path / "baseline"), "--candidate", str(tmp_path / "candidate")]
    ) == 1


def test_committed_tables_pass_against_themselves():
    """The repo-committed tables must gate cleanly against themselves —
    otherwise the sweep-smoke job would fail on day one."""
    repo_root = Path(__file__).resolve().parents[2]
    problems, checked = check_trajectory.compare_directories(repo_root, repo_root)
    assert problems == []
    assert checked == ["SWEEP_engine_smoke.json", "SWEEP_weak_scaling.json"]


def test_sweep_tables_are_gated_and_other_json_is_ignored(tmp_path, capsys):
    """Only SWEEP_*.json result tables are gated; other JSON beside them is not."""
    baseline_dir = tmp_path / "baseline"
    candidate_dir = tmp_path / "candidate"
    other = payload_with_series({"async": [0.1, 0.1, 0.1]}, compression_ratio=2.5)
    sweep = {
        "experiment": "sweep-weak_scaling",
        "median_speedup": 2.9,
        "series": {
            "trajectory": [
                {"engine": "MLP-Offload", "repeat": 0, "update_s": 30.0},
                {"engine": "DeepSpeed ZeRO-3", "repeat": 0, "update_s": 90.0},
            ]
        },
    }
    for directory in (baseline_dir, candidate_dir):
        write_table(directory, "BENCHMARK.json", other)
        write_table(directory, "SWEEP_weak_scaling.json", sweep)
    assert check_trajectory.main(
        ["--baseline", str(baseline_dir), "--candidate", str(candidate_dir)]
    ) == 0
    out = capsys.readouterr().out
    assert "BENCHMARK.json" not in out
    assert "checked SWEEP_weak_scaling.json" in out

    # A collapsed sweep speedup fails the gate even cross-machine.
    degraded = dict(sweep, median_speedup=1.1)
    write_table(candidate_dir, "SWEEP_weak_scaling.json", degraded)
    assert check_trajectory.main(
        [
            "--baseline", str(baseline_dir),
            "--candidate", str(candidate_dir),
            "--ratios-only",
        ]
    ) == 1
    assert "SWEEP_weak_scaling.json: median_speedup" in capsys.readouterr().err

    # A sweep that silently stopped producing its table is a failure too.
    (candidate_dir / "SWEEP_weak_scaling.json").unlink()
    assert check_trajectory.main(
        ["--baseline", str(baseline_dir), "--candidate", str(candidate_dir)]
    ) == 1


def test_committed_sweep_rows_group_by_codec_and_engine():
    """The two committed tables carry the two row shapes the gate reads:
    ``codec``/``step_s`` rows and ``engine``/``update_s`` rows, one median
    per group."""
    repo_root = Path(__file__).resolve().parents[2]
    for name, group_key, value_key in (
        ("SWEEP_engine_smoke.json", "codec", "step_s"),
        ("SWEEP_weak_scaling.json", "engine", "update_s"),
    ):
        payload = json.loads((repo_root / name).read_text(encoding="utf-8"))
        rows = payload["series"]["trajectory"]
        groups = sorted({str(row[group_key]) for row in rows})
        metrics = check_trajectory.extract_metrics(payload)
        timed = {key: value for key, value in metrics.items() if value[1] == "lower"}
        assert sorted(timed) == [f"median_step_s:{group}" for group in groups]
        for group in groups:
            samples = sorted(row[value_key] for row in rows if str(row[group_key]) == group)
            assert min(samples) <= timed[f"median_step_s:{group}"][0] <= max(samples)


def test_ungrouped_rows_pool_and_unusable_rows_are_skipped():
    metrics = check_trajectory.extract_metrics(
        {
            "series": {
                "trajectory": [
                    {"repeat": 0, "step_s": 1.0},
                    {"repeat": 1, "update_s": 3.0},
                    {"repeat": 2, "step_s": "fast"},  # not a number
                    "not-a-row",
                ]
            }
        }
    )
    assert metrics == {"median_step_s:all": (2.0, "lower")}
    assert check_trajectory.extract_metrics({"series": {"trajectory": "junk"}}) == {}
    assert check_trajectory.extract_metrics({"series": "junk"}) == {}


def test_fields_outside_the_sweep_shape_are_not_headline_metrics():
    """Restore latencies, ``*_pct`` mappings, ``mean_update_s`` and a
    top-level ``trajectory`` list are not part of a sweep table, so nothing
    is gated on them."""
    assert check_trajectory.extract_metrics(
        {
            "restore_latency_s": 0.5,
            "overhead_pct": {"async": 3.0},
            "mean_update_s": {"async": 0.2},
            "trajectory": [{"mode": "async", "step_s": 0.1}],
        }
    ) == {}


def test_unreadable_candidate_table_is_a_regression(tmp_path):
    baseline_dir = tmp_path / "baseline"
    candidate_dir = tmp_path / "candidate"
    write_table(baseline_dir, "SWEEP_a.json", {"median_speedup": 2.0})
    candidate_dir.mkdir()
    (candidate_dir / "SWEEP_a.json").write_text("{truncated")
    problems, checked = check_trajectory.compare_directories(baseline_dir, candidate_dir)
    assert checked == []
    assert len(problems) == 1 and "SWEEP_a.json: unreadable table" in problems[0]


def test_non_positive_baseline_is_not_compared():
    baseline = {"restore_ok_ratio": (0.0, "higher"), "median_step_s:all": (0.0, "lower")}
    candidate = {"restore_ok_ratio": (0.0, "higher"), "median_step_s:all": (9.9, "lower")}
    assert check_trajectory.compare_metrics(baseline, candidate) == []


def test_non_positive_threshold_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        check_trajectory.main(
            ["--baseline", str(tmp_path), "--candidate", str(tmp_path), "--threshold", "0"]
        )
    assert excinfo.value.code == 2
