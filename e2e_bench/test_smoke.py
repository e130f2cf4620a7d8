"""Tier-1-safe smoke test of the benchmark: structure only, no timing assertions.

Runs every workload at toy size (1/100, 3 steps) through the real commands
and checks that what comes out and what ``BENCHMARK.json`` declares are the
same names, within the builder contract's limits, that the oracle passed,
that no ``DeprecationWarning`` was raised, and that nothing outside the
output directory was written.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Sequence

import pytest

from e2e_bench import compare, spec, suite
from e2e_bench.__main__ import main, once_line

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: What building, testing and running leave behind (the root .gitignore's
#: entries, plus git's own directory).
SCRATCH_DIRS = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    ".hypothesis",
    ".ruff_cache",
    ".benchmarks",
    "sweep-cells",
}


def repo_fingerprint() -> Dict[str, str]:
    """Path -> SHA-256 of every file of the repo that is not scratch."""
    found = {}
    for path in sorted(ROOT.rglob("*")):
        relative = path.relative_to(ROOT)
        if SCRATCH_DIRS.intersection(relative.parts) or not path.is_file():
            continue
        found[str(relative)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_contract(declared: dict) -> None:
    assert set(declared) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["e2e_bench"]
    assert len(declared["command"]) <= 32
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names), "a name is used once"
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # The driver makes 4 + 22 x workloads runs within 3420 s; a run costs
    # its measuring time plus roughly 15 s of set-up, warm-up and oracle.
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * (declared["run_seconds"] + 15) <= 3420


def test_benchmark_json_agrees_with_spec(declared: dict) -> None:
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better, m.widest_bound)
        for m in spec.END_TO_END
        if m.name in spec.UNIVERSAL_END_TO_END
    ]
    partial = [spec.END_TO_END_BY_NAME[name] for name in spec.PARTIAL_END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in (*partial, *spec.LAYER_METRICS)
    ]


def _results(step_s: Sequence[float]) -> dict:
    """A results file holding one metric of one workload, from per-repetition values."""
    repetitions = [
        {
            "step_samples_s": [value] * 5,
            "setup_samples_s": [1.0],
            "params_per_step": 1,
            "peak_rss_mb": 1.0,
            "bytes_per_step": {"read": 1.0, "write": 1.0},
            "ops": {"attempted": 5, "failed": 0},
        }
        for value in step_s
    ]
    workload = spec.WORKLOADS_BY_NAME["cached_half"]
    return {"workloads": {workload.name: {"end_to_end": suite.end_to_end(workload, repetitions)}}}


def test_compare_judges_by_run_to_run_spread() -> None:
    def verdict(a: Sequence[float], b: Sequence[float]) -> str:
        rows = compare.compare_results(_results(a), _results(b))
        return {row["metric"]: row["verdict"] for row in rows}["step_s"]

    # cached_half's step_s bound is 5%.
    assert verdict([1.00, 1.01, 1.02], [1.00, 1.01, 1.02]) == "ok"
    assert verdict([1.00, 1.01, 1.02], [1.10, 1.11, 1.12]) == "regressed"
    assert verdict([1.00, 1.01, 1.02], [0.90, 0.91, 0.92]) == "ok"
    # Repetitions further apart than the bound, or a single one: not "ok", whatever the medians.
    assert verdict([0.90, 1.01, 1.12], [0.90, 1.01, 1.12]) == "unresolved"
    assert verdict([1.01], [1.11]) == "unresolved"


def test_toy_suite_end_to_end(declared: dict, tmp_path: Path) -> None:
    before = repo_fingerprint()

    # Traced: every workload; its children also run untraced steps, so one
    # suite yields every end-to-end and every layer metric.
    assert main(["trace", "--toy", "--steps", "3", "--out", str(tmp_path / "trace")]) == 0
    traced = json.loads((tmp_path / "trace" / "layers.json").read_text())
    assert list(traced["workloads"]) == [w["name"] for w in declared["workloads"]]
    universal = [m["name"] for m in declared["end_to_end"]]
    layer_names = [m["name"] for m in declared["per_layer"]]
    for name, entry in traced["workloads"].items():
        workload = spec.WORKLOADS_BY_NAME[name]
        expected = set(universal) | {spec.FAILED_OPS_SHARE}
        expected |= {m.name for m in spec.END_TO_END if name in m.workloads}
        assert set(entry["end_to_end"]) == expected, name
        assert list(entry["layers"]["metrics"]) == [m.name for m in spec.LAYER_METRICS]
        ops = entry["end_to_end"][spec.FAILED_OPS_SHARE]
        # 2 oracle checks per rank; the traced child timed 3 + 3 untraced and 3 traced steps.
        assert ops["failed"] == 0 and ops["attempted"] >= 9 + 2 * workload.ranks, name
        for rep in entry["repetitions"]:
            assert rep["error"] is None and rep["deprecation_warnings"] == [], name
            assert (tmp_path / "trace" / rep["chrome_trace"]).is_file()
        # The caller-thread spans plus self time are run_update, by construction.
        caller = dict(entry["layers"]["caller_thread_s"])
        update = caller.pop("run_update")
        assert update > 0 and abs(sum(caller.values()) - update) <= 1e-9 * update, name
        for trace_flag, wanted in ((False, universal), (True, layer_names)):
            line = once_line(traced, name, trace=trace_flag)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
            assert list(line["metrics"]) == wanted
            for value in line["metrics"].values():
                assert set(value) == {"value", "unit"} and isinstance(value["value"], float)

    # Untraced: one workload through run, then compare with itself.
    args = ["run", "--toy", "--steps", "3", "--repeats", "1", "--workload", "cached_half"]
    assert main([*args, "--out", str(tmp_path / "run")]) == 0
    results = json.loads((tmp_path / "run" / "results.json").read_text())
    assert results["launch_order"] == [["cached_half", 0]] and results["seed"] == 0
    rows = compare.compare_results(results, results)
    assert {row["metric"] for row in rows} == set(results["workloads"]["cached_half"]["end_to_end"])
    # One repetition a side carries no run-to-run spread: never "ok".
    assert {row["verdict"] for row in rows if row["metric"] != spec.FAILED_OPS_SHARE} == {
        "unresolved"
    }
    assert compare.format_rows(rows)

    assert repo_fingerprint() == before, "the benchmark wrote outside its output directory"
