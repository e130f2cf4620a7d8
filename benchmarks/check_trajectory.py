"""Regression gate over ``SWEEP_*.json`` sweep result tables.

The sweep-smoke CI job regenerates a sweep result table (``python -m
repro.sweep``) and runs this comparator against the repo-committed table: a
headline metric that regressed by more than the threshold (25% by default)
fails the job.

Headline metrics extracted from each payload:

* **ratio/speedup scalars** — any top-level ``*ratio``/``*speedup`` key
  (``median_speedup``, ``reference_match_ratio``, ``restore_ok_ratio``, …;
  higher is better);
* per-group **median step/update time** — from ``series.trajectory`` rows
  (``step_s``/``update_s`` grouped by ``mode``/``codec``/``engine``; lower
  is better).

Very small baselines (below ``--floor`` seconds) are skipped for the
time metrics: a 2 ms step regressing to 3 ms is scheduler noise, not a
signal.

``--ratios-only`` restricts the gate to the machine-independent ratio and
speedup scalars.  Use it whenever baseline and candidate come from
*different machines*: raw wall-clock does not transfer across machines,
dimensionless headline metrics do.

Wall-clock performance of the functional engine is measured by
``python -m e2e_bench compare --pairs N``, not by this gate.

Usage::

    python benchmarks/check_trajectory.py --baseline <dir> --candidate <dir>

Exit status: 0 = no regression, 1 = regression (or a baseline table
missing from the candidate side), 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List, Tuple

#: metric name → (value, direction); direction is "lower" or "higher".
Metrics = Dict[str, Tuple[float, str]]

#: Keys a trajectory row may group by, in priority order.
_GROUP_KEYS = ("mode", "codec", "engine")
#: Keys a trajectory row may carry its sample under.
_VALUE_KEYS = ("step_s", "update_s")
#: Time-like metrics below this many seconds are noise, not signal.
DEFAULT_FLOOR_SECONDS = 0.005
#: Result-table files the directory comparison gates.
TRAJECTORY_GLOB = "SWEEP_*.json"


def extract_metrics(payload: dict) -> Metrics:
    """Headline metrics of one ``SWEEP_*.json`` payload."""
    metrics: Metrics = {}
    for name, value in sorted(payload.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool) and (
            name.endswith("speedup") or name.endswith("ratio")
        ):
            metrics[name] = (float(value), "higher")
    series = payload.get("series")
    rows = series.get("trajectory") if isinstance(series, dict) else None
    by_group: Dict[str, List[float]] = {}
    for row in rows if isinstance(rows, list) else []:
        if not isinstance(row, dict):
            continue
        group = next((str(row[k]) for k in _GROUP_KEYS if k in row), "all")
        value = next(
            (row[k] for k in _VALUE_KEYS if isinstance(row.get(k), (int, float))), None
        )
        if value is not None:
            by_group.setdefault(group, []).append(float(value))
    for group, values in sorted(by_group.items()):
        metrics[f"median_step_s:{group}"] = (median(values), "lower")
    return metrics


def compare_metrics(
    baseline: Metrics,
    candidate: Metrics,
    *,
    threshold: float = 0.25,
    floor_seconds: float = DEFAULT_FLOOR_SECONDS,
    ratios_only: bool = False,
) -> List[str]:
    """Regressions of ``candidate`` against ``baseline`` (empty = clean).

    A lower-is-better metric regresses when it grew by more than
    ``threshold`` (relative); higher-is-better when it shrank by more than
    ``threshold``.  A metric missing on the candidate side is a regression
    (the sweep stopped reporting it); new candidate-only metrics are fine.
    ``ratios_only`` drops the raw-duration metrics, keeping only the
    machine-independent ones (for cross-machine comparisons).
    """
    problems: List[str] = []
    for name, (base_value, direction) in sorted(baseline.items()):
        if ratios_only and direction == "lower":
            continue  # raw duration: does not transfer across machines
        if name not in candidate:
            problems.append(f"{name}: missing from candidate (baseline {base_value:.6g})")
            continue
        cand_value = candidate[name][0]
        if base_value <= 0:
            continue  # degenerate baseline; nothing meaningful to compare
        if direction == "lower":
            # Every lower-is-better headline metric is a duration; below the
            # noise floor a relative comparison measures the scheduler, not
            # the code.
            if base_value < floor_seconds:
                continue
            if cand_value > base_value * (1.0 + threshold):
                problems.append(
                    f"{name}: {base_value:.6g} -> {cand_value:.6g} "
                    f"(+{(cand_value / base_value - 1.0) * 100.0:.1f}%, "
                    f"budget +{threshold * 100.0:.0f}%)"
                )
        elif cand_value < base_value / (1.0 + threshold):
            problems.append(
                f"{name}: {base_value:.6g} -> {cand_value:.6g} "
                f"(-{(1.0 - cand_value / base_value) * 100.0:.1f}%, "
                f"budget -{threshold * 100.0:.0f}%)"
            )
    return problems


def compare_directories(
    baseline_dir: Path,
    candidate_dir: Path,
    *,
    threshold: float = 0.25,
    floor_seconds: float = DEFAULT_FLOOR_SECONDS,
    ratios_only: bool = False,
) -> Tuple[List[str], List[str]]:
    """Compare every ``SWEEP_*.json`` of ``baseline_dir`` with its candidate."""
    problems: List[str] = []
    checked: List[str] = []
    baselines = sorted(baseline_dir.glob(TRAJECTORY_GLOB))
    if not baselines:
        problems.append(f"no {TRAJECTORY_GLOB} baselines in {baseline_dir}")
        return problems, checked
    for path in baselines:
        candidate_path = candidate_dir / path.name
        if not candidate_path.is_file():
            problems.append(f"{path.name}: candidate table was not produced")
            continue
        try:
            base_payload = json.loads(path.read_text(encoding="utf-8"))
            cand_payload = json.loads(candidate_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{path.name}: unreadable table ({exc})")
            continue
        for problem in compare_metrics(
            extract_metrics(base_payload),
            extract_metrics(cand_payload),
            threshold=threshold,
            floor_seconds=floor_seconds,
            ratios_only=ratios_only,
        ):
            problems.append(f"{path.name}: {problem}")
        checked.append(path.name)
    return problems, checked


def main(argv: "Iterable[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="directory holding the committed SWEEP_*.json tables",
    )
    parser.add_argument(
        "--candidate", type=Path, required=True,
        help="directory holding the freshly produced SWEEP_*.json tables",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative regression budget per headline metric (default 0.25)",
    )
    parser.add_argument(
        "--floor", type=float, default=DEFAULT_FLOOR_SECONDS,
        help="seconds below which time-like baselines are treated as noise",
    )
    parser.add_argument(
        "--ratios-only", action="store_true",
        help="gate only machine-independent metrics (ratios/speedups) — use "
        "when baseline and candidate ran on different machines",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.threshold <= 0:
        parser.error("--threshold must be positive")
    problems, checked = compare_directories(
        args.baseline, args.candidate,
        threshold=args.threshold, floor_seconds=args.floor,
        ratios_only=args.ratios_only,
    )
    for name in checked:
        print(f"checked {name}")
    if problems:
        print(f"\n{len(problems)} regression problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  REGRESSION {problem}", file=sys.stderr)
        return 1
    print(f"no regressions across {len(checked)} result table(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
