"""Comparing two sets of end-to-end numbers: files, pairs, self-check.

The rules are the choosing-metrics guide's.  Between two result files, a
(workload, metric) row is ``regressed`` when B is worse than A by more than
the metric's bound on that workload, ``unresolved`` — not unchanged — when
either side's run-to-run spread (see :func:`run_spread`) is wider than that
bound or cannot be known, else ``ok``.  With ``--pairs``, a gain is claimed
only when the change wins at least nine tenths of the alternating pairs and
the medians differ by more than the distance between the parent's own
quartiles.
"""

from __future__ import annotations

from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Sequence

from e2e_bench import spec, suite
from e2e_bench.spec import Workload


def worse_by(metric: spec.EndToEnd, base: float, other: float) -> float:
    """Share of ``base`` by which ``other`` is worse (negative = better)."""
    change = (other - base) / base
    return change if metric.better == "lower" else -change


def run_spread(m: Dict[str, Any]) -> Optional[float]:
    """Run-to-run spread of a metric: the quartile distance of its
    per-repetition values (fresh processes, fresh engines) as a share of their
    median.  ``None`` with fewer than two repetitions: one value per side
    says nothing about how far two runs of the same code lie apart."""
    if m["n"] < 2:
        return None
    return (m["q3"] - m["q1"]) / abs(m["value"])


def compare_results(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both results."""
    rows = []
    for name, entry in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            continue
        for metric in spec.END_TO_END:
            ma, mb = entry["end_to_end"].get(metric.name), other["end_to_end"].get(metric.name)
            if ma is None or mb is None:
                continue
            bound = metric.bound_on(name)
            spreads = [run_spread(ma), run_spread(mb)]
            spread = None if None in spreads else max(spreads)
            change = worse_by(metric, ma["value"], mb["value"])
            if spread is None or spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a": ma,
                    "b": mb,
                    "ratio": mb["value"] / ma["value"],
                    "spread": spread,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
        fa = entry["end_to_end"][spec.FAILED_OPS_SHARE]
        fb = other["end_to_end"][spec.FAILED_OPS_SHARE]
        rows.append(
            {
                "workload": name,
                "metric": spec.FAILED_OPS_SHARE,
                "unit": "ratio",
                "a": fa,
                "b": fb,
                "ratio": float("nan"),
                "spread": 0.0,
                "bound": 0.0,
                "verdict": "ok" if fb["value"] == 0 else "regressed",
            }
        )
    return rows


def format_rows(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<20} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        cells = [
            f"{m['value']:.5g} [{m.get('q1', m['value']):.5g}, {m.get('q3', m['value']):.5g}]"
            for m in (row["a"], row["b"])
        ]
        lines.append(
            f"{row['workload']:<16} {row['metric']:<20} {cells[0]:>36} {cells[1]:>36} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def selfcheck_rows(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rows on which two runs of the same code disagree: medians further apart
    than the bound, in either direction, or a failed operation.

    An ``unresolved`` row is printed as such and is not a disagreement: one
    slow process among a side's three repetitions is enough to make one (about
    one process in ten runs a quarter slower from start to end on this
    sandbox), and the medians are what the gate compares.
    """
    return [
        row
        for row in rows
        if (
            row["verdict"] == "regressed"
            if row["metric"] == spec.FAILED_OPS_SHARE
            else abs(row["ratio"] - 1.0) > row["bound"]
        )
    ]


def paired(
    workloads: Sequence[Workload],
    *,
    parent: Path,
    change: Path,
    pairs: int,
    seed: int,
    out_dir: Path,
) -> List[Dict[str, Any]]:
    """Alternating parent/change pairs, one repetition a side, same benchmark code."""
    rows = []
    for workload in workloads:
        sides: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                rep = suite.launch(
                    workload,
                    seed=seed + pair,
                    trace=False,
                    toy=False,
                    out_dir=out_dir,
                    src=parent if side == "parent" else change,
                    steps=workload.steps,
                )
                if rep["error"] or rep["ops"]["failed"]:
                    raise suite.BenchmarkFailure(
                        f"{workload.name} ({side}, pair {pair}): {rep['error'] or rep['ops']}"
                    )
                for name, m in suite.end_to_end(workload, [rep]).items():
                    if name != spec.FAILED_OPS_SHARE:
                        sides[side].setdefault(name, []).append(m["value"])
        for metric in spec.END_TO_END:
            if metric.name not in sides["parent"]:
                continue
            base, new = sides["parent"][metric.name], sides["change"][metric.name]
            changes = [worse_by(metric, p, c) for p, c in zip(base, new)]
            wins = sum(c < 0 for c in changes)
            losses = sum(c > 0 for c in changes)
            q1, _, q3 = quantiles(base, n=4)
            beyond_spread = abs(median(new) - median(base)) > q3 - q1
            bound = metric.bound_on(workload.name)
            if wins >= 0.9 * pairs and beyond_spread:
                verdict = "gain"
            elif (q3 - q1) / abs(median(base)) > bound:
                verdict = "unresolved"
            elif worse_by(metric, median(base), median(new)) > bound:
                verdict = "regressed"
            else:
                verdict = "within bound"
            rows.append(
                {
                    "workload": workload.name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "parent_median": median(base),
                    "parent_q1": q1,
                    "parent_q3": q3,
                    "change_median": median(new),
                    "ratio": median(new) / median(base),
                    "wins": wins,
                    "losses": losses,
                    "pairs": pairs,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def format_paired(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<20} {'parent median [q1, q3]':>38} {'change median':>14} "
        f"{'chg/par':>8} {'wins':>9}  verdict"
    ]
    for r in rows:
        base = f"{r['parent_median']:.5g} [{r['parent_q1']:.5g}, {r['parent_q3']:.5g}]"
        lines.append(
            f"{r['workload']:<16} {r['metric']:<20} {base:>38} {r['change_median']:>14.5g} "
            f"{r['ratio']:>8.3f} {r['wins']:>4}/{r['pairs']:<4}  {r['verdict']}"
        )
    return "\n".join(lines)
