"""Small helpers shared by the experiment functions and the benchmark suite.

Each experiment function in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult` — a named collection of rows (dictionaries) plus
free-form notes — which the benchmark files print in a table next to the
numbers the paper reports, and on which they assert the qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import quantiles
from typing import Any, Dict, List, Mapping, Optional, Sequence


@dataclass
class ExperimentResult:
    """Rows produced by one experiment (one table or figure)."""

    experiment: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **fields: Any) -> None:
        self.rows.append(dict(fields))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """Values of one column across all rows (missing values become ``None``)."""
        return [row.get(name) for row in self.rows]

    def row_for(self, **match: Any) -> Dict[str, Any]:
        """First row whose fields match all of ``match`` (raises if none)."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in match.items()):
                return row
        raise KeyError(f"no row matching {match} in experiment {self.experiment!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return format_table(self.rows, title=f"{self.experiment}: {self.description}")


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], *, title: Optional[str] = None) -> str:
    """Render rows as a fixed-width text table (used by benches and examples)."""
    if not rows:
        return f"{title}\n  (no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        col: max(len(col), *(len(_format_value(row.get(col, ""))) for row in rows))
        for col in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(
            " | ".join(_format_value(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def trajectory_payload(result: ExperimentResult, **extra: Any) -> Dict[str, Any]:
    """The standard ``SWEEP_*.json`` result record of one experiment.

    Collects the experiment identity, every row grouped by its ``series``
    column, and the notes.  ``extra`` keys (headline scalars such as
    ``median_speedup``) are merged verbatim.
    """
    by_series: Dict[str, List[Dict[str, Any]]] = {}
    for row in result.rows:
        series = str(row.get("series", "rows"))
        by_series.setdefault(series, []).append(
            {k: v for k, v in row.items() if k != "series"}
        )
    payload: Dict[str, Any] = {
        "experiment": result.experiment,
        "description": result.description,
        "series": by_series,
        "notes": list(result.notes),
    }
    payload.update(extra)
    return payload


def five_number_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median/quartile summary of one metric's samples, boxplot-ready.

    Returns ``n``, ``mean``, ``min``/``max``, the quartiles ``q1``/``median``/
    ``q3``, the interquartile range ``iqr`` and the Tukey whiskers
    (``whisker_lo``/``whisker_hi``: the extreme samples within 1.5 IQR of the
    quartiles) — everything a boxplot or a result table needs, computed once
    here so the sweep statistics layer and the benchmark suite agree on the
    definitions.  Quartiles use the linear interpolation convention of
    ``statistics.quantiles(..., method="inclusive")``; a single sample is its
    own median with zero IQR.
    """
    if not values:
        raise ValueError("five_number_summary needs at least one sample")
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 1:
        q1 = med = q3 = data[0]
    else:
        q1, med, q3 = quantiles(data, n=4, method="inclusive")
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    return {
        "n": float(n),
        "mean": sum(data) / n,
        "min": data[0],
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": data[-1],
        "iqr": iqr,
        "whisker_lo": min(v for v in data if v >= lo_fence),
        "whisker_hi": max(v for v in data if v <= hi_fence),
    }
