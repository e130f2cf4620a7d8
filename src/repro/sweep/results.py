"""Sweep result tables: ``SWEEP_<matrix>.json`` payloads and figure ports.

The machine-readable result table of a sweep is a
:func:`repro.bench.harness.trajectory_payload` record, the shape
``benchmarks/check_trajectory.py`` gates:

* ``series.cells`` — one row per cell: parameters + ``<metric>_median`` /
  ``<metric>_iqr`` columns + boolean check conjunctions (the LaTeX-table
  shape of snippet 2's ``generate_table.sh``);
* ``series.trajectory`` — one row per (cell, repeat) carrying the raw sample
  under the comparator's grouping keys (``engine``/``mode``/``codec``), so
  per-group step medians are gated on same-machine comparisons;
* ``boxplot`` — per-metric, per-cell five-number summaries ready to plot;
* headline scalars the ``--ratios-only`` gate keeps: ``median_speedup`` for
  matrices that compare engines or ablation rungs (dimensionless,
  machine-independent) and ``reference_match_ratio`` / ``restore_ok_ratio``
  for real-engine matrices (fractions of cells whose bitwise checks passed).
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentResult, trajectory_payload
from repro.sweep.matrix import ScenarioMatrix
from repro.sweep.runner import CellRecord, SweepError
from repro.sweep.stats import cell_checks, summarize_cell, table_row

#: ``check_trajectory`` groups trajectory rows by these keys (priority order).
_GROUPABLE_AXES = ("mode", "codec", "engine")


def _axis_params(matrix: ScenarioMatrix, record: CellRecord) -> Dict[str, Any]:
    return {name: record.params[name] for name in matrix.axis_names}


def _cell_label(matrix: ScenarioMatrix, record: CellRecord) -> str:
    return ",".join(f"{k}={v}" for k, v in _axis_params(matrix, record).items())


def _trajectory_group(matrix: ScenarioMatrix, record: CellRecord) -> Dict[str, Any]:
    """The grouping column of one cell's trajectory rows.

    Prefers an axis the comparator already groups by (``engine``/``codec``);
    otherwise (ablation ladders, multi-knob engine matrices) the whole cell
    label becomes a ``mode`` so every cell gets its own gated median.
    """
    for axis in _GROUPABLE_AXES:
        if axis in matrix.axis_names:
            return {axis: record.params[axis]}
    return {"mode": _cell_label(matrix, record)}


def _value_key(matrix: ScenarioMatrix) -> str:
    return "update_s" if matrix.kind == "sim" else "step_s"


def _sample_metric(matrix: ScenarioMatrix) -> str:
    return "update_s" if matrix.kind == "sim" else "mean_step_s"


def build_experiment_result(
    matrix: ScenarioMatrix, records: Sequence[CellRecord]
) -> ExperimentResult:
    """Collapse cell records into the standard rows-by-series experiment shape."""
    result = ExperimentResult(
        experiment=f"sweep-{matrix.name}",
        description=matrix.description or f"scenario sweep over {matrix.name}",
    )
    value_key = _value_key(matrix)
    sample_metric = _sample_metric(matrix)
    for record in records:
        result.add_row(series="cells", **table_row(_axis_params(matrix, record), record.repeats))
        group = _trajectory_group(matrix, record)
        for repeat_index, metrics in enumerate(record.repeats):
            sample = metrics.get(sample_metric)
            if isinstance(sample, (int, float)) and not isinstance(sample, bool):
                result.add_row(
                    series="trajectory",
                    **group,
                    repeat=repeat_index,
                    **{value_key: float(sample)},
                )
    return result


def _engine_pair_speedups(records: Sequence[CellRecord]) -> List[float]:
    """Baseline-over-offload iteration-time ratios per non-engine cell group."""
    groups: Dict[str, Dict[str, float]] = {}
    for record in records:
        engine = record.params.get("engine")
        if engine is None:
            continue
        rest = json.dumps({k: v for k, v in record.params.items() if k != "engine"}, sort_keys=True)
        value = summarize_cell(record.repeats).get("iteration_s", {}).get("median")
        if value is not None:
            groups.setdefault(rest, {})[str(engine)] = value
    return [
        pair["DeepSpeed ZeRO-3"] / pair["MLP-Offload"]
        for pair in groups.values()
        if "DeepSpeed ZeRO-3" in pair and "MLP-Offload" in pair and pair["MLP-Offload"] > 0
    ]


def _ladder_speedups(records: Sequence[CellRecord]) -> List[float]:
    """First-rung-over-last-rung iteration-time ratios per ablation model."""
    by_model: Dict[str, List[CellRecord]] = {}
    for record in records:
        if "variant" in record.params:
            by_model.setdefault(str(record.params.get("model")), []).append(record)
    speedups: List[float] = []
    for cells in by_model.values():
        first = summarize_cell(cells[0].repeats).get("iteration_s", {}).get("median")
        last = summarize_cell(cells[-1].repeats).get("iteration_s", {}).get("median")
        if first is not None and last is not None and last > 0:
            speedups.append(first / last)
    return speedups


def build_payload(
    matrix: ScenarioMatrix,
    records: Sequence[CellRecord],
    *,
    repeats: int,
    include_timing: bool = True,
) -> Dict[str, Any]:
    """The ``SWEEP_<matrix>.json`` trajectory payload of one sweep.

    ``include_timing=False`` drops the runner's own wall-clock bookkeeping
    (the only nondeterministic part of a sim sweep) so fixed-seed payloads
    compare byte-for-byte — the golden-file tests build with it off.
    """
    if not records:
        raise SweepError("cannot build a payload from zero cell records")
    result = build_experiment_result(matrix, records)
    boxplot: Dict[str, Dict[str, Dict[str, float]]] = {}
    for record in records:
        label = _cell_label(matrix, record)
        for metric, summary in summarize_cell(record.repeats).items():
            boxplot.setdefault(metric, {})[label] = summary
    extra: Dict[str, Any] = {
        "matrix": matrix.name,
        "kind": matrix.kind,
        "repeats": repeats,
        "cell_count": len(records),
        "cell_keys": [record.key for record in records],
        "boxplot": boxplot,
    }
    if include_timing:
        extra["runner_elapsed_s"] = sum(sum(r.elapsed_s) for r in records)

    speedups = _engine_pair_speedups(records) or _ladder_speedups(records)
    if speedups:
        extra["median_speedup"] = float(median(speedups))
    check_totals: Dict[str, List[bool]] = {}
    for record in records:
        for name, passed in cell_checks(record.repeats).items():
            check_totals.setdefault(name, []).append(passed)
    if "matches_reference" in check_totals:
        flags = check_totals["matches_reference"]
        extra["reference_match_ratio"] = sum(flags) / len(flags)
    if "restore_ok" in check_totals:
        flags = check_totals["restore_ok"]
        extra["restore_ok_ratio"] = sum(flags) / len(flags)

    result.add_note(
        f"{len(records)} cell(s) x {repeats} repeat(s); medians/IQR per cell in "
        "series.cells, five-number summaries in boxplot"
    )
    return trajectory_payload(result, **extra)


def payload_path(results_dir: "str | Path", matrix_name: str, tag: Optional[str] = None) -> Path:
    return Path(results_dir) / f"SWEEP_{tag or matrix_name}.json"


def write_payload(path: "str | Path", payload: Dict[str, Any]) -> Path:
    """Write a sweep payload deterministically (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Figure ports — rebuild the paper-figure row shape from sweep records
# ---------------------------------------------------------------------------

#: Figure metric columns, in row order.
_FIGURE_FIELDS = (
    "forward_s",
    "backward_s",
    "update_s",
    "iteration_s",
    "update_mparams_per_s",
    "io_gbps",
    "cache_hit_rate",
)


def figure_result(matrix: ScenarioMatrix, records: Sequence[CellRecord]) -> ExperimentResult:
    """Tabulate a paper figure's ``ExperimentResult`` rows from sim sweep records.

    One row per cell in matrix order: a key column (``config`` as
    ``<model>[<gpus>]`` for ``weak_scaling``, ``batch_size`` for
    ``batch_size``, else ``model``), the ``engine`` column (the cell's engine
    or ablation rung) and the :data:`_FIGURE_FIELDS` metrics.  Every
    simulated figure (7–9, 11–15) is one of these tables.
    """
    if matrix.kind != "sim":
        raise SweepError("figure ports are defined for sim matrices only")
    result = ExperimentResult(
        experiment=f"sweep-{matrix.name}",
        description=matrix.description,
    )
    for record in records:
        if not record.repeats:
            raise SweepError(f"cell {record.key} has no repeats to tabulate")
        metrics = record.repeats[0]  # sim cells are deterministic across repeats
        if "config" in record.params:
            model, _, _nodes = str(record.params["config"]).partition("@")
            key_column = {"config": f"{model}[{int(metrics['num_gpus'])}]"}
        elif "batch_size" in record.params:
            key_column = {"batch_size": record.params["batch_size"]}
        else:
            key_column = {"model": record.params["model"]}
        label = record.params.get("engine", record.params.get("variant"))
        result.add_row(
            **key_column,
            engine=label,
            **{name: metrics[name] for name in _FIGURE_FIELDS},
        )
    return result
