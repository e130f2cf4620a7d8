"""Scenario-matrix sweep harness: declarative matrices, N-repeat statistics.

The performance-axis counterpart of the fault campaign: argument-product
matrices over the paper's experiment axes (and real-engine knob grids), an
interrupt-safe runner with content-addressed per-cell records, median/IQR
statistics, and ``SWEEP_*.json`` result tables gated by
``benchmarks/check_trajectory.py``.  Drive it with
``python -m repro.sweep`` (or the ``repro-sweep`` console script).
"""

from repro.sweep.matrix import (
    MATRICES,
    Axis,
    MatrixError,
    ScenarioMatrix,
    campaign_sample,
    cell_key,
    matrix_by_name,
)
from repro.sweep.results import build_payload, figure_result, payload_path, write_payload
from repro.sweep.runner import CellRecord, SweepError, SweepReport, SweepRunner

__all__ = [
    "MATRICES",
    "Axis",
    "CellRecord",
    "MatrixError",
    "ScenarioMatrix",
    "SweepError",
    "SweepReport",
    "SweepRunner",
    "build_payload",
    "campaign_sample",
    "cell_key",
    "figure_result",
    "matrix_by_name",
    "payload_path",
    "write_payload",
]
