"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper, prints the
measured rows next to the paper's headline numbers and asserts the
qualitative shape (who wins, by roughly what factor, where crossovers fall).
The simulated figures (7–9 and 11–15) run their :mod:`repro.sweep` scenario
matrix through the ``sweep_figure`` fixture and tabulate it with
:func:`~repro.sweep.results.figure_result`; the rest call
:mod:`repro.bench.experiments`.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentResult, format_table
from repro.sweep import SweepRunner, figure_result, matrix_by_name


def report(result: ExperimentResult) -> None:
    """Print an experiment's rows and notes underneath the benchmark output."""
    print()
    print(format_table(result.rows, title=f"[{result.experiment}] {result.description}"))
    for note in result.notes:
        print(f"  note: {note}")


@pytest.fixture
def show():
    return report


@pytest.fixture
def sweep_figure(tmp_path):
    """``sweep_figure(matrix_name, include=None)`` → the figure's rows.

    Every call simulates every selected cell afresh (``resume=False``), so
    each benchmark round times the figure, not a skip-by-address resume of
    the previous round's records.
    """

    def run(matrix_name: str, include=None) -> ExperimentResult:
        matrix = matrix_by_name(matrix_name)
        runner = SweepRunner(matrix, repeats=1, sweep_dir=tmp_path, resume=False, include=include)
        return figure_result(matrix, runner.run().records)

    return run
