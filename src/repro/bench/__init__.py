"""Experiment harness regenerating every table and figure of the paper's evaluation."""

from repro.bench.harness import ExperimentResult, format_table
from repro.bench import experiments

__all__ = ["ExperimentResult", "format_table", "experiments"]
