#!/usr/bin/env python
"""Ablation study: progressive activation of the MLP-Offload design principles.

Regenerates the paper's Figures 14 and 15 on the simulator: starting from the
DeepSpeed ZeRO-3 baseline, enable cache-friendly reordering, delayed gradient
conversion, tier-exclusive concurrency control and finally multi-path I/O,
and report how much each step contributes.  The cells are the
``ablation_nvme`` and ``ablation_multipath`` scenario matrices of
:mod:`repro.sweep`.

Run with::

    python examples/ablation_study.py [model ...]
"""

from __future__ import annotations

import sys

from repro.bench.harness import format_table
from repro.sweep import matrix_by_name
from repro.sweep.runner import run_sim_cell


def main(models) -> None:
    for matrix_name, figure in (
        ("ablation_nvme", "Figure 14 — node-local NVMe only"),
        ("ablation_multipath", "Figure 15 — NVMe + PFS"),
    ):
        cells = matrix_by_name(matrix_name).cells(include={"model": models} if models else None)
        if not cells:
            raise SystemExit(f"no {matrix_name} cell for {models}")
        rows = []
        first = {}
        for cell in cells:
            metrics = run_sim_cell(cell)
            baseline = first.setdefault(cell["model"], metrics["iteration_s"])
            rows.append(
                {
                    "model": cell["model"],
                    "variant": cell["variant"],
                    "iteration_s": metrics["iteration_s"],
                    "update_s": metrics["update_s"],
                    "backward_s": metrics["backward_s"],
                    "speedup_vs_first": baseline / metrics["iteration_s"],
                }
            )
        print(format_table(rows, title=figure))
        print()
    print("paper headline: each principle contributes; all of them plus multi-path reach ~2.5x")


if __name__ == "__main__":
    main(sys.argv[1:])
