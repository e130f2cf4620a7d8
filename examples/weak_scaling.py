#!/usr/bin/env python
"""Weak-scaling study: 40B on 4 GPUs up to 280B on 32 GPUs (Figures 11-12).

Tensor parallelism within a node, data parallelism across nodes, on the
Testbed-2 (Polaris-like) configuration, comparing DeepSpeed ZeRO-3 with
MLP-Offload.  The cells are the ``weak_scaling`` scenario matrix of
:mod:`repro.sweep` (``<model>@<nodes>``).  Also reports the §4.4
cost-effectiveness comparison against GPU-only training of the 70B model.

Run with::

    python examples/weak_scaling.py
"""

from __future__ import annotations

from repro.bench import experiments
from repro.bench.harness import format_table
from repro.sweep import matrix_by_name
from repro.sweep.runner import run_sim_cell


def main() -> None:
    sweep = {}
    for cell in matrix_by_name("weak_scaling").cells():
        sweep.setdefault(cell["config"], {})[cell["engine"]] = run_sim_cell(cell)
    rows = []
    for config, engines in sweep.items():
        baseline = engines["DeepSpeed ZeRO-3"]
        ours = engines["MLP-Offload"]
        rows.append(
            {
                "config": config,
                "gpus": baseline["num_gpus"],
                "zero3_iter_s": baseline["iteration_s"],
                "mlp_iter_s": ours["iteration_s"],
                "speedup": baseline["iteration_s"] / ours["iteration_s"],
                "zero3_mparams_s": baseline["update_mparams_per_s"],
                "mlp_mparams_s": ours["update_mparams_per_s"],
            }
        )
    print(format_table(rows, title="Weak scaling on Testbed-2 (model size grown with node count)"))

    print()
    cost = experiments.cost_effectiveness_70b()
    print(format_table(cost.rows, title=cost.description))
    for note in cost.notes:
        print(f"  note: {note}")


if __name__ == "__main__":
    main()
