#!/usr/bin/env python
"""Paper-scale pre-training study on the simulator (Figures 7-10).

Reproduces the single-node model-size scalability experiment: 40B-120B
parameter models on a Testbed-1 node (4×H100-80GB, NVMe + VAST PFS),
comparing DeepSpeed ZeRO-3 NVMe offloading against MLP-Offload.  The cells
are the ``model_size`` scenario matrix of :mod:`repro.sweep`.

Run with::

    python examples/pretrain_study.py [model ...]
"""

from __future__ import annotations

import sys

from repro.bench.harness import format_table
from repro.sweep import matrix_by_name
from repro.sweep.runner import run_sim_cell
from repro.tiers.spec import TESTBED_1


def main(models) -> None:
    print(f"testbed: {TESTBED_1.name} — {TESTBED_1.gpus_per_node} GPUs, "
          f"NVMe {TESTBED_1.tier('nvme').read_bw/1e9:.1f}/{TESTBED_1.tier('nvme').write_bw/1e9:.1f} GB/s, "
          f"PFS {TESTBED_1.tier('pfs').read_bw/1e9:.1f}/{TESTBED_1.tier('pfs').write_bw/1e9:.1f} GB/s")
    cells = matrix_by_name("model_size").cells(include={"model": models} if models else None)
    if not cells:
        raise SystemExit(f"no model_size cell for {models}")
    sweep = {}
    for cell in cells:
        sweep.setdefault(cell["model"], {})[cell["engine"]] = run_sim_cell(cell)
    rows = []
    for model_name, engines in sweep.items():
        baseline = engines["DeepSpeed ZeRO-3"]
        ours = engines["MLP-Offload"]
        rows.append(
            {
                "model": model_name,
                "zero3_fwd_s": baseline["forward_s"],
                "zero3_bwd_s": baseline["backward_s"],
                "zero3_upd_s": baseline["update_s"],
                "mlp_fwd_s": ours["forward_s"],
                "mlp_bwd_s": ours["backward_s"],
                "mlp_upd_s": ours["update_s"],
                "speedup": baseline["iteration_s"] / ours["iteration_s"],
                "io_gain": ours["io_gbps"] / baseline["io_gbps"],
            }
        )
    print(format_table(rows, title="Iteration breakdown: DeepSpeed ZeRO-3 vs MLP-Offload (simulated)"))
    print("\npaper headline: 2.5x faster iterations, 2-2.6x higher effective I/O throughput")


if __name__ == "__main__":
    main(sys.argv[1:])
