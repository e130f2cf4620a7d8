"""Discrete-event simulation of offloaded training at paper scale.

The functional engine proves the algorithms correct on real (tiny) state;
this subpackage reproduces the paper's *timing* results for 40B–280B models
on the Table 1 testbeds, where the real optimizer state would be terabytes.

The simulator is a fluid (processor-sharing) discrete-event model:

* :mod:`repro.sim.resources` — bandwidth-shared resources (NVMe, PFS, PCIe,
  CPU update slots) with optional exclusive access and contention penalties;
* :mod:`repro.sim.workload` — derives per-worker subgroup workloads, cache
  capacities and compute costs from a model configuration, topology and
  testbed;
* :mod:`repro.sim.pipeline` — simulates the update-phase subgroup pipeline
  (prefetch / convert / compute / H2D / lazy flush) for any engine variant;
* :mod:`repro.sim.iteration` — full iteration simulation (forward, backward,
  update) including ZeRO-3 communication and gradient-flush behaviour;
* :mod:`repro.sim.metrics` — result records mirroring the paper's metrics.

The paper's experiment grids (model sizes, node counts, batch sizes,
ablation ladders) are :mod:`repro.sweep` scenario matrices whose ``sim``
cells call :func:`simulate_iteration`.
"""

from repro.sim.metrics import IterationResult, UpdatePhaseResult
from repro.sim.workload import EngineKnobs, UpdateWorkload, build_workload
from repro.sim.pipeline import simulate_update_phase
from repro.sim.iteration import IterationModel, simulate_iteration

__all__ = [
    "IterationResult",
    "UpdatePhaseResult",
    "EngineKnobs",
    "UpdateWorkload",
    "build_workload",
    "simulate_update_phase",
    "IterationModel",
    "simulate_iteration",
]
