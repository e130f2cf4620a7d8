"""Derive per-node update-phase workloads from model + testbed + engine knobs.

The workload captures everything the pipeline simulator needs to know about
one node's update phase:

* how many subgroups each worker owns and how many bytes each one moves in
  each direction (the baseline also fetches FP32 gradients);
* how many subgroups fit in the host cache (per worker) — sized from the
  memory estimator exactly as §4.1 describes (>90 % host-memory utilization
  after runtime buffers, gradient accumulation and pinned I/O buffers);
* how subgroups are split across the physical tiers (Equation 1, or
  everything on NVMe for single-path variants);
* CPU update / conversion throughput and PCIe bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.performance_model import allocate_subgroups
from repro.tiers.spec import NodeSpec, StorageTierSpec
from repro.train.memory_estimator import estimate_memory
from repro.train.model_zoo import (
    FP16_BYTES,
    FP16_GRAD_BYTES,
    FP32_GRAD_BYTES,
    OPTIMIZER_STATE_BYTES,
    ModelConfig,
)
from repro.train.parallelism import ParallelTopology
from repro.train.sharding import PAPER_SUBGROUP_SIZE


@dataclass(frozen=True)
class EngineKnobs:
    """The four design-principle switches, as seen by the simulator."""

    multipath: bool = True
    cache_reorder: bool = True
    delayed_grads: bool = True
    tier_locks: bool = True

    @classmethod
    def mlp_offload(cls) -> "EngineKnobs":
        return cls(True, True, True, True)

    @classmethod
    def zero3_baseline(cls) -> "EngineKnobs":
        return cls(False, False, False, False)


@dataclass
class UpdateWorkload:
    """One node's update-phase workload (symmetric across its workers)."""

    workers: int
    subgroups_per_worker: int
    subgroup_params: int
    #: Bytes fetched from storage per (non-cached) subgroup.
    fetch_bytes_per_subgroup: float
    #: Bytes flushed to storage per (non-skipped) subgroup.
    flush_bytes_per_subgroup: float
    #: Host-cache capacity, in subgroups, per worker.
    cache_subgroups_per_worker: int
    #: CPU work per subgroup, expressed in parameters (conversion folded in).
    compute_params_per_subgroup: float
    #: FP16 parameter bytes pushed to the GPU per subgroup.
    h2d_bytes_per_subgroup: float
    #: Per-worker split of subgroups across physical tiers (Equation 1).
    tier_allocation: Dict[str, int]
    #: The physical tiers visible to the node (bandwidths already scaled for
    #: PFS sharing across nodes).
    tiers: Dict[str, StorageTierSpec]
    knobs: EngineKnobs
    node: NodeSpec
    #: Total FP32-gradient bytes flushed per worker during the backward pass
    #: (zero for the delayed-conversion policy).
    backward_grad_flush_bytes_per_worker: float = 0.0

    @property
    def params_per_worker(self) -> int:
        return self.subgroups_per_worker * self.subgroup_params

    @property
    def optimizer_state_bytes_per_worker(self) -> float:
        return float(self.params_per_worker) * OPTIMIZER_STATE_BYTES

    def cache_hit_count(self) -> int:
        """Steady-state host-cache hits per worker per update phase.

        With the alternating order the resident tail of the previous phase is
        exactly the head of the next phase, so every cached subgroup hits;
        with the sequential order the resident tail is the part touched
        *last*, so (unless everything fits) the leading fetches evict it
        before it is reached and the hit count is zero.
        """
        cache = min(self.cache_subgroups_per_worker, self.subgroups_per_worker)
        if cache <= 0:
            return 0
        if cache >= self.subgroups_per_worker:
            return self.subgroups_per_worker
        return cache if self.knobs.cache_reorder else 0

    def skipped_flush_count(self) -> int:
        """Subgroups per worker left dirty in the host cache (no flush needed)."""
        cache = min(self.cache_subgroups_per_worker, self.subgroups_per_worker)
        if cache <= 0:
            return 0
        if cache >= self.subgroups_per_worker:
            return self.subgroups_per_worker
        # Both orders leave the last `cache` processed subgroups resident, but
        # the sequential order immediately evicts (and therefore flushes) them
        # at the start of the next phase with no reuse, so in steady state the
        # baseline writes every subgroup once per iteration.
        return cache if self.knobs.cache_reorder else 0

    def host_cached_bytes(self) -> float:
        """Bytes of optimizer state resident in host memory (Figure 10's "Host Mem.")."""
        cache = min(self.cache_subgroups_per_worker, self.subgroups_per_worker)
        return float(self.workers * cache * self.subgroup_params * OPTIMIZER_STATE_BYTES)

    def tier_distribution_bytes(self) -> Dict[str, float]:
        """Bytes of optimizer state per location for the whole node (Figure 10)."""
        distribution: Dict[str, float] = {"host": self.host_cached_bytes()}
        cache = min(self.cache_subgroups_per_worker, self.subgroups_per_worker)
        offloaded = self.subgroups_per_worker - cache
        total_alloc = sum(self.tier_allocation.values())
        for tier, count in self.tier_allocation.items():
            share = count / total_alloc if total_alloc else 0.0
            distribution[tier] = (
                self.workers * offloaded * share * self.subgroup_params * OPTIMIZER_STATE_BYTES
            )
        return distribution


def _scaled_tiers(node: NodeSpec, topology: ParallelTopology) -> Dict[str, StorageTierSpec]:
    """Scale shared-tier bandwidth by the number of nodes competing for it."""
    tiers: Dict[str, StorageTierSpec] = {}
    for name, tier in node.storage.items():
        if tier.shared_across_nodes and topology.num_nodes > 1:
            tiers[name] = tier.scaled(1.0 / topology.num_nodes)
        else:
            tiers[name] = tier
    return tiers


def build_workload(
    model: ModelConfig,
    node: NodeSpec,
    knobs: EngineKnobs,
    *,
    topology: Optional[ParallelTopology] = None,
    subgroup_size: int = PAPER_SUBGROUP_SIZE,
    pinned_buffer_subgroups: int = 3,
) -> UpdateWorkload:
    """Build one node's update-phase workload for a given engine variant."""
    if topology is None:
        topology = ParallelTopology.single_node(node.gpus_per_node)
    workers = topology.workers_per_node
    params_per_rank = topology.params_per_rank(model)
    subgroups_per_worker = max(1, math.ceil(params_per_rank / subgroup_size))
    actual_subgroup_params = math.ceil(params_per_rank / subgroups_per_worker)

    breakdown = estimate_memory(
        model,
        topology,
        gpu_memory=node.gpu_memory,
        host_memory=node.host_memory,
        subgroup_size=subgroup_size,
        pinned_buffer_subgroups=pinned_buffer_subgroups,
        baseline_fp32_grads=not knobs.delayed_grads,
    )
    subgroup_state_bytes = actual_subgroup_params * OPTIMIZER_STATE_BYTES
    cache_subgroups_per_worker = int(
        breakdown.host_cache_available // (subgroup_state_bytes * workers)
    )
    # The pinned I/O buffers themselves retain the last few subgroups across
    # iterations even when the host memory left for caching is nil, which is
    # why Figure 10 shows a small "Host Mem." slice even for the largest
    # models.
    cache_floor = min(pinned_buffer_subgroups, subgroups_per_worker)
    cache_subgroups_per_worker = max(cache_floor, min(cache_subgroups_per_worker, subgroups_per_worker))

    fetch_bytes = float(subgroup_state_bytes)
    if not knobs.delayed_grads:
        fetch_bytes += actual_subgroup_params * FP32_GRAD_BYTES
    flush_bytes = float(subgroup_state_bytes)

    # Conversion cost folded into the CPU update work as parameter-equivalents.
    conversion_bytes = actual_subgroup_params * FP16_GRAD_BYTES
    conversion_param_equiv = (
        conversion_bytes / node.fp16_to_fp32_bw
    ) * node.cpu_update_throughput
    compute_params = actual_subgroup_params + (
        conversion_param_equiv if knobs.delayed_grads else 0.0
    )

    tiers = _scaled_tiers(node, topology)
    if knobs.multipath:
        bandwidths = {name: tier.effective_bw for name, tier in tiers.items()}
        allocation = allocate_subgroups(subgroups_per_worker, bandwidths)
    else:
        local = [name for name, tier in tiers.items() if not tier.shared_across_nodes]
        primary = local[0] if local else next(iter(tiers))
        allocation = {name: 0 for name in tiers}
        allocation[primary] = subgroups_per_worker
        tiers = {primary: tiers[primary]}
        allocation = {primary: subgroups_per_worker}

    backward_flush = 0.0
    if not knobs.delayed_grads:
        backward_flush = float(params_per_rank) * FP32_GRAD_BYTES

    return UpdateWorkload(
        workers=workers,
        subgroups_per_worker=subgroups_per_worker,
        subgroup_params=actual_subgroup_params,
        fetch_bytes_per_subgroup=fetch_bytes,
        flush_bytes_per_subgroup=flush_bytes,
        cache_subgroups_per_worker=cache_subgroups_per_worker,
        compute_params_per_subgroup=compute_params,
        h2d_bytes_per_subgroup=actual_subgroup_params * FP16_BYTES,
        tier_allocation=allocation,
        tiers=tiers,
        knobs=knobs,
        node=node,
        backward_grad_flush_bytes_per_worker=backward_flush,
    )
