"""GPU / host memory footprint estimation (DeepSpeed memory-estimator stand-in).

The paper's runtime configuration rules (§4.1) require that:

* the aggregated GPU memory holds the FP16 parameters, activation
  checkpoints, and at least one subgroup's FP16 gradients;
* the host memory holds the runtime buffers (gradient accumulation,
  all-reduce buckets, ZeRO-3 bookkeeping — 250-350 GB depending on the model,
  per Figure 10's discussion) plus at least three subgroups of pinned I/O
  buffers;
* everything else (the FP32 optimizer state) spills to the third-level tier.

:func:`estimate_memory` reproduces that accounting.  The simulator uses it to
size the host cache (and hence how much of Figure 10's "Host Mem." slice each
model gets); the functional engine uses it to validate configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.train.model_zoo import (
    FP16_BYTES,
    FP16_GRAD_BYTES,
    FP32_GRAD_BYTES,
    OPTIMIZER_STATE_BYTES,
    ModelConfig,
)
from repro.train.parallelism import ParallelTopology
from repro.util.bytesize import GiB


@dataclass(frozen=True)
class MemoryBreakdown:
    """Byte-level memory budget of one training configuration."""

    # GPU side (per GPU)
    gpu_fp16_params: float
    gpu_activations: float
    gpu_subgroup_grads: float
    gpu_total: float
    gpu_capacity: float
    # Host side (per node)
    host_runtime_buffers: float
    host_grad_accum: float
    host_pinned_buffers: float
    host_cache_available: float
    host_total_required: float
    host_capacity: float
    # Third-level tier
    offloaded_optimizer_bytes: float


def runtime_buffer_bytes(model: ModelConfig) -> float:
    """ZeRO-3 runtime bookkeeping on the host (allocator pools, all-reduce buckets…).

    The paper reports 250–350 GB proportional to model size (§4.3).  We model
    it as an affine function of total parameters calibrated to those two
    endpoints (40B → ~250 GB, 120B → ~350 GB).
    """
    p_billion = model.total_params / 1e9
    gigabytes = 250.0 + (350.0 - 250.0) * (min(max(p_billion, 40.0), 130.0) - 40.0) / (120.0 - 40.0)
    return gigabytes * GiB


def estimate_memory(
    model: ModelConfig,
    topology: ParallelTopology,
    *,
    gpu_memory: float,
    host_memory: float,
    subgroup_size: int,
    micro_batch_size: int = 1,
    pinned_buffer_subgroups: int = 3,
    activation_checkpointing: bool = True,
    baseline_fp32_grads: bool = False,
) -> MemoryBreakdown:
    """Estimate the memory budget of one configuration.

    Parameters
    ----------
    baseline_fp32_grads:
        ``True`` for the ZeRO-3 baseline, whose offloaded subgroups also
        carry FP32 gradients (16 bytes/param + 4 bytes/param); ``False`` for
        MLP-Offload, whose subgroups carry only the 12 bytes/param optimizer
        state while FP16 gradients stay in the host accumulation buffer.
    """
    if subgroup_size < 1:
        raise ValueError("subgroup_size must be >= 1")
    if pinned_buffer_subgroups < 1:
        raise ValueError("pinned_buffer_subgroups must be >= 1")

    world = topology.world_size
    params_per_rank = model.total_params / world
    tp = topology.tensor_parallel

    # -- GPU side ---------------------------------------------------------
    # FP16 parameters are sharded by ZeRO-3 across data-parallel ranks but
    # must be gathered layer-by-layer; the steady-state residency is the
    # rank's own shard plus the working set of gathered layers (we charge two
    # layers' worth of gathered parameters).
    own_shard = params_per_rank * FP16_BYTES
    gathered_working_set = 2 * (model.params_per_layer / tp) * FP16_BYTES
    gpu_fp16_params = own_shard + gathered_working_set
    gpu_activations = model.activation_bytes(micro_batch_size, checkpointing=activation_checkpointing) / tp
    gpu_subgroup_grads = subgroup_size * FP16_GRAD_BYTES
    gpu_total = gpu_fp16_params + gpu_activations + gpu_subgroup_grads

    # -- Host side --------------------------------------------------------
    workers_per_node = topology.workers_per_node
    host_runtime = runtime_buffer_bytes(model)
    # FP16 gradient accumulation buffers for every subgroup owned by the
    # node's workers (reserved regardless of engine; §3.2).
    host_grad_accum = workers_per_node * params_per_rank * FP16_GRAD_BYTES
    subgroup_bytes = subgroup_size * (
        OPTIMIZER_STATE_BYTES + (FP32_GRAD_BYTES if baseline_fp32_grads else 0)
    )
    host_pinned = workers_per_node * pinned_buffer_subgroups * subgroup_bytes
    host_required = host_runtime + host_grad_accum + host_pinned
    host_cache_available = max(0.0, host_memory - host_required)

    offloaded = workers_per_node * params_per_rank * (
        OPTIMIZER_STATE_BYTES + (FP32_GRAD_BYTES if baseline_fp32_grads else 0)
    )

    return MemoryBreakdown(
        gpu_fp16_params=gpu_fp16_params,
        gpu_activations=gpu_activations,
        gpu_subgroup_grads=gpu_subgroup_grads,
        gpu_total=gpu_total,
        gpu_capacity=gpu_memory,
        host_runtime_buffers=host_runtime,
        host_grad_accum=host_grad_accum,
        host_pinned_buffers=host_pinned,
        host_cache_available=host_cache_available,
        host_total_required=host_required,
        host_capacity=host_memory,
        offloaded_optimizer_bytes=offloaded,
    )
