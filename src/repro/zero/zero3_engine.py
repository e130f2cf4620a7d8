"""DeepSpeed-ZeRO-3-style baseline offloading engine.

The baseline (Figure 6, top) differs from MLP-Offload in four ways:

1. it offloads exclusively to the node-local NVMe tier (no multi-path);
2. it processes subgroups in ascending ID order every iteration, so the host
   buffers thrash (§3.1);
3. it up-converts FP16 gradients to FP32 on the host during the backward
   pass and flushes them to storage, inflating both the backward pass and
   every update-phase fetch;
4. it applies no node-level concurrency control, so all workers of a node
   compete for the shared NVMe bandwidth.

All four are switches on :class:`~repro.core.config.MLPOffloadConfig`, so the
baseline engine is the shared functional engine with the switches off.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional

from repro.aio.locks import TierLockManager
from repro.core.config import MLPOffloadConfig
from repro.core.engine import OffloadEngineBase
from repro.train.sharding import ShardLayout


def zero3_config(config: MLPOffloadConfig) -> MLPOffloadConfig:
    """Derive the baseline configuration from an MLP-Offload configuration.

    Keeps the storage paths, subgroup size, Adam hyper-parameters and host
    budget, but restricts offloading to the primary (NVMe) tier and disables
    every MLP-Offload design principle.
    """
    return replace(
        config,
        tiers=(config.primary_tier,),
        enable_multipath=False,
        enable_tier_locks=False,
        enable_cache_reorder=False,
        enable_delayed_grad_conversion=False,
    )


class ZeRO3OffloadEngine(OffloadEngineBase):
    """The DeepSpeed ZeRO-3 + DeepNVMe baseline as a functional engine.

    Construct it with the *same* :class:`MLPOffloadConfig` used for the
    MLP-Offload engine; the constructor derives the baseline variant of the
    configuration internally so comparisons always share storage paths,
    subgroup size and optimizer hyper-parameters.
    """

    def __init__(
        self,
        config: MLPOffloadConfig,
        layout: ShardLayout,
        rank: int,
        *,
        lock_manager: Optional[TierLockManager] = None,
        throttles: Optional[Mapping[str, object]] = None,
    ) -> None:
        super().__init__(
            zero3_config(config),
            layout,
            rank,
            lock_manager=lock_manager,
            throttles=throttles,
        )
