"""Elastic restart: restore a global cut under a *different* world size.

A ``GLOBAL-<v>`` cut records the world size that wrote it.  When a job
restarts with a different ``checkpoint_world_size`` — fewer nodes survived,
or more became available — the engine re-plans its ``ShardLayout`` and
re-partitions every rank's fp16 shard and per-subgroup FP32 optimizer state
from the old cut's blobs at restore time.  The optimizer is elementwise, so
the *gathered* global state is invariant under re-sharding: both the FP16
working parameters and the FP32 master state gathered from the resized
world must be bitwise-equal to the pre-crash gather, and training must
continue bit-for-bit as if the world had never changed.

Covered here in-process (the subprocess analogue lives in the procrank
crash matrix): shrink 3 -> 2, grow 2 -> 4, and a single-rank
``FunctionalTrainer(resume=True)`` swallowing a two-rank cut whole.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aio.locks import TierLockManager
from repro.ckpt import CheckpointCoordinator
from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 500
ITERATIONS = 3


def make_config(base, **overrides) -> MLPOffloadConfig:
    (base / "nvme").mkdir(exist_ok=True)
    (base / "pfs").mkdir(exist_ok=True)
    defaults = dict(
        subgroup_size=SUBGROUP,
        host_cache_bytes=2 * SUBGROUP * 12,
        stripe=StripeConfig(threshold_bytes=float(SUBGROUP * 2)),
        checkpoint_dir=str(base / "ckpt"),
        checkpoint_coordination=True,
        adam=AdamConfig(lr=1e-3),
    )
    defaults.update(overrides)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(base / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(base / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        **defaults,
    )


def build_world(base, world: int, **overrides):
    """Engines + coordinator for one world size over the shared directory."""
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=world, subgroup_size=SUBGROUP)
    config = make_config(base, **overrides)
    coordinator = CheckpointCoordinator(
        config, workers=config.checkpoint_workers(world)
    )
    manager = TierLockManager()
    engines = [
        MLPOffloadEngine(
            config, layout, rank=rank, lock_manager=manager,
            checkpoint_coordinator=coordinator,
        )
        for rank in range(world)
    ]
    return layout, coordinator, engines


def global_workload():
    """World-size-independent initial parameters and per-iteration gradients."""
    rng = np.random.default_rng(11)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    grads = [
        np.random.default_rng(100 + it).standard_normal(TOTAL_PARAMS).astype(np.float32)
        * 0.1
        for it in range(ITERATIONS + 1)
    ]
    return initial, grads


def feed_iteration(layout, engines, grad_global, fp16s):
    for rank, engine in enumerate(engines):
        start, stop = layout.rank_intervals[rank]
        local = grad_global[start:stop]
        for index, view in flat_views(None, layout, rank).items():
            engine.on_backward_gradient(index, local[view].astype(np.float16))
        engine.on_microbatch_complete()
        engine.run_update(fp16s[rank])


def gather(layout, engines, fp16s):
    """(global FP16 params, global FP32 master state) in rank order."""
    fp16 = np.concatenate(fp16s)
    master = np.concatenate([engine.fetch_master_params() for engine in engines])
    assert fp16.size == layout.total_params
    return fp16, master


def write_cut(base, world: int, initial, grads, **overrides):
    """Train ``ITERATIONS`` globally-committed iterations at ``world`` ranks."""
    layout, coordinator, engines = build_world(base, world, **overrides)
    fp16s = []
    for rank, engine in enumerate(engines):
        start, stop = layout.rank_intervals[rank]
        engine.initialize(initial[start:stop].copy())
        fp16s.append(initial[start:stop].astype(np.float16))
    for grad_global in grads[:ITERATIONS]:
        feed_iteration(layout, engines, grad_global, fp16s)
        for rank, engine in enumerate(engines):
            engine.save_checkpoint(fp16s[rank])
    for engine in engines:
        engine.checkpoint_wait()
    assert coordinator.global_versions()[-1] == ITERATIONS
    state = gather(layout, engines, fp16s)
    for engine in engines:
        engine.close()  # process death stand-in; the directory state stays
    return state


def restore_elastic(base, world: int, **overrides):
    """Restore the newest global cut at ``world`` ranks; engines stay open."""
    layout, _coordinator, engines = build_world(base, world, **overrides)
    fp16s = []
    for engine in engines:
        restored = engine.restore_checkpoint()
        # The resized world still resolves the one consistent global cut.
        assert restored.version == ITERATIONS
        assert restored.global_version == ITERATIONS
        assert restored.iteration == ITERATIONS
        assert restored.mode == "eager"  # re-partitioned state is always eager
        fp16s.append(restored.fp16_params)
    return layout, engines, fp16s


@pytest.mark.parametrize("codec", ["raw", "shuffle-deflate"])
@pytest.mark.parametrize(
    ("old_world", "new_world"), [(3, 2), (2, 4)], ids=["shrink-3-to-2", "grow-2-to-4"]
)
def test_elastic_restore_is_bitwise_across_world_sizes(tmp_path, old_world, new_world, codec):
    """The gathered FP16 and FP32 state of the resized world is bitwise-equal
    to the pre-crash gather — shrink and grow alike, plain or framed blobs."""
    initial, grads = global_workload()
    fp16_before, master_before = write_cut(
        tmp_path, old_world, initial, grads, checkpoint_codec=codec
    )
    layout, engines, fp16s = restore_elastic(tmp_path, new_world, checkpoint_codec=codec)
    try:
        fp16_after, master_after = gather(layout, engines, fp16s)
        assert np.array_equal(fp16_after, fp16_before), "gathered FP16 params diverged"
        assert np.array_equal(master_after, master_before), (
            "gathered FP32 master state diverged across the re-shard"
        )
    finally:
        for engine in engines:
            engine.close()


def test_training_continues_bitwise_after_the_reshard(tmp_path):
    """One more iteration after a 3 -> 2 restart matches an uninterrupted
    2-rank trajectory — per-subgroup step counters survive re-partitioning."""
    initial, grads = global_workload()

    # Uninterrupted 2-rank reference over ITERATIONS + 1 iterations.
    ref_base = tmp_path / "reference"
    ref_base.mkdir()
    layout, _coordinator, engines = build_world(ref_base, 2)
    fp16s = []
    for rank, engine in enumerate(engines):
        start, stop = layout.rank_intervals[rank]
        engine.initialize(initial[start:stop].copy())
        fp16s.append(initial[start:stop].astype(np.float16))
    for grad_global in grads:
        feed_iteration(layout, engines, grad_global, fp16s)
    fp16_ref, master_ref = gather(layout, engines, fp16s)
    for engine in engines:
        engine.close()

    crash_base = tmp_path / "crashed"
    crash_base.mkdir()
    write_cut(crash_base, 3, initial, grads)
    layout, engines, fp16s = restore_elastic(crash_base, 2)
    try:
        feed_iteration(layout, engines, grads[ITERATIONS], fp16s)
        fp16_after, master_after = gather(layout, engines, fp16s)
        assert np.array_equal(fp16_after, fp16_ref)
        assert np.array_equal(master_after, master_ref)
    finally:
        for engine in engines:
            engine.close()


def test_trainer_resumes_a_two_rank_cut_single_rank(tmp_path, tiny_model):
    """``FunctionalTrainer(resume=True)`` at world 1 swallows a 2-rank cut:
    the engine takes the elastic path under the trainer without the trainer
    knowing, and surfaces the global cut on ``last_restored``."""
    from repro.train.trainer import FunctionalTrainer, TrainerConfig
    from repro.train.transformer import TransformerLM

    num_params = TransformerLM(tiny_model).num_params
    subgroup = 2_000

    def config_for(base):
        (base / "nvme").mkdir(exist_ok=True)
        (base / "pfs").mkdir(exist_ok=True)
        return MLPOffloadConfig(
            tiers=(
                TierConfig("nvme", str(base / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
                TierConfig("pfs", str(base / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
            ),
            subgroup_size=subgroup,
            host_cache_bytes=2 * subgroup * 12,
            checkpoint_dir=str(base / "ckpt"),
            checkpoint_coordination=True,
            adam=AdamConfig(lr=1e-3),
        )

    base = tmp_path / "elastic-trainer"
    base.mkdir()

    # Write a one-iteration 2-rank cut by hand (the functional trainer drives
    # exactly one rank, so the multi-rank past is simulated with engines).
    config = config_for(base)
    layout2 = build_shard_layout(num_params, num_ranks=2, subgroup_size=subgroup)
    coordinator = CheckpointCoordinator(config, workers=config.checkpoint_workers(2))
    manager = TierLockManager()
    engines = [
        MLPOffloadEngine(
            config, layout2, rank=rank, lock_manager=manager,
            checkpoint_coordinator=coordinator,
        )
        for rank in range(2)
    ]
    rng = np.random.default_rng(5)
    initial = rng.standard_normal(num_params).astype(np.float32)
    grad = rng.standard_normal(num_params).astype(np.float32) * 0.1
    fp16s = []
    for rank, engine in enumerate(engines):
        start, stop = layout2.rank_intervals[rank]
        engine.initialize(initial[start:stop].copy())
        fp16s.append(initial[start:stop].astype(np.float16))
    for rank, engine in enumerate(engines):
        start, stop = layout2.rank_intervals[rank]
        local = grad[start:stop]
        for index, view in flat_views(None, layout2, rank).items():
            engine.on_backward_gradient(index, local[view].astype(np.float16))
        engine.on_microbatch_complete()
        engine.run_update(fp16s[rank])
        engine.save_checkpoint(fp16s[rank], user_data={"trainer_step": 1})
    for engine in engines:
        engine.checkpoint_wait()
    assert coordinator.global_versions() == [1]
    fp16_before = np.concatenate(fp16s)
    master_before = np.concatenate(
        [engine.fetch_master_params() for engine in engines]
    )
    for engine in engines:
        engine.close()

    layout1 = build_shard_layout(num_params, num_ranks=1, subgroup_size=subgroup)
    resumed_engine = MLPOffloadEngine(config_for(base), layout1, rank=0)
    trainer = FunctionalTrainer(
        tiny_model, resumed_engine, trainer_config=TrainerConfig(seed=3), resume=True
    )
    try:
        assert trainer.last_restored is not None
        assert trainer.last_restored.global_version == 1
        assert np.array_equal(trainer.working_params(), fp16_before)
        assert np.array_equal(trainer.master_params(), master_before)
    finally:
        resumed_engine.close()
