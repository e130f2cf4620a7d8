"""Pipelined backward gradient flush: bitwise equivalence with the sync path.

The FLUSH_FP32 baseline policy writes each subgroup's up-converted FP32
gradient to its tier during the backward pass.  With
``pipeline_backward_flush`` on, those writes are submitted asynchronously
through pooled staging buffers and drained before the update phase fetches
them — a pure scheduling change.  These tests pin the contract: identical
Adam state, FP16 parameters and tier contents, including with gradient
accumulation (where the same gradient key is re-flushed every micro-batch
and the writes must land in accumulation order).
"""

import numpy as np
import pytest

from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750


def make_engine(root, *, pipelined, striped=True):
    (root / "nvme").mkdir(parents=True, exist_ok=True)
    (root / "pfs").mkdir(parents=True, exist_ok=True)
    config = MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(root / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(root / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP,
        host_cache_bytes=2 * SUBGROUP * 12,
        enable_delayed_grad_conversion=False,  # the policy that flushes grads
        pipeline_backward_flush=pipelined,
        stripe=StripeConfig(threshold_bytes=float(SUBGROUP * 2) if striped else float(1 << 30)),
        adam=AdamConfig(lr=1e-3),
    )
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)
    return MLPOffloadEngine(config, layout, rank=0), layout


def run_training(root, *, pipelined, micro_batches=1, striped=True, rng_seed=7):
    engine, layout = make_engine(root, pipelined=pipelined, striped=striped)
    views = flat_views(None, layout, 0)
    rng = np.random.default_rng(rng_seed)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    with engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        flush_seconds = []
        for _ in range(3):
            for _ in range(micro_batches):
                grad = rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1
                for index, view in views.items():
                    flush_seconds.append(
                        engine.on_backward_gradient(index, grad[view].astype(np.float16))
                    )
                engine.on_microbatch_complete()
            report = engine.run_update(fp16)
        master = engine.fetch_master_params()
        tier_blobs = {}
        for name, store in engine.tier.stores.items():
            for key in store.keys():
                tier_blobs[(name, key)] = store.read(key).tobytes()
    return fp16, master, tier_blobs, flush_seconds, report


@pytest.mark.parametrize("micro_batches", [1, 3])
@pytest.mark.parametrize("striped", [True, False])
def test_async_backward_flush_is_bitwise_equivalent(tmp_path, micro_batches, striped):
    fp16_sync, master_sync, blobs_sync, _, _ = run_training(
        tmp_path / "sync", pipelined=False, micro_batches=micro_batches, striped=striped
    )
    fp16_pipe, master_pipe, blobs_pipe, _, report = run_training(
        tmp_path / "pipe", pipelined=True, micro_batches=micro_batches, striped=striped
    )
    assert np.array_equal(fp16_sync, fp16_pipe)
    assert np.array_equal(master_sync, master_pipe)
    assert blobs_sync == blobs_pipe, "tier contents diverged between flush modes"
    # The drain barrier is accounted where it lands (start of the update
    # phase) — it exists whenever flushes were still in flight.
    assert report.stats.grad_drain_seconds >= 0.0


def test_async_flush_leaves_no_buffers_or_io_behind(tmp_path):
    engine, layout = make_engine(tmp_path / "drain", pipelined=True)
    views = flat_views(None, layout, 0)
    rng = np.random.default_rng(11)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    with engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        grad = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
        for index, view in views.items():
            engine.on_backward_gradient(index, grad[view].astype(np.float16))
        engine.on_microbatch_complete()
        assert engine._grad_flushes, "async flushes should be in flight"
        engine.run_update(fp16)
        assert not engine._grad_flushes, "update phase must drain backward flushes"
        # Pool leaks would show as outstanding buffers beyond the cached
        # subgroups' arrays (cache holds up to 2 subgroups x 3 fields).
        assert engine.pool.outstanding_count <= 2 * 3
