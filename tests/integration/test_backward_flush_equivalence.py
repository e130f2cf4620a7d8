"""Asynchronous backward gradient flush: bitwise equivalence with in-memory Adam.

The FLUSH_FP32 baseline policy writes each subgroup's up-converted FP32
gradient to its tier during the backward pass.  Those writes are submitted
asynchronously through pooled staging buffers and drained before the update
phase fetches them — a pure scheduling change.  These tests pin the
contract: the Adam state, FP16 parameters and step counters of an
offloading-free in-memory Adam, including with gradient accumulation (where
the same gradient key is re-flushed every micro-batch and the writes must
land in accumulation order).
"""

import numpy as np
import pytest

from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750


def make_engine(root, *, striped=True):
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
        stripe=StripeConfig(threshold_bytes=float(SUBGROUP * 2) if striped else float(1 << 30)),
        adam=AdamConfig(lr=1e-3),
    )
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)
    return MLPOffloadEngine(config, layout, rank=0), layout


@pytest.mark.parametrize("micro_batches", [1, 3])
@pytest.mark.parametrize("striped", [True, False])
def test_async_backward_flush_is_bitwise_equivalent(
    tmp_path, micro_batches, striped, assert_matches_in_memory_adam
):
    engine, layout = make_engine(tmp_path, striped=striped)
    views = flat_views(None, layout, 0)
    rng = np.random.default_rng(7)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    phases = [
        [rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(micro_batches)]
        for _ in range(3)
    ]
    with engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        for micro in phases:
            for grad in micro:
                for index, view in views.items():
                    engine.on_backward_gradient(index, grad[view].astype(np.float16))
                engine.on_microbatch_complete()
            engine.run_update(fp16)
        assert_matches_in_memory_adam(engine, fp16, initial, phases)


def test_async_flush_leaves_no_buffers_or_io_behind(tmp_path):
    engine, layout = make_engine(tmp_path / "drain")
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
