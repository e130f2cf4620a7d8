"""Unit tests for gradient-conversion policies, concurrency control and engine stats."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.aio.locks import TierLockManager
from repro.core.concurrency import NodeConcurrencyController
from repro.core.engine import MLPOffloadEngine
from repro.core.gradient_policy import (
    GradientConversionPolicy,
    backward_flush_payload,
    gradient_traffic,
    update_time_gradient,
)
from repro.core.stats import IterationStats, UpdatePhaseStats, aggregate_tier_distribution
from repro.train.gradients import GradientAccumulator
from repro.train.sharding import build_shard_layout


@pytest.fixture
def accumulator(small_layout):
    acc = GradientAccumulator(small_layout, rank=0)
    rng = np.random.default_rng(0)
    for index in acc.subgroup_indices:
        acc.accumulate(index, rng.standard_normal(1000).astype(np.float16))
    acc.mark_microbatch_done()
    return acc


class TestGradientTraffic:
    def test_delayed_policy_moves_no_gradient_bytes_through_storage(self):
        traffic = gradient_traffic(GradientConversionPolicy.DELAYED_FP16, 1000)
        assert traffic.storage_bytes == 0
        assert traffic.conversion_bytes == 2000

    def test_baseline_policy_moves_fp32_both_ways(self):
        traffic = gradient_traffic(GradientConversionPolicy.FLUSH_FP32, 1000)
        assert traffic.backward_flush_bytes == 4000
        assert traffic.update_fetch_bytes == 4000
        assert traffic.storage_bytes == 8000

    def test_validation(self):
        with pytest.raises(ValueError):
            gradient_traffic(GradientConversionPolicy.FLUSH_FP32, -1)


class TestUpdateTimeGradient:
    def test_delayed_policy_reads_the_host_accumulator(self, accumulator):
        grad = update_time_gradient(GradientConversionPolicy.DELAYED_FP16, accumulator, 0)
        np.testing.assert_allclose(grad, accumulator.gradient_fp32(0))
        assert grad.dtype == np.float32

    def test_baseline_policy_prefers_the_stored_copy(self, accumulator, rng):
        stored = rng.standard_normal(1000).astype(np.float32)
        grad = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, stored_fp32=stored
        )
        np.testing.assert_allclose(grad, stored)

    def test_baseline_policy_falls_back_to_accumulator(self, accumulator):
        """Without a stored copy (a host-cache hit) the gradient is the one
        the backward pass flushed, so caching cannot change the update."""
        # A second micro-batch makes the FP32 sum inexact in FP16.
        accumulator.accumulate(0, np.full(1000, 1 / 3, dtype=np.float16))
        accumulator.mark_microbatch_done()
        grad = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, average=False
        )
        assert not np.array_equal(grad, accumulator.gradient_fp32(0, average=False))
        flushed = backward_flush_payload(GradientConversionPolicy.FLUSH_FP32, accumulator, 0)
        np.testing.assert_array_equal(grad, flushed)

    def test_backward_flush_payload(self, accumulator):
        assert backward_flush_payload(GradientConversionPolicy.DELAYED_FP16, accumulator, 0) is None
        payload = backward_flush_payload(GradientConversionPolicy.FLUSH_FP32, accumulator, 0)
        assert payload is not None and payload.dtype == np.float32
        np.testing.assert_allclose(
            payload, accumulator.gradient_fp16(0).astype(np.float32)
        )


class TestNodeConcurrencyController:
    def test_exclusive_context_blocks_other_workers(self):
        controller = NodeConcurrencyController()
        with controller.exclusive("nvme", "rank0"):
            assert controller.try_exclusive("nvme", "rank1") is None
            assert controller.try_exclusive("pfs", "rank1") is not None
        assert controller.try_exclusive("nvme", "rank1") is not None

    def test_disabled_controller_never_blocks(self):
        controller = NodeConcurrencyController(enabled=False)
        with controller.exclusive("nvme", "rank0"):
            lease = controller.try_exclusive("nvme", "rank1")
            assert lease is not None
            lease.release()  # no-op, must not raise
        summary = controller.contention_summary(["nvme"])
        assert "_bypassed" in summary

    def test_preferred_tier_prefers_held_then_free(self):
        manager = TierLockManager()
        controller = NodeConcurrencyController(manager)
        lease = manager.acquire("nvme", "rank0")
        # rank0 already holds nvme -> keep using it.
        assert controller.preferred_tier(["pfs", "nvme"], "rank0") == "nvme"
        # rank1 should avoid the held tier.
        assert controller.preferred_tier(["nvme", "pfs"], "rank1") == "pfs"
        lease.release()
        with pytest.raises(ValueError):
            controller.preferred_tier([], "rank0")

    def test_contention_summary_counts(self):
        controller = NodeConcurrencyController()
        with controller.exclusive("nvme", "rank0"):
            pass
        summary = controller.contention_summary(["nvme"])
        assert summary["nvme"]["acquisitions"] == 1

    def test_timeout_raises(self):
        controller = NodeConcurrencyController()
        lease = controller.lock_manager.acquire("nvme", "rank0")
        with pytest.raises(TimeoutError):
            with controller.exclusive("nvme", "rank1", timeout=0.05):
                pass
        lease.release()


class TestDeferredPrefetches:
    """``deferred_prefetches`` counts prefetches skipped on a peer's tier lease."""

    @staticmethod
    def _backward(engine, rng):
        for sg in engine.subgroups:
            engine.on_backward_gradient(
                sg.index, rng.standard_normal(sg.num_params).astype(np.float16)
            )
        engine.on_microbatch_complete()

    def test_peer_lease_defers_prefetches(self, two_tier_config, rng):
        config = replace(two_tier_config, host_cache_bytes=0)
        layout = build_shard_layout(total_params=8_000, num_ranks=2, subgroup_size=1_000)
        manager = TierLockManager()
        engines = [MLPOffloadEngine(config, layout, rank=r, lock_manager=manager) for r in range(2)]
        rank0, peer = engines
        try:
            for engine in engines:
                engine.initialize(
                    rng.standard_normal(layout.rank_params(engine.rank)).astype(np.float32)
                )
            fp16 = np.zeros(layout.rank_params(0), dtype=np.float16)
            self._backward(rank0, rng)
            assert rank0.run_update(fp16).stats.deferred_prefetches == 0

            # The peer holds every tier: rank0 defers its whole prefetch
            # window, then blocks on its first synchronous fetch.
            tiers = rank0.tier.tier_names
            leases = [peer.concurrency.try_exclusive(t, peer.worker) for t in tiers]
            assert all(lease is not None for lease in leases)
            self._backward(rank0, rng)
            reports = []
            worker = threading.Thread(target=lambda: reports.append(rank0.run_update(fp16)))
            worker.start()
            try:
                deadline = time.monotonic() + 30
                while not any(manager.waiters(t) for t in tiers):
                    assert time.monotonic() < deadline, "rank0 never waited on a lease"
                    time.sleep(0.005)
            finally:
                for lease in leases:
                    lease.release()
                worker.join(timeout=30)
            assert not worker.is_alive() and len(reports) == 1
            assert reports[0].stats.deferred_prefetches >= 1
        finally:
            for engine in engines:
                engine.close()


class TestStats:
    def test_update_phase_derived_metrics(self):
        stats = UpdatePhaseStats(
            subgroups_processed=10,
            params_updated=1000,
            cache_hits=4,
            cache_misses=6,
            fetch_bytes=600,
            fetch_seconds=2.0,
            flush_bytes=400,
            flush_seconds=2.0,
            compute_seconds=1.0,
            wall_seconds=5.0,
        )
        assert stats.cache_hit_rate == pytest.approx(0.4)
        assert stats.update_throughput == pytest.approx(200.0)
        assert stats.io_seconds == pytest.approx(4.0)
        assert stats.effective_io_throughput == pytest.approx(250.0)
        assert stats.io_fraction == pytest.approx(0.8)

    def test_zero_division_guards(self):
        stats = UpdatePhaseStats()
        assert stats.cache_hit_rate == 0.0
        assert stats.update_throughput == 0.0
        assert stats.effective_io_throughput == 0.0
        assert stats.io_fraction == 0.0

    def test_merge_adds_counters_and_keeps_max_wall(self):
        a = UpdatePhaseStats(params_updated=10, wall_seconds=2.0, cache_hits=1)
        b = UpdatePhaseStats(
            params_updated=20, wall_seconds=3.0, cache_misses=2, deferred_prefetches=3
        )
        merged = a.merge(b)
        assert merged.params_updated == 30
        assert merged.deferred_prefetches == 3
        assert merged.wall_seconds == 3.0
        assert merged.cache_hits == 1 and merged.cache_misses == 2

    def test_iteration_stats_breakdown(self):
        it = IterationStats(iteration=0, forward_seconds=1.0, backward_seconds=2.0)
        it.update.wall_seconds = 3.0
        assert it.total_seconds == pytest.approx(6.0)
        assert it.breakdown() == {"forward": 1.0, "backward": 2.0, "update": 3.0}

    def test_aggregate_tier_distribution(self):
        total = aggregate_tier_distribution(
            {"rank0": {"nvme": 10.0, "host": 5.0}, "rank1": {"nvme": 20.0, "pfs": 1.0}}
        )
        assert total == {"nvme": 30.0, "host": 5.0, "pfs": 1.0}
