"""Unit tests for gradient-conversion policies, concurrency control and engine stats."""

import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.aio.locks import TierLockManager
from repro.core.concurrency import NodeConcurrencyController
from repro.core.engine import MLPOffloadEngine
from repro.core.gradient_policy import (
    GradientConversionPolicy,
    backward_flush_payload,
    update_time_gradient,
)
from repro.core.stats import UpdatePhaseStats
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

    def test_delayed_policy_fills_the_scratch_buffer(self, accumulator):
        out = np.empty(1000, dtype=np.float32)
        grad = update_time_gradient(
            GradientConversionPolicy.DELAYED_FP16, accumulator, 0, out=out
        )
        assert grad is out
        np.testing.assert_array_equal(out, accumulator.gradient_fp32(0))

    def test_delayed_policy_averages_over_microbatches(self, accumulator):
        accumulator.accumulate(0, np.ones(1000, dtype=np.float16))
        accumulator.mark_microbatch_done()
        total = update_time_gradient(
            GradientConversionPolicy.DELAYED_FP16, accumulator, 0, average=False
        )
        mean = update_time_gradient(GradientConversionPolicy.DELAYED_FP16, accumulator, 0)
        np.testing.assert_array_equal(mean, total / np.float32(2.0))

    def test_baseline_policy_averages_the_stored_copy(self, accumulator, rng):
        accumulator.mark_microbatch_done()  # two micro-batches in total
        stored = rng.standard_normal(1000).astype(np.float32)
        grad = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, stored_fp32=stored
        )
        np.testing.assert_array_equal(grad, stored / np.float32(2.0))
        raw = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, stored_fp32=stored, average=False
        )
        assert raw is stored

    def test_baseline_average_into_scratch_is_bitwise_identical(self, accumulator, rng):
        accumulator.mark_microbatch_done()
        stored = rng.standard_normal(1000).astype(np.float32)
        fresh = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, stored_fp32=stored
        )
        out = np.empty(1000, dtype=np.float32)
        pooled = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, stored_fp32=stored, out=out
        )
        assert pooled is out
        np.testing.assert_array_equal(pooled, fresh)

    def test_baseline_ignores_a_scratch_of_the_wrong_shape(self, accumulator, rng):
        accumulator.mark_microbatch_done()
        stored = rng.standard_normal(1000).astype(np.float32)
        out = np.full(10, 7.0, dtype=np.float32)
        grad = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, stored_fp32=stored, out=out
        )
        assert grad is not out and grad.shape == (1000,)
        assert np.all(out == 7.0)

    def test_baseline_casts_a_stored_copy_to_fp32(self, accumulator, rng):
        stored = rng.standard_normal(1000)  # float64
        grad = update_time_gradient(
            GradientConversionPolicy.FLUSH_FP32, accumulator, 0, stored_fp32=stored
        )
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(grad, stored.astype(np.float32))

    def test_fp16_up_conversion_is_exact(self, accumulator):
        """Every FP16 value is representable in FP32, so the flushed payload
        converts back to the host FP16 copy without loss."""
        payload = backward_flush_payload(GradientConversionPolicy.FLUSH_FP32, accumulator, 0)
        np.testing.assert_array_equal(payload.astype(np.float16), accumulator.gradient_fp16(0))

    def test_unknown_policy_rejected(self, accumulator):
        with pytest.raises(ValueError):
            update_time_gradient("delayed_fp16", accumulator, 0)
        with pytest.raises(ValueError):
            backward_flush_payload("flush_fp32", accumulator, 0)

    @pytest.mark.parametrize("policy", list(GradientConversionPolicy))
    def test_policy_round_trips_through_its_value(self, policy):
        assert GradientConversionPolicy(policy.value) is policy


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
        assert controller.lock_manager.stats("nvme").acquisitions == 0

    def test_exclusive_releases_on_error(self):
        controller = NodeConcurrencyController()
        with pytest.raises(RuntimeError):
            with controller.exclusive("nvme", "rank0"):
                raise RuntimeError("I/O failed")
        assert controller.lock_manager.owner_of("nvme") is None

    def test_exclusive_is_reentrant_for_one_worker(self):
        controller = NodeConcurrencyController()
        with controller.exclusive("nvme", "rank0"):
            with controller.exclusive("nvme", "rank0"):
                assert controller.lock_manager.owner_of("nvme") == "rank0"
            assert controller.lock_manager.owner_of("nvme") == "rank0"
        assert controller.lock_manager.owner_of("nvme") is None

    def test_exclusive_waits_for_the_holder(self):
        controller = NodeConcurrencyController()
        lease = controller.lock_manager.acquire("nvme", "rank0")
        entered = threading.Event()

        def contender():
            with controller.exclusive("nvme", "rank1", timeout=30):
                entered.set()

        thread = threading.Thread(target=contender)
        thread.start()
        deadline = time.monotonic() + 30
        while not controller.lock_manager.waiters("nvme"):
            assert time.monotonic() < deadline, "contender never waited"
            time.sleep(0.005)
        assert not entered.is_set()
        lease.release()
        thread.join(timeout=30)
        assert entered.is_set()
        assert controller.lock_manager.stats("nvme").contended_acquisitions == 1

    def test_controllers_sharing_a_manager_exclude_each_other(self):
        manager = TierLockManager()
        first = NodeConcurrencyController(manager)
        second = NodeConcurrencyController(manager)
        with first.exclusive("pfs", "rank0"):
            assert second.try_exclusive("pfs", "rank1") is None
        assert NodeConcurrencyController().try_exclusive("pfs", "rank1") is not None

    def test_disabled_controller_admits_workers_together(self):
        controller = NodeConcurrencyController(enabled=False)
        barrier = threading.Barrier(2)
        inside = []

        def worker(name):
            with controller.exclusive("nvme", name):
                barrier.wait(timeout=10)  # both hold the tier at once
                inside.append(name)

        threads = [threading.Thread(target=worker, args=(f"rank{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sorted(inside) == ["rank0", "rank1"]

    def test_bypass_lease_is_a_single_share_context_manager(self):
        controller = NodeConcurrencyController(enabled=False)
        with controller.try_exclusive("nvme", "rank0") as lease:
            assert (lease.tier, lease.worker, lease.shares) == ("nvme", "rank0", 1)
        assert controller.lock_manager.owner_of("nvme") is None

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

    def test_effective_io_throughput_counts_both_directions(self):
        stats = UpdatePhaseStats(fetch_bytes=300, flush_bytes=100, fetch_seconds=1.0)
        assert stats.io_seconds == 1.0
        assert stats.effective_io_throughput == pytest.approx(400.0)
        assert stats.io_fraction == 0.0  # no wall time recorded

    def test_merge_sums_every_counter(self):
        names = [f.name for f in fields(UpdatePhaseStats)]
        maxed = {"wall_seconds", "prefetch_depth"}
        a = UpdatePhaseStats(**{name: 1 for name in names})
        b = UpdatePhaseStats(**{name: 2 for name in names})
        merged = a.merge(b)
        for name in names:
            expected = 2 if name in maxed else 3
            assert getattr(merged, name) == expected, name

    def test_merge_with_empty_stats_is_identity(self):
        stats = UpdatePhaseStats(
            params_updated=5, cache_hits=2, fetch_seconds=0.5, prefetch_depth=4, wall_seconds=1.0
        )
        assert stats.merge(UpdatePhaseStats()) == stats
        assert UpdatePhaseStats().merge(stats) == stats

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
