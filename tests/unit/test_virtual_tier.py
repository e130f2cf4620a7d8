"""Unit tests for the virtual multi-path tier."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import MLPOffloadConfig, TierConfig
from repro.core.virtual_tier import STATE_FIELDS, VirtualTier


@pytest.fixture
def virtual_tier(two_tier_config):
    tier = VirtualTier(two_tier_config, worker="rank0")
    yield tier
    tier.close()


def _subgroup_arrays(rng, n=100):
    return {
        "params": rng.standard_normal(n).astype(np.float32),
        "exp_avg": rng.standard_normal(n).astype(np.float32),
        "exp_avg_sq": np.abs(rng.standard_normal(n)).astype(np.float32),
    }


class TestPlacementConstruction:
    def test_initial_allocation_uses_bandwidth_hints(self, virtual_tier):
        allocation = virtual_tier.initial_allocation(90)
        assert sum(allocation.values()) == 90
        assert allocation["nvme"] > allocation["pfs"]

    def test_explicit_ratio_override(self, tier_dirs):
        config = MLPOffloadConfig.local_and_remote(
            tier_dirs["nvme"], tier_dirs["pfs"], ratio=(3.0, 1.0), subgroup_size=100
        )
        tier = VirtualTier(config)
        try:
            allocation = tier.initial_allocation(40)
            assert allocation == {"nvme": 30, "pfs": 10}
        finally:
            tier.close()

    def test_single_path_when_multipath_disabled(self, tier_dirs):
        config = MLPOffloadConfig(
            tiers=(
                TierConfig("nvme", str(tier_dirs["nvme"]), read_bw=5e9, write_bw=5e9),
                TierConfig("pfs", str(tier_dirs["pfs"]), read_bw=3e9, write_bw=3e9),
            ),
            enable_multipath=False,
        )
        tier = VirtualTier(config)
        try:
            assert tier.tier_names == ["nvme"]
            assert tier.initial_allocation(10) == {"nvme": 10}
        finally:
            tier.close()

    def test_missing_bandwidth_hints_trigger_probing(self, tier_dirs):
        config = MLPOffloadConfig(
            tiers=(
                TierConfig("nvme", str(tier_dirs["nvme"])),
                TierConfig("pfs", str(tier_dirs["pfs"])),
            )
        )
        tier = VirtualTier(config)
        try:
            bandwidths = tier.estimator.bandwidths
            assert set(bandwidths) == {"nvme", "pfs"}
            assert all(bw > 0 for bw in bandwidths.values())
        finally:
            tier.close()

    def test_build_placement_remembers_assignments(self, virtual_tier):
        placement = virtual_tier.build_placement(range(10))
        assert len(placement) == 10
        assert virtual_tier.placement is placement


class TestSubgroupIO:
    def test_flush_then_fetch_round_trip(self, virtual_tier, rng):
        virtual_tier.build_placement(range(4))
        arrays = _subgroup_arrays(rng)
        virtual_tier.flush_subgroup("rank0-sg00001", 1, arrays)
        restored = virtual_tier.fetch_subgroup("rank0-sg00001", 1, STATE_FIELDS)
        for field in STATE_FIELDS:
            np.testing.assert_array_equal(restored[field], arrays[field])

    def test_flush_override_tier_updates_placement(self, virtual_tier, rng):
        placement = virtual_tier.build_placement(range(4))
        original = placement.tier_of(0)
        other = "pfs" if original == "nvme" else "nvme"
        virtual_tier.flush_subgroup("rank0-sg00000", 0, _subgroup_arrays(rng), tier=other)
        assert placement.tier_of(0) == other

    def test_prefetch_and_wait(self, virtual_tier, rng):
        virtual_tier.build_placement(range(2))
        arrays = _subgroup_arrays(rng)
        virtual_tier.flush_subgroup("rank0-sg00000", 0, arrays)
        futures = virtual_tier.prefetch_subgroup("rank0-sg00000", 0, ["params"])
        result = VirtualTier.wait_fetch(futures)
        np.testing.assert_array_equal(result["params"], arrays["params"])

    def test_fetch_missing_subgroup_raises(self, virtual_tier):
        virtual_tier.build_placement(range(2))
        with pytest.raises(Exception):
            virtual_tier.fetch_subgroup("rank0-sg00001", 1, ["params"])

    def test_operations_require_placement(self, virtual_tier, rng):
        with pytest.raises(RuntimeError):
            virtual_tier.flush_subgroup("k", 0, _subgroup_arrays(rng))
        with pytest.raises(RuntimeError):
            virtual_tier.prefetch_subgroup("k", 0, ["params"])

    def test_delete_subgroup_field(self, virtual_tier, rng):
        virtual_tier.build_placement(range(1))
        virtual_tier.flush_subgroup("rank0-sg00000", 0, _subgroup_arrays(rng))
        virtual_tier.delete_subgroup_field("rank0-sg00000", 0, "params")
        # Deleting a missing field is a no-op.
        virtual_tier.delete_subgroup_field("rank0-sg00000", 0, "params")


class TestFeedback:
    def test_io_summary_accumulates(self, virtual_tier, rng):
        virtual_tier.build_placement(range(2))
        virtual_tier.flush_subgroup("rank0-sg00000", 0, _subgroup_arrays(rng))
        summary = virtual_tier.io_summary()
        total_written = sum(t["bytes_written"] for t in summary.values())
        assert total_written >= 3 * 100 * 4

    def test_observe_iteration_updates_estimates(self, virtual_tier, rng):
        virtual_tier.build_placement(range(2))
        before = dict(virtual_tier.estimator.bandwidths)
        virtual_tier.flush_subgroup("rank0-sg00000", 0, _subgroup_arrays(rng))
        virtual_tier.fetch_subgroup("rank0-sg00000", 0, STATE_FIELDS)
        after = virtual_tier.observe_iteration()
        assert set(after) == set(before)
        # Real local-disk transfers are much faster than the configured hints,
        # so at least the touched tier's estimate must have moved.
        touched = virtual_tier.placement.tier_of(0)
        assert after[touched] != before[touched]


class TestDerivedIOPool:
    """The I/O pool is two threads per (active path, direction) channel."""

    def test_pool_follows_active_paths(self, two_tier_config):
        single = replace(two_tier_config, enable_multipath=False)
        for config, threads in ((single, 4), (two_tier_config, 8)):
            with VirtualTier(config) as tier:
                assert tier.engine.num_threads == threads

    def test_parked_writes_do_not_block_reads(self, virtual_tier, rng, monkeypatch):
        """Two writes parked on each path (a throttle sleeping, say) must not
        hold the thread a read on either path needs."""
        virtual_tier.build_placement(range(8))
        by_tier = {}
        for index in range(8):
            by_tier.setdefault(virtual_tier.placement.tier_of(index), index)
        assert set(by_tier) == {"nvme", "pfs"}
        arrays = _subgroup_arrays(rng)
        for index in by_tier.values():
            virtual_tier.flush_subgroup(f"rank0-sg{index:05d}", index, arrays)

        release = threading.Event()
        parked = threading.Semaphore(0)
        for store in virtual_tier.stores.values():

            def blocking_save(key, array, _save=store.save_from):
                parked.release()
                release.wait()
                return _save(key, array)

            monkeypatch.setattr(store, "save_from", blocking_save)

        writes = [
            virtual_tier.engine.write(name, f"parked-{name}-{n}", arrays["params"])
            for name in ("nvme", "pfs")
            for n in range(2)
        ]
        try:
            for _ in writes:
                assert parked.acquire(timeout=30)
            reads = [
                virtual_tier.prefetch_subgroup(f"rank0-sg{index:05d}", index, ["params"])
                for index in by_tier.values()
            ]
            # The timeout only guards against a hang; the reads must land
            # while every parked write is still waiting on ``release``.
            for futures in reads:
                result = futures["params"].result(timeout=30)
                assert result.ok
                np.testing.assert_array_equal(result.array, arrays["params"])
            assert not any(w.done() for w in writes)
        finally:
            release.set()
        assert all(w.result(timeout=30).ok for w in writes)
