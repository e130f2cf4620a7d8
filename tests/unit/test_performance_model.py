"""Unit tests for the Equation 1 performance model and bandwidth estimator."""

import pytest

from repro.core.performance_model import (
    BandwidthEstimator,
    allocate_subgroups,
    allocation_from_ratios,
    expected_round_trip_seconds,
)


class TestAllocateSubgroups:
    def test_counts_sum_to_total(self):
        allocation = allocate_subgroups(100, {"nvme": 5.3e9, "pfs": 3.6e9})
        assert sum(allocation.values()) == 100

    def test_proportional_to_bandwidth(self):
        allocation = allocate_subgroups(90, {"fast": 6.0, "slow": 3.0})
        assert allocation["fast"] == pytest.approx(60, abs=2)
        assert allocation["slow"] == pytest.approx(30, abs=2)

    def test_paper_2_to_1_split(self):
        """Testbed-1's NVMe:PFS bandwidths yield roughly the 2:1 split of Figure 10."""
        allocation = allocate_subgroups(99, {"nvme": 5.3e9, "pfs": 3.6e9})
        ratio = allocation["nvme"] / allocation["pfs"]
        assert 1.2 <= ratio <= 2.2

    def test_single_tier_gets_everything(self):
        assert allocate_subgroups(42, {"nvme": 1.0}) == {"nvme": 42}

    def test_equal_bandwidths_split_evenly(self):
        allocation = allocate_subgroups(10, {"a": 1.0, "b": 1.0})
        assert sorted(allocation.values()) == [5, 5]

    def test_zero_subgroups(self):
        assert allocate_subgroups(0, {"a": 1.0, "b": 2.0}) == {"a": 0, "b": 0}

    def test_faster_tier_never_gets_fewer(self):
        allocation = allocate_subgroups(7, {"slow": 1.0, "fast": 10.0, "mid": 3.0})
        assert allocation["fast"] >= allocation["mid"] >= allocation["slow"]

    def test_every_nonzero_tier_used_when_enough_subgroups(self):
        allocation = allocate_subgroups(5, {"a": 100.0, "b": 1.0})
        assert allocation["b"] >= 1

    def test_zero_bandwidth_tier_gets_nothing(self):
        allocation = allocate_subgroups(10, {"a": 1.0, "dead": 0.0})
        assert allocation["dead"] == 0
        assert allocation["a"] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_subgroups(-1, {"a": 1.0})
        with pytest.raises(ValueError):
            allocate_subgroups(1, {})
        with pytest.raises(ValueError):
            allocate_subgroups(1, {"a": -1.0})
        with pytest.raises(ValueError):
            allocate_subgroups(1, {"a": 0.0})

    def test_ratio_based_allocation(self):
        allocation = allocation_from_ratios(30, {"local": 2.0, "remote": 1.0})
        assert allocation == {"local": 20, "remote": 10}


class TestExpectedRoundTrip:
    def test_balanced_allocation_minimizes_straggling(self):
        bandwidths = {"nvme": 5.0, "pfs": 3.0}
        balanced = allocate_subgroups(80, bandwidths)
        skewed = {"nvme": 10, "pfs": 70}
        assert expected_round_trip_seconds(1.0, balanced, bandwidths) < expected_round_trip_seconds(
            1.0, skewed, bandwidths
        )

    def test_single_tier_time(self):
        assert expected_round_trip_seconds(2.0, {"nvme": 10}, {"nvme": 4.0}) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_round_trip_seconds(-1.0, {"a": 1}, {"a": 1.0})
        with pytest.raises(ValueError):
            expected_round_trip_seconds(1.0, {"a": 1}, {"a": 0.0})


class TestBandwidthEstimator:
    def test_observation_moves_estimate_towards_measurement(self):
        estimator = BandwidthEstimator(initial={"nvme": 10.0}, smoothing=0.5)
        estimator.observe("nvme", nbytes=100.0, seconds=50.0)  # observed 2.0
        assert estimator.bandwidths["nvme"] == pytest.approx(6.0)

    def test_zero_observations_are_ignored(self):
        estimator = BandwidthEstimator(initial={"nvme": 10.0})
        assert estimator.observe("nvme", 0.0, 0.0) == 10.0

    def test_allocation_adapts_to_shifting_bandwidth(self):
        estimator = BandwidthEstimator(initial={"nvme": 5.0, "pfs": 5.0}, smoothing=1.0)
        before = estimator.allocate(100)
        assert before["nvme"] == before["pfs"]
        # The PFS comes under external pressure and slows to one fifth.
        estimator.observe("pfs", nbytes=10.0, seconds=10.0)
        after = estimator.allocate(100)
        assert after["nvme"] > after["pfs"]
        assert sum(after.values()) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthEstimator(initial={})
        with pytest.raises(ValueError):
            BandwidthEstimator(initial={"a": 0.0})
        with pytest.raises(ValueError):
            BandwidthEstimator(initial={"a": 1.0}, smoothing=0.0)
        estimator = BandwidthEstimator(initial={"a": 1.0})
        with pytest.raises(KeyError):
            estimator.observe("b", 1.0, 1.0)
        with pytest.raises(ValueError):
            estimator.observe("a", -1.0, 1.0)
