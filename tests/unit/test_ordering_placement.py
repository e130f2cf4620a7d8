"""Unit tests for the cache-friendly ordering policy and the placement map."""

import pytest

from repro.core.ordering import OrderingPolicy, update_order
from repro.core.placement import PlacementMap


class TestUpdateOrder:
    def test_sequential_is_always_ascending(self):
        for iteration in range(4):
            assert update_order(5, iteration, OrderingPolicy.SEQUENTIAL) == [0, 1, 2, 3, 4]

    def test_alternating_flips_every_iteration(self):
        assert update_order(4, 0, OrderingPolicy.ALTERNATING) == [0, 1, 2, 3]
        assert update_order(4, 1, OrderingPolicy.ALTERNATING) == [3, 2, 1, 0]
        assert update_order(4, 2, OrderingPolicy.ALTERNATING) == [0, 1, 2, 3]

    def test_every_policy_returns_a_permutation(self):
        for policy in OrderingPolicy:
            order = update_order(7, 1, policy)
            assert sorted(order) == list(range(7))

    @pytest.mark.parametrize("num_subgroups", [1, 2, 7, 64])
    def test_alternating_starts_each_phase_where_the_last_ended(self, num_subgroups):
        """The tail of one phase (what an LRU host cache still holds) is the
        head of the next, in reverse: the property the ordering exists for."""
        for iteration in range(4):
            previous = update_order(num_subgroups, iteration)
            following = update_order(num_subgroups, iteration + 1)
            assert following == previous[::-1]

    def test_policies_agree_on_even_iterations(self):
        for iteration in (0, 2, 10):
            assert update_order(6, iteration, OrderingPolicy.ALTERNATING) == update_order(
                6, iteration, OrderingPolicy.SEQUENTIAL
            )

    def test_alternating_is_the_default(self):
        assert update_order(3, 1) == update_order(3, 1, OrderingPolicy.ALTERNATING)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            update_order(3, 0, "alternating")

    def test_edge_cases_and_validation(self):
        assert update_order(0, 0) == []
        with pytest.raises(ValueError):
            update_order(-1, 0)
        with pytest.raises(ValueError):
            update_order(1, -1)


class TestPlacementMap:
    def test_from_allocation_counts_match(self):
        placement = PlacementMap.from_allocation(list(range(9)), {"nvme": 6, "pfs": 3})
        assert placement.counts() == {"nvme": 6, "pfs": 3}
        assert len(placement) == 9

    def test_interleaving_spreads_consecutive_subgroups(self):
        placement = PlacementMap.from_allocation(list(range(6)), {"nvme": 3, "pfs": 3})
        tiers = [placement.tier_of(i) for i in range(6)]
        # With equal shares consecutive subgroups alternate tiers.
        assert tiers[0] != tiers[1]

    def test_block_placement(self):
        placement = PlacementMap.from_allocation(
            list(range(6)), {"nvme": 4, "pfs": 2}, interleave=False
        )
        assert [placement.tier_of(i) for i in range(6)] == ["nvme"] * 4 + ["pfs"] * 2

    def test_allocation_must_cover_all_subgroups(self):
        with pytest.raises(ValueError):
            PlacementMap.from_allocation(list(range(5)), {"nvme": 3})

    def test_assign_and_queries(self):
        placement = PlacementMap.from_allocation(list(range(4)), {"nvme": 4, "pfs": 0})
        placement.assign(2, "pfs")
        assert placement.tier_of(2) == "pfs"
        assert 2 in placement and 9 not in placement
        with pytest.raises(KeyError):
            placement.assign(0, "tape")
        with pytest.raises(KeyError):
            placement.tier_of(99)

    def test_host_sentinel_allowed(self):
        placement = PlacementMap.from_allocation(list(range(2)), {"nvme": 2})
        placement.assign(0, PlacementMap.HOST)
        assert placement.tier_of(0) == "host"

    def test_rebalance_moves_minimum_subgroups(self):
        placement = PlacementMap.from_allocation(
            list(range(10)), {"nvme": 10, "pfs": 0}, interleave=False
        )
        moves = placement.rebalance({"nvme": 6, "pfs": 4})
        assert len(moves) == 4
        assert placement.counts() == {"nvme": 6, "pfs": 4}
        # A second rebalance to the same target moves nothing.
        assert placement.rebalance({"nvme": 6, "pfs": 4}) == {}

    def test_rebalance_requires_matching_total(self):
        placement = PlacementMap.from_allocation(list(range(4)), {"nvme": 4})
        with pytest.raises(ValueError):
            placement.rebalance({"nvme": 3})

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PlacementMap([])
        with pytest.raises(ValueError):
            PlacementMap(["a", "a"])
