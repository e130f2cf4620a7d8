"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import OrderingPolicy, update_order
from repro.core.performance_model import allocate_subgroups
from repro.core.placement import PlacementMap
from repro.sim.resources import FluidResource, FluidSimulation, Transfer
from repro.tiers.host_cache import HostSubgroupCache
from repro.train.adam import AdamConfig, AdamState, adam_update
from repro.train.sharding import build_shard_layout
from repro.util.bytesize import format_bytes, parse_bytes

# ---------------------------------------------------------------------------
# Equation 1 allocation invariants
# ---------------------------------------------------------------------------

bandwidth_maps = st.dictionaries(
    keys=st.sampled_from(["nvme", "pfs", "daos", "burst", "obj"]),
    values=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=5,
)


@given(num_subgroups=st.integers(min_value=0, max_value=2000), bandwidths=bandwidth_maps)
@settings(max_examples=200, deadline=None)
def test_allocation_sums_and_bounds(num_subgroups, bandwidths):
    allocation = allocate_subgroups(num_subgroups, bandwidths)
    assert sum(allocation.values()) == num_subgroups
    assert set(allocation) == set(bandwidths)
    assert all(count >= 0 for count in allocation.values())


@given(num_subgroups=st.integers(min_value=10, max_value=2000), bandwidths=bandwidth_maps)
@settings(max_examples=200, deadline=None)
def test_allocation_is_monotone_in_bandwidth(num_subgroups, bandwidths):
    allocation = allocate_subgroups(num_subgroups, bandwidths)
    ordered = sorted(bandwidths, key=lambda name: bandwidths[name])
    for slower, faster in zip(ordered, ordered[1:]):
        if bandwidths[faster] > bandwidths[slower]:
            assert allocation[faster] >= allocation[slower]


@given(
    num_subgroups=st.integers(min_value=2, max_value=500),
    fast=st.floats(min_value=1.0, max_value=50.0),
    slow=st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_allocation_share_tracks_bandwidth_share(num_subgroups, fast, slow):
    allocation = allocate_subgroups(num_subgroups, {"fast": fast, "slow": slow})
    expected_fast = num_subgroups * fast / (fast + slow)
    assert abs(allocation["fast"] - expected_fast) <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# Ordering invariants
# ---------------------------------------------------------------------------

@given(
    n=st.integers(min_value=0, max_value=500),
    iteration=st.integers(min_value=0, max_value=20),
    policy=st.sampled_from(list(OrderingPolicy)),
)
@settings(max_examples=200, deadline=None)
def test_update_order_is_always_a_permutation(n, iteration, policy):
    order = update_order(n, iteration, policy)
    assert sorted(order) == list(range(n))


@given(n=st.integers(min_value=1, max_value=300), iteration=st.integers(min_value=0, max_value=10))
@settings(max_examples=100, deadline=None)
def test_alternating_order_reverses_between_consecutive_iterations(n, iteration):
    first = update_order(n, iteration, OrderingPolicy.ALTERNATING)
    second = update_order(n, iteration + 1, OrderingPolicy.ALTERNATING)
    assert first == second[::-1]


def _replay_phase(cache, order):
    """Run one update phase's cache traffic; return its hit count."""
    hits = 0
    for subgroup in order:
        if cache.get(subgroup) is not None:
            hits += 1
        else:
            cache.put(subgroup, {"state": np.zeros(1, dtype=np.float32)})
    return hits


@given(
    n=st.integers(min_value=1, max_value=64),
    cache=st.integers(min_value=0, max_value=72),
    iteration=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_alternating_never_hits_less_than_sequential(n, cache, iteration):
    hits = {}
    for policy in (OrderingPolicy.ALTERNATING, OrderingPolicy.SEQUENTIAL):
        host = HostSubgroupCache(capacity_bytes=cache * 4)
        for phase in range(iteration):
            _replay_phase(host, update_order(n, phase, policy))
        hits[policy] = _replay_phase(host, update_order(n, iteration, policy))
    assert hits[OrderingPolicy.ALTERNATING] >= hits[OrderingPolicy.SEQUENTIAL]
    assert hits[OrderingPolicy.ALTERNATING] == min(n, cache)


# ---------------------------------------------------------------------------
# Placement invariants
# ---------------------------------------------------------------------------

@given(
    counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_placement_counts_match_allocation(counts):
    allocation = {f"tier{i}": c for i, c in enumerate(counts)}
    total = sum(counts)
    placement = PlacementMap.from_allocation(list(range(total)), allocation)
    assert placement.counts() == allocation
    # Every subgroup has exactly one tier.
    assert len(placement) == total


# ---------------------------------------------------------------------------
# Sharding invariants
# ---------------------------------------------------------------------------

@given(
    total=st.integers(min_value=1, max_value=100_000),
    ranks=st.integers(min_value=1, max_value=16),
    subgroup=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=200, deadline=None)
def test_shard_layout_partitions_parameters_exactly(total, ranks, subgroup):
    layout = build_shard_layout(total, num_ranks=ranks, subgroup_size=subgroup)
    layout.validate()
    assert sum(sg.num_params for sg in layout.subgroups) == total
    assert all(0 < sg.num_params <= subgroup for sg in layout.subgroups)
    sizes = [layout.rank_params(r) for r in range(ranks)]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# Adam invariants
# ---------------------------------------------------------------------------

@given(
    data=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False, width=32), min_size=4, max_size=64
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=100, deadline=None)
def test_adam_subgroup_permutation_invariance(data, seed):
    """Splitting a parameter vector into subgroups and updating them in any order
    gives exactly the same result — the property MLP-Offload's reordering relies on."""
    rng = np.random.default_rng(seed)
    params = np.array(data, dtype=np.float32)
    grads = rng.standard_normal(params.size).astype(np.float32)
    config = AdamConfig(lr=1e-2)
    split = max(1, params.size // 3)
    slices = [slice(i, min(i + split, params.size)) for i in range(0, params.size, split)]

    def run(order):
        states = {i: AdamState.zeros(s.stop - s.start, init=params[s]) for i, s in enumerate(slices)}
        for i in order:
            adam_update(states[i], grads[slices[i]], config)
        return np.concatenate([states[i].params for i in range(len(slices))])

    forward = run(list(range(len(slices))))
    backward = run(list(reversed(range(len(slices)))))
    np.testing.assert_array_equal(forward, backward)


@given(steps=st.integers(min_value=1, max_value=20), seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=50, deadline=None)
def test_adam_params_stay_finite(steps, seed):
    rng = np.random.default_rng(seed)
    state = AdamState.zeros(32, init=rng.standard_normal(32).astype(np.float32))
    for _ in range(steps):
        adam_update(state, rng.standard_normal(32).astype(np.float32), AdamConfig(lr=0.01))
    assert np.isfinite(state.params).all()
    assert np.isfinite(state.exp_avg).all()
    assert (state.exp_avg_sq >= 0).all()


# ---------------------------------------------------------------------------
# Host cache invariants
# ---------------------------------------------------------------------------

@given(
    capacity=st.integers(min_value=0, max_value=4000),
    sizes=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=50),
)
@settings(max_examples=150, deadline=None)
def test_cache_never_exceeds_capacity(capacity, sizes):
    cache = HostSubgroupCache(capacity_bytes=capacity, writeback=lambda *a: None)
    for i, size in enumerate(sizes):
        cache.put(i, {"params": np.zeros(size, dtype=np.uint8)}, dirty=True)
        assert cache.used_bytes <= capacity
    # Resident entries are always a subset of what was inserted.
    assert set(cache.cached_ids()).issubset(set(range(len(sizes))))


# ---------------------------------------------------------------------------
# Fluid simulation conservation laws
# ---------------------------------------------------------------------------

@given(
    units=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=10),
    capacity=st.floats(min_value=0.5, max_value=50.0),
    penalty=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_fluid_simulation_is_work_conserving(units, capacity, penalty):
    """Total completion time is bounded below by work/capacity and above by the
    fully-serialized, fully-penalized time."""
    sim = FluidSimulation()
    resource = FluidResource("r", capacity=capacity, contention_penalty=penalty)
    transfers = [
        sim.submit(Transfer(resource, units=u, owner=f"w{i}")) for i, u in enumerate(units)
    ]
    wall = sim.run()
    total_units = sum(units)
    assert wall >= total_units / capacity - 1e-6
    worst_capacity = capacity / (1.0 + penalty * (len(units) - 1))
    assert wall <= total_units / worst_capacity + 1e-6
    assert all(t.done for t in transfers)


# ---------------------------------------------------------------------------
# Byte-size parsing round trip
# ---------------------------------------------------------------------------

@given(value=st.integers(min_value=0, max_value=10**15))
@settings(max_examples=200, deadline=None)
def test_parse_bytes_accepts_what_it_formats(value):
    formatted = format_bytes(value, precision=6)
    parsed = parse_bytes(formatted)
    if value >= 1024:
        assert parsed == pytest.approx(value, rel=1e-4)
    else:
        assert parsed == value
