"""The update pipeline: bitwise equivalence with in-memory Adam, and zero-alloc.

The windowed prefetch/flush pipeline must be a pure scheduling change: for
every gradient policy, ordering policy, lookahead depth and host-cache size
it has to produce exactly the Adam states, FP16 working parameters and step
counters of an offloading-free in-memory Adam.  On top of that, the
steady-state update loop must stop allocating: once the buffer pool is
warm, every fetch/flush runs on recycled arrays.
"""

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.tiers.faultstore import FaultPlan, FaultRule, arm_faults, clear_faults
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750


@pytest.fixture
def layout():
    return build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)


@pytest.fixture
def training_inputs(rng):
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    grads = [rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(4)]
    return initial, grads


def _make_config(
    root,
    *,
    delayed_grads=True,
    cache_reorder=True,
    host_cache_bytes=3 * SUBGROUP * 12,
    **overrides,
):
    local = root / "nvme"
    remote = root / "pfs"
    local.mkdir(parents=True, exist_ok=True)
    remote.mkdir(parents=True, exist_ok=True)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(local), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(remote), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP,
        host_cache_bytes=host_cache_bytes,
        adam=AdamConfig(lr=1e-2),
        enable_delayed_grad_conversion=delayed_grads,
        enable_cache_reorder=cache_reorder,
        **overrides,
    )


def _drive(config, layout, initial, grads, check, *, after_phase=None):
    """Train one micro-batch per phase, check the result against in-memory
    Adam; return the update orders and the tier blob keys.

    ``after_phase(phase)`` runs after each update phase returns.
    """
    views = flat_views(None, layout, 0)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        orders = []
        for grad in grads:
            for index, view in views.items():
                engine.on_backward_gradient(index, grad[view].astype(np.float16))
            engine.on_microbatch_complete()
            orders.append(engine.run_update(fp16).order)
            if after_phase is not None:
                after_phase(len(orders))
        check(engine, fp16, initial, [[grad] for grad in grads])
        keys = [key for store in engine.tier.stores.values() for key in store.keys()]
    return orders, keys


def _expected_orders(phases, *, cache_reorder):
    ascending = list(range(TOTAL_PARAMS // SUBGROUP))
    if not cache_reorder:
        return [ascending] * phases
    return [ascending if phase % 2 == 0 else ascending[::-1] for phase in range(phases)]


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("prefetch_depth", [1, 2, 4])
    @pytest.mark.parametrize("delayed_grads", [True, False])
    @pytest.mark.parametrize("cache_reorder", [True, False])
    @pytest.mark.parametrize("host_cache_bytes", [0.0, 3 * SUBGROUP * 12])
    def test_update_matches_in_memory_adam(
        self,
        tmp_path,
        monkeypatch,
        layout,
        training_inputs,
        assert_matches_in_memory_adam,
        prefetch_depth,
        delayed_grads,
        cache_reorder,
        host_cache_bytes,
    ):
        monkeypatch.setattr(engine_module, "PREFETCH_DEPTH", prefetch_depth)
        initial, grads = training_inputs
        config = _make_config(
            tmp_path,
            delayed_grads=delayed_grads,
            cache_reorder=cache_reorder,
            host_cache_bytes=host_cache_bytes,
        )
        orders, _ = _drive(config, layout, initial, grads, assert_matches_in_memory_adam)
        assert orders == _expected_orders(len(grads), cache_reorder=cache_reorder)


class TestWriteBehindReadAfterWrite:
    def test_victim_fetched_while_its_eviction_write_is_in_flight(
        self, tmp_path, layout, training_inputs, assert_matches_in_memory_adam
    ):
        """A dirty eviction written behind is read back in the same phase.

        Sequential order with a cache of seven of the eight subgroups
        thrashes (§3.1): phase 2 opens by evicting subgroup 1 (dirty since
        phase 1) to make room for subgroup 0, then fetches subgroup 1 next.
        A stall on one of its stripe writes holds that write in flight
        across the fetch, so the run is only correct if the fetch waits for
        the subgroup's own write — before the write's stripe commit, a read
        plans against the old manifest.
        """
        initial, grads = training_inputs
        config = _make_config(
            tmp_path,
            cache_reorder=False,
            host_cache_bytes=7 * SUBGROUP * 12,
            stripe=StripeConfig(threshold_bytes=1024.0),
        )
        plan = FaultPlan()

        def stall_victim_write(phase):
            if phase == 1:
                plan.add(FaultRule(kind="stall", op="write", key="rank0-sg00001.*", seconds=0.5))

        arm_faults(plan)
        try:
            orders, keys = _drive(
                config,
                layout,
                initial,
                grads,
                assert_matches_in_memory_adam,
                after_phase=stall_victim_write,
            )
        finally:
            clear_faults()
        assert plan.injected == {"stall": 1}
        assert orders == _expected_orders(len(grads), cache_reorder=False)
        assert any(".stripe" in key for key in keys)


class TestZeroAllocationSteadyState:
    @pytest.mark.parametrize("host_cache_bytes", [0.0, 3 * SUBGROUP * 12])
    def test_pool_stops_allocating_after_warmup(
        self, tmp_path, layout, training_inputs, host_cache_bytes, rng
    ):
        initial, _ = training_inputs
        config = _make_config(tmp_path / "warm", host_cache_bytes=host_cache_bytes)
        views = flat_views(None, layout, 0)
        with MLPOffloadEngine(config, layout, rank=0) as engine:
            engine.initialize(initial.copy())
            fp16 = initial.astype(np.float16)

            def one_phase():
                grad = rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1
                for index, view in views.items():
                    engine.on_backward_gradient(index, grad[view].astype(np.float16))
                engine.on_microbatch_complete()
                engine.run_update(fp16)

            # Warm-up reaches the in-flight high-water mark, whose exact value
            # depends on flush-completion timing; steady state is reached when
            # three consecutive phases allocate nothing.  The loop bound keeps
            # a broken pool (allocating every phase) failing loudly.
            quiet_phases = 0
            for _ in range(15):
                before = engine.pool.stats.allocations
                one_phase()
                quiet_phases = quiet_phases + 1 if engine.pool.stats.allocations == before else 0
                if quiet_phases == 3:
                    break
            assert quiet_phases == 3, (
                f"pool never stopped allocating: {engine.pool.stats.allocations} "
                "allocations after 15 phases"
            )
            assert engine.pool.stats.hit_rate > 0.5
