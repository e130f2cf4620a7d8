"""Pipelined vs sequential update phase: bitwise equivalence and zero-alloc.

The windowed prefetch/flush pipeline must be a pure scheduling change: for
every gradient policy, ordering policy and lookahead depth it has to produce
exactly the same Adam states, FP16 working parameters and tier contents as
the single-buffered baseline loop.  On top of that, the steady-state update loop
must stop allocating: once the buffer pool is warm, every fetch/flush runs on
recycled arrays.
"""

import numpy as np
import pytest

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
    pipelined,
    prefetch_depth=2,
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
        pipeline_update_phase=pipelined,
        prefetch_depth=prefetch_depth,
        enable_delayed_grad_conversion=delayed_grads,
        enable_cache_reorder=cache_reorder,
        **overrides,
    )


def _drive(config, layout, initial, grads, *, after_phase=None):
    """Run a full training loop; return everything observable about the result.

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
        master = engine.fetch_master_params()
        steps = dict(engine._steps)
        tier_contents = {}
        for name, store in engine.tier.stores.items():
            for key in store.keys():
                tier_contents[(name, key)] = store.read(key).tobytes()
    return fp16, master, steps, orders, tier_contents


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("prefetch_depth", [1, 2, 4])
    @pytest.mark.parametrize("delayed_grads", [True, False])
    @pytest.mark.parametrize("cache_reorder", [True, False])
    def test_pipelined_matches_sequential(
        self, tmp_path, layout, training_inputs, prefetch_depth, delayed_grads, cache_reorder
    ):
        initial, grads = training_inputs
        seq = _drive(
            _make_config(
                tmp_path / "seq",
                pipelined=False,
                delayed_grads=delayed_grads,
                cache_reorder=cache_reorder,
            ),
            layout,
            initial,
            grads,
        )
        pipe = _drive(
            _make_config(
                tmp_path / "pipe",
                pipelined=True,
                prefetch_depth=prefetch_depth,
                delayed_grads=delayed_grads,
                cache_reorder=cache_reorder,
            ),
            layout,
            initial,
            grads,
        )
        fp16_seq, master_seq, steps_seq, orders_seq, tiers_seq = seq
        fp16_pipe, master_pipe, steps_pipe, orders_pipe, tiers_pipe = pipe
        assert orders_seq == orders_pipe
        assert steps_seq == steps_pipe
        np.testing.assert_array_equal(fp16_seq, fp16_pipe)
        np.testing.assert_array_equal(master_seq, master_pipe)
        assert tiers_seq == tiers_pipe

    def test_no_host_cache_still_equivalent(self, tmp_path, layout, training_inputs):
        """Every subgroup round-trips the tiers (all lazy flushes go async)."""
        initial, grads = training_inputs
        seq = _drive(
            _make_config(tmp_path / "seq", pipelined=False, host_cache_bytes=0.0),
            layout,
            initial,
            grads,
        )
        pipe = _drive(
            _make_config(
                tmp_path / "pipe", pipelined=True, prefetch_depth=4, host_cache_bytes=0.0
            ),
            layout,
            initial,
            grads,
        )
        np.testing.assert_array_equal(seq[0], pipe[0])
        np.testing.assert_array_equal(seq[1], pipe[1])
        assert seq[4] == pipe[4]


class TestWriteBehindReadAfterWrite:
    def test_victim_fetched_while_its_eviction_write_is_in_flight(
        self, tmp_path, layout, training_inputs
    ):
        """A dirty eviction written behind is read back in the same phase.

        Sequential order with a cache of seven of the eight subgroups
        thrashes (§3.1): phase 2 opens by evicting subgroup 1 (dirty since
        phase 1) to make room for subgroup 0, then fetches subgroup 1 next.
        A stall on one of its stripe writes holds that write in flight
        across the fetch, so the pipelined run is only correct if the fetch
        waits for the subgroup's own write — before the write's stripe
        commit, a read plans against the old manifest.
        """
        initial, grads = training_inputs
        striped = dict(
            cache_reorder=False,
            host_cache_bytes=7 * SUBGROUP * 12,
            stripe=StripeConfig(threshold_bytes=1024.0),
        )
        seq = _drive(
            _make_config(tmp_path / "seq", pipelined=False, **striped), layout, initial, grads
        )
        plan = FaultPlan()

        def stall_victim_write(phase):
            if phase == 1:
                plan.add(FaultRule(kind="stall", op="write", key="rank0-sg00001.*", seconds=0.5))

        arm_faults(plan)
        try:
            pipe = _drive(
                _make_config(tmp_path / "pipe", pipelined=True, **striped),
                layout,
                initial,
                grads,
                after_phase=stall_victim_write,
            )
        finally:
            clear_faults()
        assert plan.injected == {"stall": 1}
        assert seq[3] == pipe[3]  # same orders
        np.testing.assert_array_equal(seq[0], pipe[0])  # fp16 params
        np.testing.assert_array_equal(seq[1], pipe[1])  # fp32 masters
        assert seq[2] == pipe[2]  # step counters
        assert any(".stripe" in key for _, key in pipe[4])
        assert seq[4] == pipe[4]  # tier contents


class TestZeroAllocationSteadyState:
    @pytest.mark.parametrize("host_cache_bytes", [0.0, 3 * SUBGROUP * 12])
    def test_pool_stops_allocating_after_warmup(
        self, tmp_path, layout, training_inputs, host_cache_bytes, rng
    ):
        initial, _ = training_inputs
        config = _make_config(
            tmp_path / "warm", pipelined=True, prefetch_depth=2, host_cache_bytes=host_cache_bytes
        )
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
