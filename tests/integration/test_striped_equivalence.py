"""Striped multi-path reads: bitwise equivalence with the unstriped baseline.

Striping is a pure layout/scheduling change: with it on, every subgroup's
fields are split across NVMe and PFS and fetched from both paths at once,
but the Adam updates, FP16 working parameters and FP32 master state must be
exactly the ones the single-path engine produces.  The degenerate
single-path configuration (``stripe.paths=1``) must not merely match
numerically — it must leave the tier directories byte-for-byte identical to
a run with striping disabled.
"""

import threading

import numpy as np
import pytest

from repro.aio.locks import TierLockManager
from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750
FIELD_BYTES = SUBGROUP * 4


@pytest.fixture
def layout():
    return build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)


@pytest.fixture
def training_inputs(rng):
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    grads = [rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(4)]
    return initial, grads


def _stripe(**fields):
    return StripeConfig(threshold_bytes=float(FIELD_BYTES // 2), **fields)


def _make_config(root, **overrides):
    local = root / "nvme"
    remote = root / "pfs"
    local.mkdir(parents=True, exist_ok=True)
    remote.mkdir(parents=True, exist_ok=True)
    defaults = dict(
        subgroup_size=SUBGROUP,
        host_cache_bytes=0.0,
        adam=AdamConfig(lr=1e-2),
        stripe=_stripe(),
    )
    defaults.update(overrides)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(local), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(remote), read_bw=3.6e9, write_bw=3.6e9),
        ),
        **defaults,
    )


def _drive(config, layout, initial, grads):
    views = flat_views(None, layout, 0)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        for grad in grads:
            for index, view in views.items():
                engine.on_backward_gradient(index, grad[view].astype(np.float16))
            engine.on_microbatch_complete()
            engine.run_update(fp16)
        master = engine.fetch_master_params()
        steps = dict(engine._steps)
        io = engine.tier.io_summary()
    return fp16, master, steps, io


class TestStripedBitwiseEquivalence:
    @pytest.mark.parametrize("delayed_grads", [True, False])
    def test_striping_on_matches_off(self, tmp_path, layout, training_inputs, delayed_grads):
        initial, grads = training_inputs
        off = _drive(
            _make_config(
                tmp_path / "off",
                stripe=_stripe(enabled=False),
                enable_delayed_grad_conversion=delayed_grads,
            ),
            layout,
            initial,
            grads,
        )
        on = _drive(
            _make_config(
                tmp_path / "on",
                stripe=_stripe(enabled=True),
                enable_delayed_grad_conversion=delayed_grads,
            ),
            layout,
            initial,
            grads,
        )
        np.testing.assert_array_equal(off[0], on[0])
        np.testing.assert_array_equal(off[1], on[1])
        assert off[2] == on[2]

    def test_striped_fetches_engage_both_paths(self, tmp_path, layout, training_inputs):
        """With striping on, every tier serves read bytes — no idle path."""
        initial, grads = training_inputs
        # Freeze the estimator at the configured hints so the expected
        # bandwidth-proportional split is deterministic on any test machine.
        _, _, _, io = _drive(
            _make_config(tmp_path / "on", stripe=_stripe(enabled=True), adaptive_bandwidth=False),
            layout,
            initial,
            grads,
        )
        assert io["nvme"]["bytes_read"] > 0
        assert io["pfs"]["bytes_read"] > 0
        # The bandwidth-weighted split sends the larger share to the faster path.
        assert io["nvme"]["bytes_read"] > io["pfs"]["bytes_read"]

    def test_tier_distribution_apportions_striped_bytes(self, tmp_path, layout, training_inputs):
        """The distribution report splits striped state across the stripe paths."""
        initial, grads = training_inputs
        views = flat_views(None, layout, 0)
        config = _make_config(
            tmp_path / "dist", stripe=_stripe(enabled=True), adaptive_bandwidth=False
        )
        with MLPOffloadEngine(config, layout, rank=0) as engine:
            engine.initialize(initial.copy())
            fp16 = initial.astype(np.float16)
            for index, view in views.items():
                engine.on_backward_gradient(index, grads[0][view].astype(np.float16))
            engine.on_microbatch_complete()
            engine.run_update(fp16)
            distribution = engine.tier_distribution()
            io = engine.tier.io_summary()
        total_state = sum(sg.optimizer_state_bytes for sg in engine.subgroups)
        assert distribution["nvme"] > 0 and distribution["pfs"] > 0
        assert distribution["nvme"] + distribution["pfs"] == pytest.approx(total_state)
        # Bandwidth-proportional: the faster hinted path holds the larger share.
        assert distribution["nvme"] > distribution["pfs"]
        # Every striped fetch engages both paths: each serves exactly the
        # share of the read bytes that the stripe plan placed on it.
        read_total = io["nvme"]["bytes_read"] + io["pfs"]["bytes_read"]
        for name in ("nvme", "pfs"):
            assert io[name]["bytes_read"] / read_total == pytest.approx(
                distribution[name] / total_state
            )

    def test_two_workers_sharing_lock_manager_do_not_deadlock(self, tmp_path, rng):
        """Striped flushes span both tiers; with tier-exclusive locking on and
        two workers sharing one lock manager, no flush/fetch may wait on one
        tier's lease while holding the other's (the ABBA hazard)."""
        layout = build_shard_layout(TOTAL_PARAMS, num_ranks=2, subgroup_size=SUBGROUP)
        config = _make_config(
            tmp_path / "mw",
            stripe=_stripe(enabled=True),
            enable_delayed_grad_conversion=False,  # exercise the backward flush too
        )
        manager = TierLockManager()
        initials = {
            rank: rng.standard_normal(layout.rank_params(rank)).astype(np.float32)
            for rank in (0, 1)
        }
        grads = {
            rank: [
                rng.standard_normal(layout.rank_params(rank)).astype(np.float32) * 0.1
                for _ in range(2)
            ]
            for rank in (0, 1)
        }
        errors = []

        def work(rank):
            try:
                views = flat_views(None, layout, rank)
                with MLPOffloadEngine(config, layout, rank=rank, lock_manager=manager) as engine:
                    engine.initialize(initials[rank].copy())
                    fp16 = initials[rank].astype(np.float16)
                    for grad in grads[rank]:
                        for index, view in views.items():
                            engine.on_backward_gradient(index, grad[view].astype(np.float16))
                        engine.on_microbatch_complete()
                        engine.run_update(fp16)
            except BaseException as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append((rank, exc))

        threads = [
            threading.Thread(target=work, args=(rank,), daemon=True) for rank in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "workers deadlocked (ABBA on tier leases)"
        assert not errors, f"worker raised: {errors}"

    def test_single_path_degenerate_config_is_byte_identical(
        self, tmp_path, layout, training_inputs
    ):
        """``stripe.paths=1`` must leave the exact files striping-off leaves."""
        initial, grads = training_inputs
        _drive(
            _make_config(tmp_path / "off", stripe=_stripe(enabled=False)),
            layout,
            initial,
            grads,
        )
        _drive(
            _make_config(tmp_path / "deg", stripe=_stripe(enabled=True, paths=1)),
            layout,
            initial,
            grads,
        )
        for tier in ("nvme", "pfs"):
            off_dir = tmp_path / "off" / tier
            deg_dir = tmp_path / "deg" / tier
            off_files = sorted(p.name for p in off_dir.glob("*.bin"))
            deg_files = sorted(p.name for p in deg_dir.glob("*.bin"))
            assert off_files == deg_files
            for name in off_files:
                assert (off_dir / name).read_bytes() == (deg_dir / name).read_bytes(), name
