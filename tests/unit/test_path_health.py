"""Unit tests for path health: quarantine, degraded weights, probes and recovery."""

import concurrent.futures
import errno

import numpy as np
import pytest

from repro.core.config import IOBackendConfig, MLPOffloadConfig, StripeConfig, TierConfig
from repro.aio.engine import IOKind, IORequest, IOResult
from repro.core.path_health import PathHealth, recover_on_path_fatal
from repro.core.virtual_tier import VirtualTier
from repro.tiers.faultstore import FaultPlan, FaultRule, arm_faults, clear_faults
from repro.tiers.file_store import StoreError
from repro.tiers.spec import degraded_weights
from repro.train.adam import AdamConfig


def _fatal():
    err = StoreError("write failed")
    err.__cause__ = OSError(errno.EIO, "device error")
    return err


class TestDegradedWeights:
    def test_masks_unhealthy_paths_to_zero(self):
        assert degraded_weights([3.0, 1.0], [True, False]) == (3.0, 0.0)
        assert degraded_weights([3.0, 1.0], [False, True]) == (0.0, 1.0)

    def test_all_healthy_passes_through(self):
        assert degraded_weights([3.0, 1.0], [True, True]) == (3.0, 1.0)

    def test_equal_split_when_survivors_have_zero_weight(self):
        assert degraded_weights([0.0, 5.0, 0.0], [True, False, True]) == (
            1.0,
            0.0,
            1.0,
        )

    def test_no_healthy_path_passes_through_unmasked(self):
        # The caller surfaces the typed error; the weights must stay usable.
        assert degraded_weights([3.0, 1.0], [False, False]) == (3.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            degraded_weights([1.0], [True, False])


class TestPathHealth:
    def test_quarantines_after_k_consecutive_fatal_failures(self):
        health = PathHealth(["a", "b"], quarantine_after=3)
        for _ in range(2):
            health.on_failure("a", _fatal())
        assert health.is_healthy("a")
        health.on_failure("a", _fatal())
        assert not health.is_healthy("a")
        assert health.is_healthy("b")
        assert health.quarantine_events == 1
        assert health.healthy_mask(["a", "b"]) == [False, True]

    def test_success_resets_the_streak(self):
        health = PathHealth(["a"], quarantine_after=2)
        health.on_failure("a", _fatal())
        health.on_success("a")
        health.on_failure("a", _fatal())
        assert health.is_healthy("a")

    def test_application_errors_never_count(self):
        health = PathHealth(["a"], quarantine_after=1)
        health.on_failure("a", StoreError("no blob for key 'missing'"))
        health.on_failure("a", StoreError("dtype mismatch"))
        assert health.is_healthy("a")
        assert not PathHealth.is_path_fatal(StoreError("no blob"))
        assert PathHealth.is_path_fatal(_fatal())
        assert PathHealth.is_path_fatal(OSError(errno.ENOSPC, "full"))

    def test_force_quarantine_and_admit(self):
        health = PathHealth(["a"], quarantine_after=3)
        health.force_quarantine("a")
        assert not health.is_healthy("a")
        # Further failures on a quarantined path are no-ops, not double counts.
        health.on_failure("a", _fatal())
        assert health.quarantine_events == 1
        health.admit("a")
        assert health.is_healthy("a")
        assert health.recovery_events == 1
        # Re-admission cleared the streak: one new failure does not re-trip.
        health.on_failure("a", _fatal())
        assert health.is_healthy("a")

    def test_tick_schedules_probes_on_the_interval(self):
        health = PathHealth(["a", "b"], quarantine_after=1, probe_interval=3)
        assert health.tick() == []  # nothing quarantined, nothing due
        health.force_quarantine("a")
        due = [health.tick() for _ in range(7)]
        assert due == [[], [], ["a"], [], [], ["a"], []]

    def test_unknown_tiers_are_ignored(self):
        health = PathHealth(["a"], quarantine_after=1)
        health.on_failure("ghost", _fatal())
        health.on_success("ghost")
        health.force_quarantine("ghost")
        health.admit("ghost")
        assert "ghost" not in health.snapshot()

    def test_validation(self):
        with pytest.raises(ValueError):
            PathHealth(["a"], quarantine_after=0)
        with pytest.raises(ValueError):
            PathHealth(["a"], probe_interval=0)

    def test_snapshot_reports_state(self):
        health = PathHealth(["a", "b"], quarantine_after=2, probe_interval=4)
        health.on_failure("a", _fatal())
        health.force_quarantine("b")
        health.tick()
        snap = health.snapshot()
        assert snap["a"] == {
            "healthy": True,
            "consecutive_fatal": 1,
            "ticks_quarantined": 0,
        }
        assert snap["b"]["healthy"] is False
        assert snap["b"]["ticks_quarantined"] == 1


def _result(error=None):
    request = IORequest(kind=IOKind.WRITE, tier="a", key="k")
    return IOResult(request=request, nbytes=0 if error else 16, seconds=0.0, error=error)


class TestRecoverOnPathFatal:
    @staticmethod
    def _settle(recover, *, result=None, exception=None):
        """Wrap a pending future, then complete it with ``result``/``exception``."""
        upstream = concurrent.futures.Future()
        wrapped = recover_on_path_fatal(upstream, recover)
        assert not wrapped.done()
        if exception is not None:
            upstream.set_exception(exception)
        else:
            upstream.set_result(result)
        return wrapped

    def test_success_passes_through_untouched(self):
        calls = []
        ok = _result()
        assert self._settle(calls.append, result=ok).result() is ok
        assert calls == []

    def test_application_error_passes_through_untouched(self):
        calls = []
        failed = _result(StoreError("no blob for key 'k'"))
        assert self._settle(calls.append, result=failed).result() is failed
        assert calls == []

    def test_path_fatal_error_is_replaced_by_the_recovery(self):
        calls = []
        failed, recovered = _result(_fatal()), _result()

        def recover(result):
            calls.append(result)
            return recovered

        assert self._settle(recover, result=failed).result() is recovered
        assert calls == [failed]

    def test_raising_recovery_becomes_the_exception(self):
        def recover(result):
            raise RuntimeError("rewrite failed too")

        wrapped = self._settle(recover, result=_result(_fatal()))
        with pytest.raises(RuntimeError, match="rewrite failed too"):
            wrapped.result()

    def test_upstream_base_exception_becomes_the_exception(self):
        calls = []
        wrapped = self._settle(calls.append, exception=SystemExit(3))
        with pytest.raises(SystemExit):
            wrapped.result()
        assert calls == []


#: A flush payload above the test configs' 512-byte stripe threshold.
_BIG = {"params": np.zeros(1000, dtype=np.float32)}


def _two_path_config(tmp_path, **overrides):
    for name in ("nvme", "pfs"):
        (tmp_path / name).mkdir(exist_ok=True)
    defaults = dict(
        subgroup_size=256,
        adam=AdamConfig(lr=1e-3),
        stripe=StripeConfig(enabled=True, threshold_bytes=512.0),
        adaptive_bandwidth=False,
        io=IOBackendConfig(retry_attempts=1),
        path_quarantine_failures=2,
        path_probe_interval=2,
    )
    defaults.update(overrides)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(tmp_path / "nvme"), read_bw=6e9, write_bw=5e9),
            TierConfig("pfs", str(tmp_path / "pfs"), read_bw=3e9, write_bw=3e9),
        ),
        **defaults,
    )


class TestVirtualTierHealthIntegration:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        clear_faults()
        yield
        clear_faults()

    def test_engine_failures_feed_the_observer(self, tmp_path):
        arm_faults(FaultPlan([FaultRule(kind="dead", op="write", tier="pfs", count=0)]))
        config = _two_path_config(tmp_path, stripe=StripeConfig(enabled=False))
        with VirtualTier(config) as tier:
            assert tier.health is not None
            assert tier.engine.observer is tier.health
            tier.build_placement([0, 1])
            # Force two whole-blob writes at pfs; both die; path quarantines
            # at K=2 — but the failover machinery rewrites them onto nvme, so
            # the caller still sees success.
            tier.flush_subgroup("sg0", 0, {"params": np.arange(4, dtype=np.float32)}, tier="pfs")
            tier.flush_subgroup("sg1", 1, {"params": np.arange(4, dtype=np.float32)}, tier="pfs")
            assert not tier.health.is_healthy("pfs")
            assert tier.health.failovers >= 1
            assert tier.placement.tier_of(0) == "nvme"
            summary = tier.health.summary()
            assert summary["paths"]["pfs"]["healthy"] is False

    def test_stripe_weights_mask_quarantined_paths(self, tmp_path):
        config = _two_path_config(tmp_path)
        with VirtualTier(config) as tier:
            assert tier._stripe_weights() == [6e9, 3e9]
            tier.health.force_quarantine("pfs")
            assert tier._stripe_weights() == [6e9, 0.0]
            # one survivor: striping is overhead
            assert not tier.health.can_stripe(tier.stripe_tier_names)
            assert not tier.will_stripe(_BIG)  # the flush goes whole
            assert tier.health.healthy_target("pfs") == "nvme"
            tier.health.admit("pfs")
            assert tier.health.can_stripe(tier.stripe_tier_names)
            assert tier.will_stripe(_BIG)
            assert tier.health.healthy_target("pfs") == "pfs"

    def test_quarantined_primary_blocks_new_striped_writes(self, tmp_path):
        config = _two_path_config(tmp_path)
        with VirtualTier(config) as tier:
            tier.health.force_quarantine("nvme")  # the stripe primary
            assert not tier.health.can_stripe(tier.stripe_tier_names)

    def test_probe_readmits_after_the_path_heals(self, tmp_path):
        # The path dies for exactly 2 writes.  Write 0 is the flush (which
        # fails over and quarantines pfs immediately — subsequent flushes
        # re-route, consuming no pfs faults); write 1 is the first probe.
        arm_faults(FaultPlan([FaultRule(kind="dead", op="write", tier="pfs", count=2)]))
        config = _two_path_config(tmp_path, stripe=StripeConfig(enabled=False))
        with VirtualTier(config) as tier:
            tier.build_placement([0])
            payload = np.arange(4, dtype=np.float32)
            tier.flush_subgroup("sg0", 0, {"params": payload}, tier="pfs")
            assert not tier.health.is_healthy("pfs")
            # A quarantined path takes no flush traffic while down.
            tier.flush_subgroup("sg0", 0, {"params": payload}, tier="pfs")
            assert tier.placement.tier_of(0) == "nvme"
            tier.observe_iteration()  # tick 1: not due yet (interval 2)
            assert not tier.health.is_healthy("pfs")
            tier.observe_iteration()  # tick 2: probe runs — burns the last fault
            assert not tier.health.is_healthy("pfs")
            tier.observe_iteration()  # tick 3: not due
            tier.observe_iteration()  # tick 4: probe succeeds
            assert tier.health.is_healthy("pfs")
            assert tier.health.recovery_events == 1
            # No probe residue may pollute the store.
            assert not any(k.startswith("ioprobe") for k in tier.stores["pfs"].keys())

    def test_failed_degraded_rewrite_keeps_the_committed_striped_value(self, tmp_path):
        # The re-flush's pfs stripe dies (pfs quarantined, can no longer
        # stripe) and the whole-blob rewrite onto nvme hits ENOSPC.  The
        # flush must fail without touching the committed striped value.
        plan = arm_faults(FaultPlan())
        config = _two_path_config(tmp_path)
        with VirtualTier(config) as tier:
            tier.build_placement([0])
            old = np.arange(1000, dtype=np.float32)
            tier.flush_subgroup("sg0", 0, {"params": old})
            assert tier.is_striped_subgroup("sg0")
            plan.add(FaultRule(kind="dead", op="write", tier="pfs", count=1))
            plan.add(FaultRule(kind="enospc", op="write", tier="nvme", key="sg0.params", count=1))
            with pytest.raises(OSError, match="injected device full"):
                tier.flush_subgroup("sg0", 0, {"params": old + 1.0})
            assert plan.injected == {"dead": 1, "enospc": 1}
            tier.health.admit("pfs")
            fetched = tier.fetch_subgroup("sg0", 0, ["params"])
            np.testing.assert_array_equal(fetched["params"], old)
