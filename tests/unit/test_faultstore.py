"""Unit tests for the deterministic tier-I/O fault-injection layer."""

import errno
import os
import time

import numpy as np
import pytest

from repro.tiers import faultstore
from repro.tiers.faultstore import (
    FAULT_ENV,
    FaultInjectingStore,
    FaultPlan,
    FaultRule,
    arm_faults,
    clear_faults,
    maybe_wrap,
)
from repro.tiers.file_store import FileStore, TruncatedBlobError


@pytest.fixture(autouse=True)
def _disarmed(monkeypatch):
    """Every test starts and ends with nothing armed, in-process or via env."""
    monkeypatch.delenv(FAULT_ENV, raising=False)
    clear_faults()
    yield
    clear_faults()


@pytest.fixture
def store(tmp_path):
    return FileStore(tmp_path / "tier", name="nvme")


def _wrapped(store, *rules):
    return FaultInjectingStore(store, FaultPlan(rules))


class TestFaultRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="meteor-strike")
        with pytest.raises(ValueError):
            FaultRule(kind="eio", op="append")
        with pytest.raises(ValueError):
            FaultRule(kind="eio", count=-1)
        with pytest.raises(ValueError):
            FaultRule(kind="eio", after=-1)
        with pytest.raises(ValueError):
            FaultRule(kind="stall", seconds=-0.1)

    def test_matching_globs(self):
        rule = FaultRule(kind="eio", op="read", tier="pfs*", key="sg3.*")
        assert rule.matches("read", "pfs", "sg3.params")
        assert rule.matches("read", "pfs0", "sg3.exp_avg")
        assert not rule.matches("write", "pfs", "sg3.params")
        assert not rule.matches("read", "nvme", "sg3.params")
        assert not rule.matches("read", "pfs", "sg4.params")
        assert FaultRule(kind="eio").matches("write", "anything", "any.key")

    def test_spec_round_trip(self):
        plan = FaultPlan(
            [
                FaultRule(kind="eio", op="read", tier="nvme", count=2),
                FaultRule(kind="dead", op="write", tier="pfs", count=0, after=8),
                FaultRule(kind="stall", seconds=0.25, key="sg*.params"),
            ]
        )
        parsed = FaultPlan.from_spec(plan.to_spec())
        assert parsed.rules == plan.rules

    def test_from_spec_rejects_malformed(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("eio,count")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("eio,phase=read")


class TestFaultSchedule:
    def test_count_and_after_window(self, store):
        payload = np.arange(8, dtype=np.float32)
        store.save_from("k", payload)
        wrapped = _wrapped(store, FaultRule(kind="eio", op="read", after=1, count=2))
        out = np.empty_like(payload)
        wrapped.load_into("k", out)  # op 0: before the window
        for _ in range(2):  # ops 1, 2: inside
            with pytest.raises(OSError):
                wrapped.load_into("k", out)
        wrapped.load_into("k", out)  # op 3: healed
        np.testing.assert_array_equal(out, payload)
        assert wrapped.plan.injected == {"eio": 2}

    def test_count_zero_never_heals(self, store):
        wrapped = _wrapped(store, FaultRule(kind="dead", op="write", count=0))
        for _ in range(5):
            with pytest.raises(OSError):
                wrapped.save_from("k", np.zeros(4, dtype=np.float32))
        assert wrapped.plan.injected == {"dead": 5}

    def test_first_firing_rule_wins_but_all_counters_advance(self, store):
        plan = FaultPlan(
            [
                FaultRule(kind="eio", op="write", count=1),
                FaultRule(kind="enospc", op="write", after=1, count=1),
            ]
        )
        wrapped = FaultInjectingStore(store, plan)
        with pytest.raises(OSError) as first:
            wrapped.save_from("k", np.zeros(4, dtype=np.float32))
        assert first.value.errno == errno.EIO
        # The second rule's counter advanced during op 0, so it fires now.
        with pytest.raises(OSError) as second:
            wrapped.save_from("k", np.zeros(4, dtype=np.float32))
        assert second.value.errno == errno.ENOSPC

    def test_counters_shared_across_stores(self, tmp_path):
        plan = FaultPlan([FaultRule(kind="eio", op="write", after=1, count=1)])
        stores = {
            "a": FileStore(tmp_path / "a", name="a"),
            "b": FileStore(tmp_path / "b", name="b"),
        }
        wrapped = maybe_wrap(stores, plan=plan)
        wrapped["a"].save_from("k", np.zeros(4, dtype=np.float32))  # op 0
        with pytest.raises(OSError):  # op 1, on the *other* store
            wrapped["b"].save_from("k", np.zeros(4, dtype=np.float32))

    def test_reset_rewinds_the_schedule(self, store):
        wrapped = _wrapped(store, FaultRule(kind="eio", op="write", count=1))
        with pytest.raises(OSError):
            wrapped.save_from("k", np.zeros(4, dtype=np.float32))
        wrapped.save_from("k", np.zeros(4, dtype=np.float32))
        wrapped.plan.reset()
        with pytest.raises(OSError):
            wrapped.save_from("k", np.zeros(4, dtype=np.float32))


class TestInjectionKinds:
    def test_enospc(self, store):
        wrapped = _wrapped(store, FaultRule(kind="enospc", op="write"))
        with pytest.raises(OSError) as excinfo:
            wrapped.save_from("k", np.zeros(4, dtype=np.float32))
        assert excinfo.value.errno == errno.ENOSPC

    def test_short_read_is_the_stores_truncation_error(self, store):
        payload = np.arange(8, dtype=np.float32)
        store.save_from("k", payload)
        wrapped = _wrapped(store, FaultRule(kind="short-read", op="read"))
        with pytest.raises(TruncatedBlobError):
            wrapped.load_into("k", np.empty_like(payload))

    def test_stall_delays_then_succeeds(self, store):
        payload = np.arange(8, dtype=np.float32)
        store.save_from("k", payload)
        wrapped = _wrapped(store, FaultRule(kind="stall", op="read", seconds=0.05))
        out = np.empty_like(payload)
        start = time.perf_counter()
        wrapped.load_into("k", out)
        assert time.perf_counter() - start >= 0.04
        np.testing.assert_array_equal(out, payload)

    def test_torn_write_leaves_truncated_blob_under_final_key(self, store):
        payload = np.arange(64, dtype=np.float32)
        wrapped = _wrapped(store, FaultRule(kind="torn-write", op="write"))
        with pytest.raises(OSError):
            wrapped.save_from("k", payload)
        # The crashed-legacy-writer state: the final key exists but holds a
        # truncated payload; the reader-side validation must reject it.
        assert store.contains("k")
        with pytest.raises(TruncatedBlobError):
            store.load_into("k", np.empty_like(payload))

    def test_torn_write_rule_on_read_degrades_to_eio(self, store):
        payload = np.arange(8, dtype=np.float32)
        store.save_from("k", payload)
        wrapped = _wrapped(store, FaultRule(kind="torn-write", op="any"))
        with pytest.raises(OSError) as excinfo:
            wrapped.read("k")
        assert excinfo.value.errno == errno.EIO


class TestWrapperTransparency:
    def test_control_plane_passes_through(self, store):
        wrapped = _wrapped(store, FaultRule(kind="eio", op="read", after=100))
        payload = np.arange(8, dtype=np.float32)
        wrapped.save_from("k", payload)
        assert wrapped.name == "nvme"
        assert wrapped.root == store.root
        assert wrapped.contains("k")
        dtype, shape = wrapped.meta_of("k")
        assert dtype == np.float32 and shape == (8,)
        wrapped.delete("k")
        assert not store.contains("k")


class TestArming:
    def test_maybe_wrap_is_a_no_op_when_disarmed(self, store):
        stores = maybe_wrap({"nvme": store})
        assert stores["nvme"] is store

    def test_in_process_arming_wraps_and_shares_one_plan(self, tmp_path):
        plan = arm_faults(FaultPlan([FaultRule(kind="eio", op="write", count=1)]))
        try:
            stores = maybe_wrap(
                {
                    "a": FileStore(tmp_path / "a", name="a"),
                    "b": FileStore(tmp_path / "b", name="b"),
                }
            )
            assert all(isinstance(s, FaultInjectingStore) for s in stores.values())
            assert stores["a"].plan is plan and stores["b"].plan is plan
        finally:
            clear_faults()
        assert faultstore.active_plan() is None

    def test_env_arming_yields_fresh_counters_per_wrap(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "eio,op=write,count=1")
        for attempt in range(2):
            stores = maybe_wrap({"a": FileStore(tmp_path / f"a{attempt}", name="a")})
            with pytest.raises(OSError):  # each wrap replays from op 0
                stores["a"].save_from("k", np.zeros(4, dtype=np.float32))
            stores["a"].save_from("k", np.zeros(4, dtype=np.float32))

    def test_in_process_plan_takes_precedence_over_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "enospc,op=write")
        plan = arm_faults(FaultPlan([FaultRule(kind="eio", op="read")]))
        try:
            assert faultstore.active_plan() is plan
        finally:
            clear_faults()
        env_plan = faultstore.active_plan()
        assert env_plan is not None
        assert env_plan.rules[0].kind == "enospc"

    def test_virtual_tier_smoke_under_env_arming(self, tmp_path, monkeypatch):
        """A VirtualTier built under REPRO_IO_FAULT routes through injection."""
        from repro.core.config import IOBackendConfig, MLPOffloadConfig, TierConfig
        from repro.core.virtual_tier import VirtualTier

        monkeypatch.setenv(FAULT_ENV, "eio,op=read,count=1,key=sg0.params")
        (tmp_path / "t0").mkdir()
        config = MLPOffloadConfig(
            tiers=(TierConfig("t0", str(tmp_path / "t0"), read_bw=1e9, write_bw=1e9),),
            subgroup_size=8,
            enable_multipath=False,
            io=IOBackendConfig(retry_attempts=1),  # surface the injected fault, do not absorb it
        )
        with VirtualTier(config) as tier:
            tier.build_placement([0])
            tier.flush_subgroup("sg0", 0, {"params": np.arange(8, dtype=np.float32)})
            with pytest.raises(OSError):
                tier.fetch_subgroup("sg0", 0, ["params"])
            # The schedule heals after one hit; the retry-free refetch works.
            arrays = tier.fetch_subgroup("sg0", 0, ["params"])
            np.testing.assert_array_equal(arrays["params"], np.arange(8, dtype=np.float32))

    def test_env_round_trip_through_os_environ(self, store):
        plan = FaultPlan([FaultRule(kind="dead", op="write", tier="pfs", count=0)])
        os.environ[FAULT_ENV] = plan.to_spec()
        try:
            active = faultstore.active_plan()
        finally:
            del os.environ[FAULT_ENV]
        assert active is not None and active.rules == plan.rules
