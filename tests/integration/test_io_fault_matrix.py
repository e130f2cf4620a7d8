"""Chaos matrix: end-to-end training under injected tier-I/O faults.

The contract under test (ISSUE 9): with the fault-tolerance machinery on,

* transient I/O errors are absorbed by the engine's retry policy and the
  run's results are **bitwise identical** to a fault-free run;
* a stripe path that dies permanently mid-run is quarantined, its traffic
  transparently fails over onto the survivors (still bitwise identical),
  and it carries **zero new engine bytes** until a recovery probe succeeds;
* a path that heals is re-admitted by the periodic probe and takes traffic
  again;
* ``ENOSPC`` while a checkpoint drains skips that version (counter
  incremented) instead of failing training;
* an unreadable striped field surfaces as a typed
  :class:`DegradedReadError` — with no leaked pool buffers and a tier
  engine that still drains (never a wedge, never a silent wrong answer);
* a dirty cache eviction written behind the update loop behaves like any
  other lazy flush: transient errors stay invisible, and a terminal one
  fails the phase that evicted it, with no stranded buffer.
"""

import numpy as np
import pytest

from repro.core.config import IOBackendConfig, MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.tiers.faultstore import FaultPlan, FaultRule, arm_faults, clear_faults
from repro.tiers.striped_store import DegradedReadError
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750
FIELD_BYTES = SUBGROUP * 4


@pytest.fixture(autouse=True)
def _disarmed():
    clear_faults()
    yield
    clear_faults()


@pytest.fixture
def layout():
    return build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)


@pytest.fixture
def training_inputs(rng):
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    grads = [rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(4)]
    return initial, grads


def _make_config(root, **overrides):
    local = root / "nvme"
    remote = root / "pfs"
    local.mkdir(parents=True, exist_ok=True)
    remote.mkdir(parents=True, exist_ok=True)
    defaults = dict(
        subgroup_size=SUBGROUP,
        host_cache_bytes=0.0,
        adam=AdamConfig(lr=1e-2),
        stripe=StripeConfig(enabled=True, threshold_bytes=float(FIELD_BYTES // 2)),
        adaptive_bandwidth=False,
        io=IOBackendConfig(retry_attempts=3, retry_backoff_seconds=0.001),
        path_quarantine_failures=2,
        path_probe_interval=2,
    )
    defaults.update(overrides)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(local), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(remote), read_bw=3.6e9, write_bw=3.6e9),
        ),
        **defaults,
    )


def _drive(config, layout, initial, grads, *, plan=None):
    """Run a short training loop, optionally with ``plan`` armed throughout."""
    if plan is not None:
        arm_faults(plan)
    try:
        views = flat_views(None, layout, 0)
        reports = []
        with MLPOffloadEngine(config, layout, rank=0) as engine:
            engine.initialize(initial.copy())
            fp16 = initial.astype(np.float16)
            for grad in grads:
                for index, view in views.items():
                    engine.on_backward_gradient(index, grad[view].astype(np.float16))
                engine.on_microbatch_complete()
                reports.append(engine.run_update(fp16))
            master = engine.fetch_master_params()
            steps = dict(engine._steps)
            health = engine.tier.health.summary()
        return fp16, master, steps, reports, health
    finally:
        clear_faults()


class TestTransientFaultsAreInvisible:
    def test_bitwise_identical_through_transient_eio(self, tmp_path, layout, training_inputs):
        initial, grads = training_inputs
        baseline = _drive(_make_config(tmp_path / "clean"), layout, initial, grads)
        # Each burst is scoped to one subgroup's key stream with
        # count < attempts, so no single request can ever exhaust its retry
        # budget regardless of how concurrent requests interleave.
        plan = FaultPlan(
            [
                FaultRule(kind="eio", op="write", key="*sg00002*", count=2),
                FaultRule(kind="eio", op="read", key="*sg00004*", count=2),
                FaultRule(kind="eio", op="write", key="*sg00005*", count=1),
                FaultRule(kind="short-read", op="read", key="*sg00001*", count=1),
            ]
        )
        faulted = _drive(_make_config(tmp_path / "eio"), layout, initial, grads, plan=plan)
        assert plan.injected_total >= 5
        np.testing.assert_array_equal(baseline[0], faulted[0])  # fp16 params
        np.testing.assert_array_equal(baseline[1], faulted[1])  # fp32 master
        assert baseline[2] == faulted[2]  # step counters
        # The faults were real (counted) but terminal failures zero: no
        # quarantine, no failover, just absorbed retries.
        retries = sum(r.stats.io_retries for r in faulted[3])
        assert retries >= 1
        assert all(h["healthy"] for h in faulted[4]["paths"].values())
        assert faulted[4]["failovers"] == 0


class TestDeadPathFailover:
    def test_bitwise_identical_with_one_dead_stripe_path(self, tmp_path, layout, training_inputs):
        initial, grads = training_inputs
        baseline = _drive(_make_config(tmp_path / "clean"), layout, initial, grads)
        # pfs dies permanently at its 7th write — mid-initialize, after some
        # subgroups are already striped across both paths.
        plan = FaultPlan([FaultRule(kind="dead", op="write", tier="pfs", after=6, count=0)])
        faulted = _drive(_make_config(tmp_path / "dead"), layout, initial, grads, plan=plan)
        np.testing.assert_array_equal(baseline[0], faulted[0])
        np.testing.assert_array_equal(baseline[1], faulted[1])
        assert baseline[2] == faulted[2]
        health = faulted[4]
        assert health["paths"]["pfs"]["healthy"] is False
        assert health["paths"]["nvme"]["healthy"] is True
        assert health["failovers"] >= 1

    def test_quarantined_path_takes_no_new_bytes(self, tmp_path, layout, rng):
        initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
        grads = [rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(2)]
        views = flat_views(None, layout, 0)
        arm_faults(FaultPlan([FaultRule(kind="dead", op="write", tier="pfs", count=0)]))
        try:
            config = _make_config(tmp_path / "frozen")
            with MLPOffloadEngine(config, layout, rank=0) as engine:
                engine.initialize(initial.copy())
                fp16 = initial.astype(np.float16)
                assert not engine.tier.health.is_healthy("pfs")
                frozen = engine.tier.engine.tier_stats("pfs").bytes_written
                for grad in grads:
                    for index, view in views.items():
                        engine.on_backward_gradient(index, grad[view].astype(np.float16))
                    engine.on_microbatch_complete()
                    engine.run_update(fp16)
                # Whole phases of flush traffic later, the quarantined path's
                # engine write counter has not moved a byte.
                assert engine.tier.engine.tier_stats("pfs").bytes_written == frozen
                assert engine.tier.engine.tier_stats("nvme").bytes_written > 0
        finally:
            clear_faults()

    def test_path_dead_from_the_first_byte_moves_no_bytes(
        self, tmp_path, layout, training_inputs
    ):
        """A stripe path that is dead for reads and writes from the start is
        quarantined on its first failures; the run completes single-path on
        the survivor, bitwise-identical, without moving one byte on the dead
        path."""
        initial, grads = training_inputs
        baseline = _drive(_make_config(tmp_path / "clean"), layout, initial, grads)
        plan = FaultPlan([FaultRule(kind="dead", tier="pfs", count=0)])
        views = flat_views(None, layout, 0)
        arm_faults(plan)
        try:
            with MLPOffloadEngine(_make_config(tmp_path / "dead"), layout, rank=0) as engine:
                engine.initialize(initial.copy())
                fp16 = initial.astype(np.float16)
                for grad in grads:
                    for index, view in views.items():
                        engine.on_backward_gradient(index, grad[view].astype(np.float16))
                    engine.on_microbatch_complete()
                    engine.run_update(fp16)
                master = engine.fetch_master_params()
                health = engine.tier.health.summary()
                dead = engine.tier.engine.tier_stats("pfs")
                survivor = engine.tier.engine.tier_stats("nvme")
        finally:
            clear_faults()
        np.testing.assert_array_equal(baseline[0], fp16)
        np.testing.assert_array_equal(baseline[1], master)
        assert plan.injected_total > 0
        assert health["paths"]["pfs"]["healthy"] is False
        assert health["failovers"] >= 1
        assert dead.bytes_written == 0 and dead.bytes_read == 0
        assert survivor.bytes_written > 0 and survivor.bytes_read > 0

    def test_healed_path_is_probed_back_into_service(self, tmp_path, layout, training_inputs):
        initial, grads = training_inputs
        # The path faults for a fixed budget of writes, then heals.  With a
        # single attempt per request every fault is a terminal failure: the
        # first one quarantines pfs, the rest are burnt by in-flight writes
        # and failed probes, then a probe succeeds and re-admits the path.
        plan = FaultPlan([FaultRule(kind="dead", op="write", tier="pfs", after=6, count=4)])
        config = _make_config(tmp_path / "heal", io=IOBackendConfig(retry_attempts=1))
        views = flat_views(None, layout, 0)
        arm_faults(plan)
        try:
            with MLPOffloadEngine(config, layout, rank=0) as engine:
                engine.initialize(initial.copy())
                fp16 = initial.astype(np.float16)
                assert not engine.tier.health.is_healthy("pfs")
                for _ in range(12):  # probes run every 2nd update phase
                    for index, view in views.items():
                        engine.on_backward_gradient(index, grads[0][view].astype(np.float16))
                    engine.on_microbatch_complete()
                    engine.run_update(fp16)
                    if engine.tier.health.is_healthy("pfs"):
                        break
                assert engine.tier.health.is_healthy("pfs")
                assert engine.tier.health.recovery_events >= 1
                readmitted = engine.tier.engine.tier_stats("pfs").bytes_written
                # Re-admitted: the next flushes stripe onto pfs again.
                for index, view in views.items():
                    engine.on_backward_gradient(index, grads[1][view].astype(np.float16))
                engine.on_microbatch_complete()
                engine.run_update(fp16)
                assert engine.tier.engine.tier_stats("pfs").bytes_written > readmitted
        finally:
            clear_faults()


class TestCheckpointEnospcSkips:
    @pytest.mark.parametrize("codec", ["raw", "shuffle-deflate"])
    def test_enospc_during_drain_skips_version_not_training(
        self, tmp_path, layout, training_inputs, codec
    ):
        initial, grads = training_inputs
        # The first checkpoint blob write hits device-full (the drain skips
        # the version on its first error); the budget is then spent and the
        # next drain succeeds.
        arm_faults(FaultPlan([FaultRule(kind="enospc", op="write", key="cas*", count=1)]))
        try:
            config = _make_config(
                tmp_path / "ckpt",
                checkpoint_dir=str(tmp_path / "ckpt" / "snaps"),
                checkpoint_interval=1,
                checkpoint_codec=codec,
            )
            views = flat_views(None, layout, 0)
            with MLPOffloadEngine(config, layout, rank=0) as engine:
                engine.initialize(initial.copy())
                fp16 = initial.astype(np.float16)
                for index, view in views.items():
                    engine.on_backward_gradient(index, grads[0][view].astype(np.float16))
                engine.on_microbatch_complete()
                engine.run_update(fp16)
                v1 = engine.save_checkpoint(fp16, wait=True)  # must NOT raise
                assert engine.checkpointer.skipped_versions == 1
                assert not engine.checkpointer.manifests.path_for(v1).exists()
                # Training continues; the next boundary's snapshot commits.
                for index, view in views.items():
                    engine.on_backward_gradient(index, grads[1][view].astype(np.float16))
                engine.on_microbatch_complete()
                engine.run_update(fp16)
                v2 = engine.save_checkpoint(fp16, wait=True)
                assert v2 > v1
                assert engine.checkpointer.skipped_versions == 1
                assert engine.checkpointer.manifests.path_for(v2).exists()
            # The surviving snapshot restores on a fresh engine.
            with MLPOffloadEngine(config, layout, rank=0) as fresh:
                restored = fresh.restore_checkpoint()
                assert restored.version == v2
                np.testing.assert_array_equal(restored.fp16_params, fp16)
        finally:
            clear_faults()


class TestDegradedReadSurfacesTyped:
    def test_unreadable_stripe_raises_degraded_read_error_without_leaks(
        self, tmp_path, layout, training_inputs
    ):
        initial, grads = training_inputs
        # pfs accepts writes but every read fails: striped state lands on
        # both paths, then no fan-out read can complete and no whole-blob
        # fallback copy exists anywhere.
        arm_faults(FaultPlan([FaultRule(kind="dead", op="read", tier="pfs", count=0)]))
        try:
            config = _make_config(tmp_path / "unread")
            views = flat_views(None, layout, 0)
            with MLPOffloadEngine(config, layout, rank=0) as engine:
                engine.initialize(initial.copy())
                fp16 = initial.astype(np.float16)
                for index, view in views.items():
                    engine.on_backward_gradient(index, grads[0][view].astype(np.float16))
                engine.on_microbatch_complete()
                with pytest.raises(DegradedReadError) as excinfo:
                    engine.run_update(fp16)
                assert "pfs" in excinfo.value.tiers
                assert excinfo.value.key  # names the field it could not serve
                # The failed phase left nothing behind: no stranded pooled
                # buffer, no wedged I/O engine.
                assert engine.pool.outstanding_count == 0
                engine.tier.engine.drain(timeout=30.0)
                assert not engine.tier.health.is_healthy("pfs")
        finally:
            clear_faults()


def _cached_config(root, **overrides):
    """Three of eight subgroups fit the cache; sequential order, so phase 1
    evicts subgroup 0 (dirty) to make room for subgroup 3."""
    return _make_config(
        root, host_cache_bytes=3 * SUBGROUP * 12, enable_cache_reorder=False, **overrides
    )


def _train_cached(config, layout, initial, grads, rules):
    """Like :func:`_drive`, but ``rules`` are armed only after initialize,
    so they hit update-phase writes and nothing earlier."""
    plan = arm_faults(FaultPlan())
    try:
        views = flat_views(None, layout, 0)
        with MLPOffloadEngine(config, layout, rank=0) as engine:
            engine.initialize(initial.copy())
            for rule in rules:
                plan.add(rule)
            fp16 = initial.astype(np.float16)
            evictions = []
            for grad in grads:
                for index, view in views.items():
                    engine.on_backward_gradient(index, grad[view].astype(np.float16))
                engine.on_microbatch_complete()
                engine.run_update(fp16)
                evictions.append(engine.cache.stats.dirty_evictions)
            master = engine.fetch_master_params()
            steps = dict(engine._steps)
        return fp16, master, steps, evictions, plan
    finally:
        clear_faults()


class TestEvictionWriteBehindFaults:
    def test_transient_eio_on_eviction_writes_is_bitwise_transparent(
        self, tmp_path, layout, training_inputs
    ):
        initial, grads = training_inputs
        baseline = _train_cached(_cached_config(tmp_path / "clean"), layout, initial, grads, ())
        rules = [
            FaultRule(kind="eio", op="write", key="rank0-sg00000.*", count=2),
            FaultRule(kind="eio", op="write", key="rank0-sg00004.*", count=2),
        ]
        faulted = _train_cached(_cached_config(tmp_path / "eio"), layout, initial, grads, rules)
        assert faulted[4].injected == {"eio": 4}
        assert baseline[3] == faulted[3] and faulted[3][0] > 0  # dirty evictions
        np.testing.assert_array_equal(baseline[0], faulted[0])
        np.testing.assert_array_equal(baseline[1], faulted[1])
        assert baseline[2] == faulted[2]

    def test_failed_eviction_write_fails_its_own_phase_without_leaks(
        self, tmp_path, layout, training_inputs
    ):
        initial, grads = training_inputs
        # Subgroup 0's writes die on every path, so a write that exhausts its
        # retries is terminal: its failover rewrite has no survivor to land on.
        config = _cached_config(tmp_path / "fail")
        plan = arm_faults(FaultPlan())
        try:
            views = flat_views(None, layout, 0)
            with MLPOffloadEngine(config, layout, rank=0) as engine:
                engine.initialize(initial.copy())
                plan.add(
                    FaultRule(kind="dead", op="write", tier="*", key="rank0-sg00000.*", count=0)
                )
                fp16 = initial.astype(np.float16)
                for index, view in views.items():
                    engine.on_backward_gradient(index, grads[0][view].astype(np.float16))
                engine.on_microbatch_complete()
                with pytest.raises(OSError, match="injected dead path"):
                    engine.run_update(fp16)
                assert plan.injected["dead"] >= config.io.retry_attempts
                assert engine.cache.stats.dirty_evictions >= 1
                assert 0 not in engine.cache
                # Only cache-resident arrays are still leased: the failed
                # write-behind, prefetches and lazy flushes all came back.
                resident = sum(len(entry.arrays) for entry in engine.cache)
                assert engine.pool.outstanding_count == resident
                engine.tier.engine.drain(timeout=30.0)
        finally:
            clear_faults()
