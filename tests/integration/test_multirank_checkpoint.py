"""Crash matrix for multi-rank checkpoint coordination.

The job-level contract: with two in-process data-parallel workers sharing
one checkpoint directory, killing any subset of ranks at any point of the
commit protocol and restarting resumes *every* rank bitwise-identically
from the newest **global** version — never a mixed cut.  Three torn-commit
shapes are exercised:

* a rank dies **before publishing** its prepared manifest — the incomplete
  version can never be promoted and restart rolls back;
* every rank publishes, but the promoter dies **before the global commit** —
  restart *rolls the fully-prepared version forward* instead of discarding it;
* the promoter dies **between promote and GC**, leaving a stale election
  lock behind.

Each scenario's resumed two-rank trajectory is compared ``np.array_equal``
against an uninterrupted reference run.
"""

from __future__ import annotations

import concurrent.futures
import json
import time

import numpy as np
import pytest

from repro.aio.locks import TierLockManager
from repro.ckpt import CheckpointCoordinator, CheckpointError
from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 8_000
SUBGROUP = 1_000
RANKS = 2
ITERATIONS = 4
CRASH_AFTER = 2  # iterations completed (and globally committed) before the crash
#: A pid that cannot exist on Linux (beyond the default pid_max of 2**22).
DEAD_PID = 2**22 + 54321


def make_config(base, **overrides) -> MLPOffloadConfig:
    (base / "nvme").mkdir(exist_ok=True)
    (base / "pfs").mkdir(exist_ok=True)
    defaults = dict(
        subgroup_size=SUBGROUP,
        host_cache_bytes=2 * SUBGROUP * 12,
        stripe=StripeConfig(threshold_bytes=float(SUBGROUP * 2)),
        checkpoint_dir=str(base / "ckpt"),
        checkpoint_coordination=True,
        adam=AdamConfig(lr=1e-3),
    )
    defaults.update(overrides)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(base / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(base / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        **defaults,
    )


@pytest.fixture
def workload():
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=RANKS, subgroup_size=SUBGROUP)
    views = [flat_views(None, layout, rank) for rank in range(RANKS)]
    rng = np.random.default_rng(7)
    initial = [
        rng.standard_normal(layout.rank_params(rank)).astype(np.float32)
        for rank in range(RANKS)
    ]
    grads = [
        [
            rng.standard_normal(layout.rank_params(rank)).astype(np.float32) * 0.1
            for rank in range(RANKS)
        ]
        for _ in range(ITERATIONS)
    ]
    return layout, views, initial, grads


def build_engines(config, layout, *, coordinator=None):
    manager = TierLockManager()
    return [
        MLPOffloadEngine(
            config, layout, rank=rank, lock_manager=manager,
            checkpoint_coordinator=coordinator,
        )
        for rank in range(RANKS)
    ]


def feed_iteration(engines, views, grads_of_iter, fp16s):
    for rank, engine in enumerate(engines):
        for index, view in views[rank].items():
            engine.on_backward_gradient(
                index, grads_of_iter[rank][view].astype(np.float16)
            )
        engine.on_microbatch_complete()
        engine.run_update(fp16s[rank])


def final_state(engines, fp16s):
    return [
        (fp16s[rank].copy(), engine.fetch_master_params())
        for rank, engine in enumerate(engines)
    ]


def run_reference(tmp_path, workload):
    """The uninterrupted two-rank trajectory (no checkpointing)."""
    layout, views, initial, grads = workload
    base = tmp_path / "reference"
    base.mkdir()
    config = make_config(base, checkpoint_dir=None, checkpoint_coordination=False)
    engines = build_engines(config, layout)
    try:
        fp16s = [arr.astype(np.float16) for arr in initial]
        for rank, engine in enumerate(engines):
            engine.initialize(initial[rank].copy())
        for grads_of_iter in grads:
            feed_iteration(engines, views, grads_of_iter, fp16s)
        return final_state(engines, fp16s)
    finally:
        for engine in engines:
            engine.close()


def crash_then_resume(tmp_path, workload, crash, *, expect_version=CRASH_AFTER, **overrides):
    """Train ``CRASH_AFTER`` globally-committed iterations, ``crash``, resume.

    ``crash`` receives ``(engines, coordinator, fp16s, views, grads)`` and
    models whatever partial work the scenario performs before the job dies.
    Every rank of the resumed job must restart from the same global version
    ``expect_version`` (``CRASH_AFTER``, or one more when the scenario left
    a fully-prepared version for restart to roll forward); the remaining
    iterations are replayed and the final two-rank state returned.
    """
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base, **overrides)
    coordinator = CheckpointCoordinator(
        config, workers=config.checkpoint_workers(layout.num_ranks)
    )
    engines = build_engines(config, layout, coordinator=coordinator)
    fp16s = [arr.astype(np.float16) for arr in initial]
    for rank, engine in enumerate(engines):
        engine.initialize(initial[rank].copy())
    for grads_of_iter in grads[:CRASH_AFTER]:
        feed_iteration(engines, views, grads_of_iter, fp16s)
        for rank, engine in enumerate(engines):
            engine.save_checkpoint(fp16s[rank])
    for engine in engines:
        engine.checkpoint_wait()
    assert coordinator.global_versions()[-1] == CRASH_AFTER
    crash(engines, coordinator, fp16s, views, grads)
    for engine in engines:
        engine.close()  # stand-in for process death; directory state stays

    resumed_coord = CheckpointCoordinator(
        make_config(base, **overrides),
        workers=config.checkpoint_workers(layout.num_ranks),
    )
    resumed = build_engines(make_config(base, **overrides), layout, coordinator=resumed_coord)
    fp16s_resumed = []
    for rank, engine in enumerate(resumed):
        restored = engine.restore_checkpoint()
        # Never a mixed cut: every rank resolves the same global version.
        assert restored.version == expect_version
        assert restored.global_version == expect_version
        assert restored.iteration == expect_version
        fp16s_resumed.append(restored.fp16_params)
    for grads_of_iter in grads[expect_version:]:
        feed_iteration(resumed, views, grads_of_iter, fp16s_resumed)
    state = final_state(resumed, fp16s_resumed)
    for engine in resumed:
        engine.close()
    return state


def assert_equivalent(reference, resumed):
    for rank, ((fp16_ref, master_ref), (fp16_res, master_res)) in enumerate(
        zip(reference, resumed)
    ):
        assert np.array_equal(fp16_ref, fp16_res), f"rank {rank} FP16 params diverged"
        assert np.array_equal(master_ref, master_res), f"rank {rank} master state diverged"


def test_rank_dies_before_publishing_prepared(tmp_path, workload):
    """One more iteration runs everywhere, but only rank0's drain publishes:
    the incomplete version must never become a global cut."""

    def crash(engines, coordinator, fp16s, views, grads):
        feed_iteration(engines, views, grads[CRASH_AFTER], fp16s)
        engines[0].save_checkpoint(fp16s[0], wait=True)  # rank1 died mid-drain
        assert coordinator.global_versions()[-1] == CRASH_AFTER, (
            "a version without every rank's manifest must not be promoted"
        )

    resumed = crash_then_resume(tmp_path, workload, crash)
    assert_equivalent(run_reference(tmp_path, workload), resumed)


def test_every_rank_prepares_but_global_commit_never_lands(tmp_path, workload):
    """Both ranks publish prepared manifests but the promoter dies first:
    restart *rolls the fully-prepared version forward* — every rank's work
    landed, so discarding it would throw away a complete iteration."""

    def crash(engines, coordinator, fp16s, views, grads):
        coordinator.try_promote = lambda: None  # the elected promoter dies
        feed_iteration(engines, views, grads[CRASH_AFTER], fp16s)
        for rank, engine in enumerate(engines):
            engine.save_checkpoint(fp16s[rank], wait=True)
        snapshot_dir = sorted(p.name for p in coordinator.directory.iterdir())
        assert any(name.endswith(".prepared.json") for name in snapshot_dir)
        assert coordinator.global_versions()[-1] == CRASH_AFTER

    resumed = crash_then_resume(
        tmp_path, workload, crash, expect_version=CRASH_AFTER + 1
    )
    assert_equivalent(run_reference(tmp_path, workload), resumed)


def test_coordinator_dies_between_promote_and_gc(tmp_path, workload):
    """GLOBAL-<v> lands but the promoter dies before GC and lock release:
    restart must resolve the *new* global version and break the stale lock."""

    def crash(engines, coordinator, fp16s, views, grads):
        coordinator._collect_garbage = lambda: None  # dies right after promote
        for rank, engine in enumerate(engines):
            engine.save_checkpoint(fp16s[rank], wait=True)
        assert coordinator.global_versions()[-1] == CRASH_AFTER + 1
        # The dead promoter's election lock is still on disk.
        coordinator.lock.path.write_text(
            json.dumps({"pid": DEAD_PID, "created_unix": time.time()})
        )

    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base)
    coordinator = CheckpointCoordinator(
        config, workers=config.checkpoint_workers(layout.num_ranks)
    )
    engines = build_engines(config, layout, coordinator=coordinator)
    fp16s = [arr.astype(np.float16) for arr in initial]
    for rank, engine in enumerate(engines):
        engine.initialize(initial[rank].copy())
    for grads_of_iter in grads[: CRASH_AFTER + 1]:
        feed_iteration(engines, views, grads_of_iter, fp16s)
        if grads_of_iter is not grads[CRASH_AFTER]:
            for rank, engine in enumerate(engines):
                engine.save_checkpoint(fp16s[rank])
    for engine in engines:
        engine.checkpoint_wait()
    crash(engines, coordinator, fp16s, views, grads)
    expected_boundary = final_state(engines, fp16s)
    for engine in engines:
        engine.close()

    resumed_coord = CheckpointCoordinator(
        make_config(base), workers=config.checkpoint_workers(layout.num_ranks)
    )
    resumed = build_engines(make_config(base), layout, coordinator=resumed_coord)
    fp16s_resumed = []
    for rank, engine in enumerate(resumed):
        restored = engine.restore_checkpoint()
        assert restored.global_version == CRASH_AFTER + 1, (
            "a fully-promoted version must be restartable even if GC never ran"
        )
        fp16s_resumed.append(restored.fp16_params)
    assert not resumed_coord.lock.path.exists(), "stale election lock not broken"
    assert_equivalent(expected_boundary, final_state(resumed, fp16s_resumed))
    # ... and training continues to the reference endpoint.
    for grads_of_iter in grads[CRASH_AFTER + 1 :]:
        feed_iteration(resumed, views, grads_of_iter, fp16s_resumed)
    state = final_state(resumed, fp16s_resumed)
    for engine in resumed:
        engine.close()
    assert_equivalent(run_reference(tmp_path, workload), state)


@pytest.mark.parametrize("codec", ["raw", "shuffle-deflate"])
def test_concurrent_coordinated_ranks_train_bitwise_and_restart_from_one_cut(
    tmp_path, workload, codec
):
    """Ranks stepping concurrently, each checkpointing every step through
    the global commit, train exactly like the uncheckpointed reference; a
    fresh job then restarts every rank from the newest global version."""
    layout, views, initial, grads = workload
    base = tmp_path / "concurrent"
    base.mkdir()
    config = make_config(base, checkpoint_retention=ITERATIONS, checkpoint_codec=codec)
    coordinator = CheckpointCoordinator(
        config, workers=config.checkpoint_workers(layout.num_ranks)
    )
    engines = build_engines(config, layout, coordinator=coordinator)
    fp16s = [arr.astype(np.float16) for arr in initial]
    for rank, engine in enumerate(engines):
        engine.initialize(initial[rank].copy())

    def rank_step(rank, grads_of_iter):
        engine = engines[rank]
        for index, view in views[rank].items():
            engine.on_backward_gradient(index, grads_of_iter[rank][view].astype(np.float16))
        engine.on_microbatch_complete()
        engine.run_update(fp16s[rank])
        engine.save_checkpoint(fp16s[rank])

    with concurrent.futures.ThreadPoolExecutor(max_workers=RANKS) as executor:
        for grads_of_iter in grads:
            for future in [
                executor.submit(rank_step, rank, grads_of_iter) for rank in range(RANKS)
            ]:
                future.result()
    for engine in engines:
        engine.checkpoint_wait()
    state = final_state(engines, fp16s)
    for engine in engines:
        engine.close()
    assert_equivalent(run_reference(tmp_path, workload), state)
    assert coordinator.global_versions() == list(range(1, ITERATIONS + 1))

    fresh = build_engines(
        make_config(base, checkpoint_retention=ITERATIONS, checkpoint_codec=codec), layout,
        coordinator=CheckpointCoordinator(
            config, workers=config.checkpoint_workers(layout.num_ranks)
        ),
    )
    try:
        restored = [engine.restore_checkpoint() for engine in fresh]
        assert {r.global_version for r in restored} == {ITERATIONS}
        assert_equivalent(
            state,
            [
                (r.fp16_params, engine.fetch_master_params())
                for r, engine in zip(restored, fresh)
            ],
        )
    finally:
        for engine in fresh:
            engine.close()


def test_restore_of_an_explicit_older_global_version(tmp_path, workload):
    """Requesting a retained non-newest global version must work — and must
    not discard the newer global commit."""
    layout, views, initial, grads = workload
    base = tmp_path / "older"
    base.mkdir()
    config = make_config(base, checkpoint_retention=ITERATIONS)
    coordinator = CheckpointCoordinator(
        config, workers=config.checkpoint_workers(layout.num_ranks)
    )
    engines = build_engines(config, layout, coordinator=coordinator)
    fp16s = [arr.astype(np.float16) for arr in initial]
    for rank, engine in enumerate(engines):
        engine.initialize(initial[rank].copy())
    states = {}
    for index, grads_of_iter in enumerate(grads[:2]):
        feed_iteration(engines, views, grads_of_iter, fp16s)
        for rank, engine in enumerate(engines):
            engine.save_checkpoint(fp16s[rank])
        for engine in engines:
            engine.checkpoint_wait()
        states[index + 1] = [
            (fp16s[rank].copy(), engine.fetch_master_params())
            for rank, engine in enumerate(engines)
        ]
    assert coordinator.global_versions() == [1, 2]
    for engine in engines:
        engine.close()

    fresh = build_engines(
        make_config(base, checkpoint_retention=ITERATIONS), layout,
        coordinator=CheckpointCoordinator(
            config, workers=config.checkpoint_workers(layout.num_ranks)
        ),
    )
    try:
        for rank, engine in enumerate(fresh):
            restored = engine.restore_checkpoint(1)
            assert restored.global_version == 1
            fp16_expected, master_expected = states[1][rank]
            assert np.array_equal(restored.fp16_params, fp16_expected)
            assert np.array_equal(engine.fetch_master_params(), master_expected)
        # The newer global commit survives an older-version restore.
        assert fresh[0].ckpt_coordinator.global_versions() == [1, 2]
    finally:
        for engine in fresh:
            engine.close()


def test_restore_without_any_global_version_raises(tmp_path, workload):
    layout, _views, _initial, _grads = workload
    base = tmp_path / "empty"
    base.mkdir()
    config = make_config(base)
    engines = build_engines(config, layout)
    try:
        with pytest.raises(CheckpointError, match="no globally committed"):
            engines[0].restore_checkpoint()
    finally:
        for engine in engines:
            engine.close()


def test_trainer_resume_resolves_the_global_version(tmp_path, tiny_model):
    """`FunctionalTrainer(resume=True)` under coordination restarts from the
    newest *global* cut and surfaces it on ``last_restored``."""
    from repro.train.trainer import FunctionalTrainer, TrainerConfig

    from repro.train.transformer import TransformerLM

    num_params = TransformerLM(tiny_model).num_params

    def build(base, checkpoint_dir):
        (base / "nvme").mkdir(exist_ok=True)
        (base / "pfs").mkdir(exist_ok=True)
        config = MLPOffloadConfig(
            tiers=(
                TierConfig("nvme", str(base / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
                TierConfig("pfs", str(base / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
            ),
            subgroup_size=2_000,
            host_cache_bytes=2 * 2_000 * 12,
            checkpoint_dir=checkpoint_dir,
            checkpoint_coordination=True,
            adam=AdamConfig(lr=1e-3),
        )
        layout = build_shard_layout(num_params, num_ranks=1, subgroup_size=2_000)
        return MLPOffloadEngine(config, layout, rank=0)

    base = tmp_path / "coord-trainer"
    base.mkdir()
    engine = build(base, str(base / "ckpt"))
    trainer = FunctionalTrainer(
        tiny_model, engine, trainer_config=TrainerConfig(seed=3)
    )
    reports = trainer.train(2)
    committed = [r.checkpoint_version for r in reports if r.checkpoint_version]
    engine.checkpoint_wait()
    assert engine.ckpt_coordinator is not None
    assert engine.ckpt_coordinator.global_versions()[-1] == committed[-1]
    engine.close()

    resumed_engine = build(base, str(base / "ckpt"))
    resumed = FunctionalTrainer(
        tiny_model, resumed_engine, trainer_config=TrainerConfig(seed=3), resume=True
    )
    assert resumed.last_restored is not None
    assert resumed.last_restored.global_version == committed[-1]
    resumed_engine.close()
