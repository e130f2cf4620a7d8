"""Crash-and-restore equivalence for the checkpoint subsystem.

The contract: restarting from any committed checkpoint version reproduces a
bitwise-identical training trajectory, no matter where the previous process
died — after a clean iteration boundary, mid-backward (gradients partially
accumulated or partially flushed), after an un-checkpointed update phase, or
mid-checkpoint-drain (manifest never committed).  Every scenario compares
the resumed run's FP16 working copy and FP32 master state against an
uninterrupted reference with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import CheckpointError, CheckpointReader
from repro.ckpt.store import blob_store_roots
from repro.codec import codec_names
from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 8_000
SUBGROUP = 1_000
ITERATIONS = 4
CRASH_AFTER = 2  # iterations completed (and checkpointed) before the crash


def make_config(base, **overrides) -> MLPOffloadConfig:
    (base / "nvme").mkdir(exist_ok=True)
    (base / "pfs").mkdir(exist_ok=True)
    defaults = dict(
        subgroup_size=SUBGROUP,
        host_cache_bytes=2 * SUBGROUP * 12,  # two subgroups of dirty residue
        stripe=StripeConfig(threshold_bytes=float(SUBGROUP * 2)),  # exercise striped blobs
        checkpoint_dir=str(base / "ckpt"),
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
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)
    views = flat_views(None, layout, 0)
    rng = np.random.default_rng(42)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    grads = [
        rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(ITERATIONS)
    ]
    return layout, views, initial, grads


def feed_iteration(engine, views, grad):
    for index, view in views.items():
        engine.on_backward_gradient(index, grad[view].astype(np.float16))
    engine.on_microbatch_complete()


def run_reference(tmp_path, workload, **overrides):
    """The uninterrupted trajectory (no checkpointing) in its own tier dirs."""
    layout, views, initial, grads = workload
    base = tmp_path / "reference"
    base.mkdir()
    config = make_config(base, checkpoint_dir=None, **overrides)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        for grad in grads:
            feed_iteration(engine, views, grad)
            engine.run_update(fp16)
        master = engine.fetch_master_params()
    return fp16, master


def crash_then_resume(tmp_path, workload, crash, **overrides):
    """Train ``CRASH_AFTER`` checkpointed iterations, run ``crash``, resume.

    ``crash`` receives ``(engine, fp16, views, grads)`` and performs whatever
    partial work the scenario models before the process is abandoned.
    Returns the resumed run's final FP16 and master state.
    """
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base, **overrides)
    engine = MLPOffloadEngine(config, layout, rank=0)
    engine.initialize(initial.copy())
    fp16 = initial.astype(np.float16)
    for grad in grads[:CRASH_AFTER]:
        feed_iteration(engine, views, grad)
        engine.run_update(fp16)
        engine.maybe_checkpoint(fp16)
    engine.checkpoint_wait()  # the version we restore from is committed
    crash(engine, fp16, views, grads)
    engine.close()  # stand-in for process death; tier state stays as-is

    resumed = MLPOffloadEngine(make_config(base, **overrides), layout, rank=0)
    restored = resumed.restore_checkpoint()
    assert restored.iteration == CRASH_AFTER
    fp16_resumed = restored.fp16_params
    for grad in grads[restored.iteration :]:
        feed_iteration(resumed, views, grad)
        resumed.run_update(fp16_resumed)
    master = resumed.fetch_master_params()
    resumed.close()
    return fp16_resumed, master


def assert_equivalent(reference, resumed):
    fp16_ref, master_ref = reference
    fp16_res, master_res = resumed
    assert np.array_equal(fp16_ref, fp16_res), "resumed FP16 params diverged"
    assert np.array_equal(master_ref, master_res), "resumed FP32 master state diverged"


# -- crash scenarios --------------------------------------------------------


def test_crash_at_iteration_boundary(tmp_path, workload):
    """Clean kill right after a committed checkpoint."""
    resumed = crash_then_resume(tmp_path, workload, lambda *a: None)
    assert_equivalent(run_reference(tmp_path, workload), resumed)


def test_crash_mid_backward(tmp_path, workload):
    """Kill after half the next iteration's gradients were accumulated."""

    def crash(engine, fp16, views, grads):
        for index, view in list(views.items())[: len(views) // 2]:
            engine.on_backward_gradient(index, grads[CRASH_AFTER][view].astype(np.float16))

    resumed = crash_then_resume(tmp_path, workload, crash)
    assert_equivalent(run_reference(tmp_path, workload), resumed)


def test_crash_mid_backward_flush(tmp_path, workload):
    """FLUSH_FP32 baseline killed with FP32 gradients partially flushed.

    The crashed process left newer gradient blobs on the tiers than the
    checkpoint knows about; restore must discard them.
    """
    overrides = dict(enable_delayed_grad_conversion=False)

    def crash(engine, fp16, views, grads):
        for index, view in list(views.items())[: len(views) // 2]:
            engine.on_backward_gradient(index, grads[CRASH_AFTER][view].astype(np.float16))

    resumed = crash_then_resume(tmp_path, workload, crash, **overrides)
    assert_equivalent(run_reference(tmp_path, workload, **overrides), resumed)


def test_crash_after_uncheckpointed_update(tmp_path, workload):
    """Kill after a full update phase that was *not* checkpointed.

    With ``checkpoint_interval=2`` iteration 3 commits no version, so the
    restart falls back to the iteration-2 checkpoint and replays.
    """

    def crash(engine, fp16, views, grads):
        feed_iteration(engine, views, grads[CRASH_AFTER])
        engine.run_update(fp16)
        assert engine.maybe_checkpoint(fp16) is None  # off the interval

    resumed = crash_then_resume(tmp_path, workload, crash, checkpoint_interval=2)
    assert_equivalent(run_reference(tmp_path, workload), resumed)


def test_crash_mid_checkpoint_drain(tmp_path, workload):
    """Kill while a newer checkpoint was draining: only a ``*.tmp`` manifest
    and orphan blobs exist for it.  Restart must ignore both and use the
    last *committed* version; the next commit's GC sweeps the orphans."""

    def crash(engine, fp16, views, grads):
        ckpt_dir = engine.config.checkpoint_dir
        from pathlib import Path

        # A partially written manifest (never renamed into place) ...
        (Path(ckpt_dir) / "ckpt-rank0-000099.json.tmp").write_text('{"version": 99')
        # ... and an orphan staged blob no manifest references.
        orphan = np.arange(16, dtype=np.float32)
        engine.checkpointer.stores["nvme"].save_from("casdeadbeef-64", orphan)

    resumed = crash_then_resume(tmp_path, workload, crash)
    assert_equivalent(run_reference(tmp_path, workload), resumed)

    base = tmp_path / "crashed"
    config = make_config(base)
    reader = CheckpointReader(config, worker="rank0")
    # The fabricated tmp manifest is not a committed version.
    assert 99 not in reader.versions()
    # The resumed run's later checkpoints... were not taken (no maybe_checkpoint
    # in crash_then_resume's resume loop), so sweep explicitly via a writer GC:
    layout, _, _, _ = workload
    engine = MLPOffloadEngine(config, layout, rank=0)
    restored = engine.restore_checkpoint()
    fp16 = restored.fp16_params
    engine.save_checkpoint(fp16, wait=True)  # commit → GC runs
    engine.close()
    assert not reader.stores["nvme"].contains("casdeadbeef-64"), "orphan blob survived GC"


def test_corrupt_blob_fails_integrity_check(tmp_path, workload):
    """A flipped byte in a referenced blob must fail the restore, loudly."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)
        engine.save_checkpoint(fp16, wait=True)

    reader = CheckpointReader(config, worker="rank0")
    manifest = reader.load_manifest()
    seg = manifest.fp16_params.segments[0]
    blob_path = reader.stores[seg.tier].path_of(seg.key)
    raw = bytearray(blob_path.read_bytes())
    raw[-1] ^= 0xFF
    blob_path.write_bytes(bytes(raw))

    fresh = MLPOffloadEngine(make_config(base), layout, rank=0)
    try:
        with pytest.raises(CheckpointError, match="integrity"):
            fresh.restore_checkpoint()
    finally:
        fresh.close()


# -- codec matrix -------------------------------------------------------------


@pytest.mark.parametrize("codec", codec_names())
def test_restart_matrix_by_codec(tmp_path, workload, codec):
    """Bitwise resume must hold for every registered codec of the staged
    residue (the gated lz4/zstd too, where their packages are installed)
    under the streaming (hard-link + lazy residue) restore."""
    overrides = dict(checkpoint_codec=codec)

    def crash(engine, fp16, views, grads):
        # Partial next iteration, so restore also has stale tier state to beat.
        for index, view in list(views.items())[: len(views) // 2]:
            engine.on_backward_gradient(index, grads[CRASH_AFTER][view].astype(np.float16))

    resumed = crash_then_resume(tmp_path, workload, crash, **overrides)
    assert_equivalent(run_reference(tmp_path, workload), resumed)


def test_streaming_restore_links_clean_and_defers_dirty(tmp_path, workload):
    """The streaming restore must actually stream: clean subgroups come back
    as hard links (zero payload bytes read), dirty residue stays pending
    until its first fetch — and the resumed trajectory is still bitwise."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base)
    engine = MLPOffloadEngine(config, layout, rank=0)
    engine.initialize(initial.copy())
    fp16 = initial.astype(np.float16)
    for grad in grads[:CRASH_AFTER]:
        feed_iteration(engine, views, grad)
        engine.run_update(fp16)
        engine.maybe_checkpoint(fp16)
    engine.checkpoint_wait()
    engine.close()

    resumed = MLPOffloadEngine(make_config(base), layout, rank=0)
    restored = resumed.restore_checkpoint()
    assert restored.mode == "streaming"
    assert restored.linked_subgroups > 0, "no clean subgroup was hard-linked back"
    assert restored.lazy_subgroups > 0, "no dirty residue was deferred"
    assert len(resumed.ckpt.pending_subgroups()) == restored.lazy_subgroups
    # fetch_master_params reads pending subgroups from the checkpoint stores
    # without consuming the pending restore.
    _master_before = resumed.fetch_master_params()  # side effect only: read, don't consume
    assert len(resumed.ckpt.pending_subgroups()) == restored.lazy_subgroups
    # The first update phase drains every pending restore on first fetch.
    fp16_resumed = restored.fp16_params
    for grad in grads[restored.iteration :]:
        feed_iteration(resumed, views, grad)
        resumed.run_update(fp16_resumed)
    assert not resumed.ckpt.pending_subgroups(), "lazy restores survived a full update phase"
    master = resumed.fetch_master_params()
    resumed.close()

    fp16_ref, master_ref = run_reference(tmp_path, workload)
    assert np.array_equal(fp16_ref, fp16_resumed)
    assert np.array_equal(master_ref, master)


def test_checkpoint_while_lazy_restores_pending_carries_refs(tmp_path, workload):
    """A snapshot taken before pending subgroups were ever fetched must carry
    the previous version's refs (keeping the blobs GC-alive) and itself
    restore bitwise."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base, checkpoint_retention=1)
    engine = MLPOffloadEngine(config, layout, rank=0)
    engine.initialize(initial.copy())
    fp16 = initial.astype(np.float16)
    for grad in grads[:CRASH_AFTER]:
        feed_iteration(engine, views, grad)
        engine.run_update(fp16)
        engine.maybe_checkpoint(fp16)
    engine.checkpoint_wait()
    engine.close()

    resumed = MLPOffloadEngine(make_config(base, checkpoint_retention=1), layout, rank=0)
    restored = resumed.restore_checkpoint()
    assert restored.lazy_subgroups > 0
    master_expected = resumed.fetch_master_params()
    # Snapshot immediately: pending subgroups are carried, not read.  With
    # retention=1 the old version is GC'd right after — the carried refs must
    # keep the shared blobs alive.
    version = resumed.save_checkpoint(restored.fp16_params, wait=True)
    resumed.close()

    final = MLPOffloadEngine(make_config(base, checkpoint_retention=1), layout, rank=0)
    restored2 = final.restore_checkpoint(version)
    assert np.array_equal(restored2.fp16_params, restored.fp16_params)
    assert np.array_equal(final.fetch_master_params(), master_expected)
    final.close()


def test_deep_audit_catches_corrupt_linked_blob(tmp_path, workload):
    """A hard-link restore never reads linked payloads (that is the point), so
    a corrupt linked blob passes the restore itself; the deep audit
    (`CheckpointReader.verify_blobs`) must catch it."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)
        engine.save_checkpoint(fp16, wait=True)

    reader = CheckpointReader(config, worker="rank0")
    manifest = reader.load_manifest()
    linked = next(
        ref
        for fields in manifest.subgroups.values()
        for ref in fields.values()
        if ref.source == "linked"
    )
    seg = linked.segments[0]
    blob_path = reader.stores[seg.tier].path_of(seg.key)
    raw = bytearray(blob_path.read_bytes())
    raw[-1] ^= 0xFF
    blob_path.write_bytes(bytes(raw))

    with pytest.raises(CheckpointError, match="integrity"):
        reader.verify_blobs(manifest)


def test_failed_restore_leaves_nothing_pending_for_a_retry(tmp_path, workload):
    """A restore that fails after the FP16 check (here: a missing linked blob)
    must not leave the newer version's lazy refs behind — retrying an older
    version on the same engine restores exactly that version."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base, checkpoint_retention=4)
    masters = {}
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        for grad in grads[:3]:
            feed_iteration(engine, views, grad)
            engine.run_update(fp16)
            version = engine.save_checkpoint(fp16, wait=True)
            masters[version] = engine.fetch_master_params()
    assert sorted(masters) == [1, 2, 3]

    # Damage v2: a linked blob of a subgroup restored after lazy ones.
    reader = CheckpointReader(config, worker="rank0")
    v2 = reader.load_manifest(2)
    lazy = [i for i in sorted(v2.subgroups) if v2.subgroups[i]["params"].source == "staged"]
    linked = [i for i in sorted(v2.subgroups) if v2.subgroups[i]["params"].source == "linked"]
    assert lazy and linked and lazy[0] < linked[-1]
    seg = v2.subgroups[linked[-1]]["params"].segments[0]
    reader.stores[seg.tier].path_of(seg.key).unlink()

    resumed = MLPOffloadEngine(make_config(base, checkpoint_retention=4), layout, rank=0)
    try:
        with pytest.raises(CheckpointError, match="missing blob"):
            resumed.restore_checkpoint(2)
        restored = resumed.restore_checkpoint(1)
        assert restored.version == 1
        assert np.array_equal(resumed.fetch_master_params(), masters[1])
        assert len(resumed.ckpt.pending_subgroups()) == restored.lazy_subgroups
    finally:
        resumed.close()


def test_streaming_restore_rejects_swapped_linked_blob_geometry(tmp_path, workload):
    """verify=True on a streaming restore header-checks every linked blob: a
    blob swapped for one with different geometry fails loudly even though
    hard links never read the payload."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)
        engine.save_checkpoint(fp16, wait=True)

    reader = CheckpointReader(config, worker="rank0")
    manifest = reader.load_manifest()
    linked = next(
        ref
        for fields in manifest.subgroups.values()
        for ref in fields.values()
        if ref.source == "linked"
    )
    seg = linked.segments[0]
    # Swap the blob for a wrong-geometry one (fewer elements).
    store = reader.stores[seg.tier]
    store.save_from(seg.key, np.zeros(seg.count // 2, dtype=np.float32))

    fresh = MLPOffloadEngine(make_config(base), layout, rank=0)
    try:
        with pytest.raises(CheckpointError, match="integrity"):
            fresh.restore_checkpoint()
    finally:
        fresh.close()


def test_streaming_restore_follows_blob_tier_over_recorded_placement(tmp_path, workload):
    """Whole-blob linked refs adopt onto the tier the blob actually lives on;
    if the manifest's recorded placement disagrees (a single-extent striped
    layout on a stripe path, or a redirected flush), the placement map must
    follow the blobs — otherwise the first fetch after restore fails."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    # Large stripe threshold: every field is a whole blob (single segment).
    config = make_config(base, stripe=StripeConfig(threshold_bytes=1e9))
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)
        engine.save_checkpoint(fp16, wait=True)

    # Rewrite the manifest with every placement flipped to the other tier,
    # so the recorded placement disagrees with where the blobs live.
    from repro.ckpt import ManifestStore

    store = ManifestStore(config.checkpoint_dir, "rank0")
    manifest = store.load(store.committed_versions()[-1])
    flipped = {
        index: ("pfs" if tier == "nvme" else "nvme")
        for index, tier in manifest.placement.items()
    }
    from dataclasses import replace

    store.commit(replace(manifest, placement=flipped))

    resumed = MLPOffloadEngine(
        make_config(base, stripe=StripeConfig(threshold_bytes=1e9)), layout, rank=0
    )
    restored = resumed.restore_checkpoint()
    assert restored.linked_subgroups > 0
    fp16_resumed = restored.fp16_params
    for grad in grads[restored.iteration :]:
        feed_iteration(resumed, views, grad)
        resumed.run_update(fp16_resumed)  # fetches must find the adopted blobs
    master = resumed.fetch_master_params()
    resumed.close()
    fp16_ref, master_ref = run_reference(tmp_path, workload)
    assert np.array_equal(fp16_ref, fp16_resumed)
    assert np.array_equal(master_ref, master)


def test_verify_blobs_passes_on_intact_checkpoint(tmp_path, workload):
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)
        engine.save_checkpoint(fp16, wait=True)
    reader = CheckpointReader(config, worker="rank0")
    assert reader.verify_blobs(reader.load_manifest()) > 0


# -- retention, reuse, trainer-level resume ---------------------------------


def test_retention_keeps_window_and_sweeps_blobs(tmp_path, workload):
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base, checkpoint_retention=2)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        for grad in grads[:3]:
            feed_iteration(engine, views, grad)
            engine.run_update(fp16)
            engine.save_checkpoint(fp16, wait=True)

    reader = CheckpointReader(config, worker="rank0")
    assert reader.versions() == [2, 3]
    # Every blob on disk is referenced by a surviving manifest (no orphans,
    # no dangling references).
    referenced = set()
    for version in reader.versions():
        manifest = reader.load_manifest(version)
        reader.check_blobs(manifest)
        referenced |= {key for _, key in manifest.blob_keys()}
    on_disk = {key for store in reader.stores.values() for key in store.keys()}
    assert on_disk <= referenced


# -- what the initial flush hashes --------------------------------------------


def test_initialize_records_no_state_digests(tmp_path, workload):
    """The first update rewrites every subgroup before any interval snapshot,
    so no checkpoint can link the initial blobs: ``initialize`` hashes none."""
    layout, views, initial, grads = workload
    with MLPOffloadEngine(make_config(tmp_path), layout, rank=0) as engine:
        engine.initialize(initial.copy())
        keys = [(store, key) for store in engine.tier.stores.values() for key in store.keys()]
        assert keys, "initialize flushed no blob"
        assert all(store.checksum_of(key) is None for store, key in keys)


def test_save_before_any_update_restores_bitwise(tmp_path, workload):
    """A manual checkpoint of the initial state (its linked blobs pay one
    maintenance read each for their digest) restores and trains on bitwise."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    with MLPOffloadEngine(make_config(base), layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        engine.save_checkpoint(fp16, wait=True)
        assert engine.checkpointer.linked_blobs > 0

    resumed = MLPOffloadEngine(make_config(base), layout, rank=0)
    try:
        restored = resumed.restore_checkpoint()
        assert restored.iteration == 0
        assert np.array_equal(restored.fp16_params, fp16)
        assert np.array_equal(resumed.fetch_master_params(), initial)
        fp16_resumed = restored.fp16_params
        for grad in grads:
            feed_iteration(resumed, views, grad)
            resumed.run_update(fp16_resumed)
        state = (fp16_resumed, resumed.fetch_master_params())
    finally:
        resumed.close()
    assert_equivalent(run_reference(tmp_path, workload), state)


def test_interval_update_records_digests_so_the_snapshot_links_without_reads(
    tmp_path, workload, monkeypatch
):
    """An update whose boundary snapshots still hashes its writes, so the
    snapshot hard-links every tier blob with no fallback digest read."""
    layout, views, initial, grads = workload
    with MLPOffloadEngine(make_config(tmp_path), layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)

        def no_fallback_read(key):
            raise AssertionError(f"snapshot re-read {key!r} for its digest")

        for store in engine.tier.stores.values():
            monkeypatch.setattr(store, "compute_checksum", no_fallback_read)
        assert engine.maybe_checkpoint(fp16, wait=True) == 1
        assert engine.checkpointer.linked_blobs > 0


def test_back_to_back_checkpoints_reuse_content(tmp_path, workload):
    """A second snapshot with no training in between moves zero payload."""
    layout, views, initial, grads = workload
    base = tmp_path / "crashed"
    base.mkdir()
    config = make_config(base, checkpoint_retention=4)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)
        engine.save_checkpoint(fp16, wait=True)
        writer = engine.checkpointer
        linked_before = writer.linked_blobs
        staged_before = writer.staged_blobs
        engine.save_checkpoint(fp16, wait=True)
        assert writer.linked_blobs == linked_before, "unchanged tier blobs were re-linked"
        assert writer.staged_blobs == staged_before, "unchanged staged blobs were re-written"
        assert writer.reused_blobs > 0


def test_checkpointing_leaves_training_bitwise_and_every_version_restores(
    tmp_path, workload
):
    """Checkpointing every step — committed synchronously or drained behind
    the next iteration — never perturbs training, and every committed
    version restores bitwise to the state it was taken from."""
    layout, views, initial, grads = workload

    def train(label, *, wait):
        base = tmp_path / label
        base.mkdir()
        config = make_config(base, checkpoint_retention=ITERATIONS)
        states = {}
        with MLPOffloadEngine(config, layout, rank=0) as engine:
            engine.initialize(initial.copy())
            fp16 = initial.astype(np.float16)
            for grad in grads:
                feed_iteration(engine, views, grad)
                engine.run_update(fp16)
                version = engine.save_checkpoint(fp16, wait=wait)
                if wait:  # between-step reads only when no drain is in flight
                    states[version] = (fp16.copy(), engine.fetch_master_params())
            engine.checkpoint_wait()
            writer = engine.checkpointer
            assert writer.linked_blobs > 0, "no tier-resident blob was hard-linked"
            assert writer.staged_bytes > 0, "no dirty residue was staged"
            final = (fp16.copy(), engine.fetch_master_params())
        return config, final, states

    reference = run_reference(tmp_path, workload)
    _, sync_final, states = train("sync", wait=True)
    async_config, async_final, _ = train("async", wait=False)
    assert_equivalent(reference, sync_final)
    assert_equivalent(reference, async_final)
    assert sorted(states) == list(range(1, ITERATIONS + 1))
    # Both runs share one trajectory, so the async run's versions must hold
    # exactly the states the synchronous run recorded.
    for version, expected in sorted(states.items()):
        fresh = MLPOffloadEngine(async_config, layout, rank=0)
        try:
            restored = fresh.restore_checkpoint(version)
            assert_equivalent(expected, (restored.fp16_params, fresh.fetch_master_params()))
        finally:
            fresh.close()


def test_codecs_change_only_the_stored_bytes(tmp_path, workload):
    """Every codec stages the same raw payload: ``raw`` stores it verbatim,
    ``null`` adds only framing, ``shuffle-deflate`` compresses it — and
    training is bitwise the same under all three.

    The workload has the structure real mixed-precision checkpoints have:
    FP32 masters seeded from FP16 values (zeroed low-mantissa bytes) and
    gradients on a fixed sparse support (most Adam moments stay zero)."""
    layout, views, _, _ = workload
    rng = np.random.default_rng(2028)
    initial = (rng.standard_normal(TOTAL_PARAMS) * 0.02).astype(np.float16).astype(np.float32)
    active = rng.random(TOTAL_PARAMS) < 0.02
    grads = []
    for _ in range(ITERATIONS):
        grad = np.zeros(TOTAL_PARAMS, dtype=np.float32)
        grad[active] = rng.standard_normal(int(active.sum())) * 0.1
        grads.append(grad)
    accounting, finals = {}, {}
    for codec in ("raw", "null", "shuffle-deflate"):
        base = tmp_path / codec
        base.mkdir()
        config = make_config(base, checkpoint_codec=codec)
        with MLPOffloadEngine(config, layout, rank=0) as engine:
            engine.initialize(initial.copy())
            fp16 = initial.astype(np.float16)
            for grad in grads:
                feed_iteration(engine, views, grad)
                engine.run_update(fp16)
                engine.save_checkpoint(fp16)
            engine.checkpoint_wait()
            writer = engine.checkpointer
            accounting[codec] = (
                writer.staged_blobs, writer.staged_bytes, writer.staged_stored_bytes
            )
            finals[codec] = (fp16.copy(), engine.fetch_master_params())
    blobs, staged, raw_stored = accounting["raw"]
    assert staged > 0 and raw_stored == staged
    for codec in ("null", "shuffle-deflate"):
        assert accounting[codec][:2] == (blobs, staged)
        assert_equivalent(finals["raw"], finals[codec])
    # Framing only: one header per blob plus one record per chunk, and every
    # staged blob here fits in a single chunk.
    null_overhead = accounting["null"][2] - staged
    assert 0 < null_overhead <= blobs * (128 + 64)
    assert accounting["shuffle-deflate"][2] < staged / 1.5


def test_checkpoint_copies_tier_blobs_when_hard_links_fail(tmp_path, workload, monkeypatch):
    """Where the checkpoint directory cannot hard-link tier blobs (another
    filesystem, say), ``FileStore.adopt`` copies them instead: the
    checkpoint owns its bytes, later training cannot reach them, and the
    committed version restores bitwise."""
    import errno
    import os

    def no_link(source, target, *args, **kwargs):
        raise OSError(errno.EXDEV, "cross-device link", str(target))

    monkeypatch.setattr(os, "link", no_link)
    layout, views, initial, grads = workload
    base = tmp_path / "copied"
    base.mkdir()
    config = make_config(base, checkpoint_retention=ITERATIONS)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        feed_iteration(engine, views, grads[0])
        engine.run_update(fp16)
        version = engine.save_checkpoint(fp16, wait=True)
        expected = (fp16.copy(), engine.fetch_master_params())
        assert engine.checkpointer.linked_blobs > 0, "no tier-resident blob was adopted"
        blobs = [blob for root in blob_store_roots(config).values() for blob in root.glob("*.bin")]
        assert blobs and all(blob.stat().st_nlink == 1 for blob in blobs), (
            "a checkpoint blob shares its inode with a tier blob"
        )
        for grad in grads[1:]:  # overwrite every tier blob the checkpoint copied
            feed_iteration(engine, views, grad)
            engine.run_update(fp16)
    fresh = MLPOffloadEngine(config, layout, rank=0)
    try:
        restored = fresh.restore_checkpoint(version)
        assert_equivalent(expected, (restored.fp16_params, fresh.fetch_master_params()))
    finally:
        fresh.close()


def test_trainer_resume_matches_uninterrupted_run(tmp_path, tiny_model):
    """End-to-end trainer: losses and state after resume match a straight run."""
    from repro.train.trainer import FunctionalTrainer, TrainerConfig

    def build(base, checkpoint_dir):
        config = make_config(
            base, subgroup_size=2_000, host_cache_bytes=2 * 2_000 * 12,
            stripe=StripeConfig(threshold_bytes=4_000.0), checkpoint_dir=checkpoint_dir,
        )
        from repro.train.transformer import TransformerLM

        model = TransformerLM(tiny_model)
        layout = build_shard_layout(model.num_params, num_ranks=1, subgroup_size=2_000)
        engine = MLPOffloadEngine(config, layout, rank=0)
        return config, engine

    ref_base = tmp_path / "ref"
    ref_base.mkdir()
    _, ref_engine = build(ref_base, None)
    ref_trainer = FunctionalTrainer(
        tiny_model, ref_engine, trainer_config=TrainerConfig(micro_batch_size=2)
    )
    ref_losses = [r.mean_loss for r in ref_trainer.train(5)]
    ref_master = ref_trainer.master_params()
    ref_fp16 = ref_trainer.working_params().copy()
    ref_engine.close()

    crash_base = tmp_path / "crash"
    crash_base.mkdir()
    _, engine = build(crash_base, str(crash_base / "ckpt"))
    trainer = FunctionalTrainer(
        tiny_model, engine, trainer_config=TrainerConfig(micro_batch_size=2)
    )
    reports = trainer.train(3)
    assert reports[-1].checkpoint_version is not None
    engine.checkpoint_wait()
    engine.close()  # crash

    _, engine2 = build(crash_base, str(crash_base / "ckpt"))
    trainer2 = FunctionalTrainer(
        tiny_model, engine2, trainer_config=TrainerConfig(micro_batch_size=2), resume=True
    )
    resumed_losses = [r.mean_loss for r in trainer2.train(2)]
    assert np.array_equal(ref_master, trainer2.master_params())
    assert np.array_equal(ref_fp16, trainer2.working_params())
    assert resumed_losses == ref_losses[3:]
    engine2.close()
