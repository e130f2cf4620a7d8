"""Unit tests for checksum tracking, blob adoption and the checkpoint writer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import CheckpointError, CheckpointReader, cas_key
from repro.ckpt.writer import SubgroupSource
from repro.tiers.file_store import FileStore, payload_digest


# -- FileStore content-addressing primitives --------------------------------


def test_track_checksums_records_payload_digest(tmp_path, rng):
    store = FileStore(tmp_path, name="t", track_checksums=True)
    array = rng.standard_normal(100).astype(np.float32)
    store.save_from("k", array)
    assert store.checksum_of("k") == payload_digest(memoryview(array))
    store.delete("k")
    assert store.checksum_of("k") is None


def test_checksum_not_tracked_by_default_and_computed_on_demand(tmp_path, rng):
    store = FileStore(tmp_path, name="t")
    array = rng.standard_normal(100).astype(np.float32)
    store.save_from("k", array)
    assert store.checksum_of("k") is None
    assert store.compute_checksum("k") == payload_digest(memoryview(array))
    # ... and the fallback caches its result.
    assert store.checksum_of("k") == payload_digest(memoryview(array))


def test_adopt_hard_links_without_charging_io(tmp_path, rng):
    source = FileStore(tmp_path / "src", name="src", track_checksums=True)
    sink = FileStore(tmp_path / "dst", name="dst")
    array = rng.standard_normal(64).astype(np.float32)
    source.save_from("orig", array)
    checksum = source.checksum_of("orig")
    sink.adopt("adopted", source.path_of("orig"), checksum=checksum)
    assert np.array_equal(sink.read("adopted"), array)
    assert sink.checksum_of("adopted") == checksum
    assert sink.stats().bytes_written == 0, "a hard link moved no payload bytes"
    # The link pins the inode: overwriting the source key must not change
    # the adopted blob (the property checkpoint references rely on).
    source.save_from("orig", rng.standard_normal(64).astype(np.float32))
    assert np.array_equal(sink.read("adopted"), array)


def test_adopt_missing_source_raises(tmp_path):
    sink = FileStore(tmp_path / "dst", name="dst")
    with pytest.raises(Exception, match="does not exist"):
        sink.adopt("k", tmp_path / "nope.bin")


# -- CheckpointWriter ---------------------------------------------------------


@pytest.fixture
def ckpt_env(tmp_path, request):
    """A small VirtualTier + CheckpointWriter over two real tier dirs
    (an indirect parameter names the codec; default: the config default)."""
    from repro.ckpt.writer import CheckpointWriter
    from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
    from repro.core.virtual_tier import VirtualTier
    from repro.tiers.array_pool import ArrayPool

    (tmp_path / "nvme").mkdir()
    (tmp_path / "pfs").mkdir()
    config = MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(tmp_path / "nvme"), read_bw=2.0, write_bw=2.0),
            TierConfig("pfs", str(tmp_path / "pfs"), read_bw=1.0, write_bw=1.0),
        ),
        subgroup_size=100,
        checkpoint_dir=str(tmp_path / "ckpt"),
        stripe=StripeConfig(threshold_bytes=256.0),
        checkpoint_codec=getattr(request, "param", MLPOffloadConfig.checkpoint_codec),
    )
    tier = VirtualTier(config, worker="rank0")
    tier.build_placement([0, 1])
    pool = ArrayPool()
    writer = CheckpointWriter(config, worker="rank0", pool=pool, tier=tier)
    yield config, tier, pool, writer
    writer.close()
    tier.close()


def layout_echo(num_subgroups=2):
    return {
        "total_params": 100 * num_subgroups,
        "num_ranks": 1,
        "subgroup_size": 100,
        "rank": 0,
        "num_subgroups": num_subgroups,
    }


@pytest.mark.parametrize("ckpt_env", ["raw", "shuffle-deflate"], indirect=True)
def test_snapshot_links_and_stages_then_restores(ckpt_env, rng):
    config, tier, pool, writer = ckpt_env
    linked_state = {f: rng.standard_normal(100).astype(np.float32) for f in ("params", "exp_avg", "exp_avg_sq")}
    tier.flush_subgroup("sg000", 0, linked_state, wait=True)
    staged_state = {}
    for f in ("params", "exp_avg", "exp_avg_sq"):
        buf = pool.acquire(100, np.float32)
        buf[:] = rng.standard_normal(100).astype(np.float32)
        staged_state[f] = buf
    staged_copy = {f: a.copy() for f, a in staged_state.items()}
    fp16 = pool.acquire(200, np.float16)
    fp16[:] = rng.standard_normal(200).astype(np.float16)
    fp16_copy = fp16.copy()

    refs = {
        f: tier.export_field_blobs("sg000", 0, f, dtype=np.float32)
        for f in ("params", "exp_avg", "exp_avg_sq")
    }
    pending = writer.snapshot(
        iteration=3,
        layout=layout_echo(),
        steps={0: 3, 1: 3},
        placement={0: "nvme", 1: "pfs"},
        subgroups=[
            SubgroupSource(index=0, linked=refs),
            SubgroupSource(index=1, staged=staged_state),
        ],
        fp16_params=fp16,
        user_data={"k": "v"},
    )
    assert pending.wait() == 1
    assert writer.linked_blobs > 0 and writer.staged_blobs > 0
    # Pooled buffers came back after the drain.
    assert pool.outstanding_count == 0

    reader = CheckpointReader(config, worker="rank0")
    manifest = reader.load_manifest()
    assert manifest.iteration == 3 and manifest.user_data == {"k": "v"}
    for f, expected in linked_state.items():
        assert manifest.subgroups[0][f].source == "linked"
        out = np.empty(100, dtype=np.float32)
        assert np.array_equal(reader.read_blob(manifest.subgroups[0][f], out), expected)
    for f, expected in staged_copy.items():
        assert manifest.subgroups[1][f].source == "staged"
        out = np.empty(100, dtype=np.float32)
        assert np.array_equal(reader.read_blob(manifest.subgroups[1][f], out), expected)
    out16 = np.empty(200, dtype=np.float16)
    assert np.array_equal(reader.read_blob(manifest.fp16_params, out16), fp16_copy)
    # Large staged fields striped across both checkpoint stores.
    fp16_tiers = {seg.tier for seg in manifest.fp16_params.segments}
    assert fp16_tiers == {"nvme", "pfs"}


def test_snapshot_source_validation():
    with pytest.raises(CheckpointError):
        SubgroupSource(index=0)
    with pytest.raises(CheckpointError):
        SubgroupSource(index=0, staged={}, linked={})


def test_staged_striping_honours_stripe_paths_below_tier_count(tmp_path, rng):
    """`stripe_paths` smaller than the tier count must trim stores *and*
    weights consistently (regression: the drain crashed with a
    weights/num_paths mismatch when a third tier was configured)."""
    from repro.ckpt.writer import CheckpointWriter
    from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
    from repro.core.virtual_tier import VirtualTier
    from repro.tiers.array_pool import ArrayPool

    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    config = MLPOffloadConfig(
        tiers=tuple(
            TierConfig(name, str(tmp_path / name), read_bw=2.0, write_bw=2.0)
            for name in ("a", "b", "c")
        ),
        subgroup_size=100,
        checkpoint_dir=str(tmp_path / "ckpt"),
        stripe=StripeConfig(threshold_bytes=64.0, paths=2),
    )
    tier = VirtualTier(config, worker="rank0")
    tier.build_placement([0])
    pool = ArrayPool()
    writer = CheckpointWriter(config, worker="rank0", pool=pool, tier=tier)
    try:
        staged = {}
        for f in ("params", "exp_avg", "exp_avg_sq"):
            buf = pool.acquire(100, np.float32)
            buf[:] = rng.standard_normal(100).astype(np.float32)
            staged[f] = buf
        expected = {f: a.copy() for f, a in staged.items()}
        fp16 = pool.acquire(100, np.float16)
        fp16[:] = rng.standard_normal(100).astype(np.float16)
        pending = writer.snapshot(
            iteration=1,
            layout={"total_params": 100, "num_ranks": 1, "subgroup_size": 100, "rank": 0, "num_subgroups": 1},
            steps={0: 1},
            placement={0: "a"},
            subgroups=[SubgroupSource(index=0, staged=staged)],
            fp16_params=fp16,
        )
        assert pending.wait() == 1
        reader = CheckpointReader(config, worker="rank0")
        manifest = reader.load_manifest()
        used_tiers = {
            seg.tier for ref in manifest.subgroups[0].values() for seg in ref.segments
        }
        assert used_tiers <= {"a", "b"}, "stripes escaped the stripe_paths window"
        for f, want in expected.items():
            out = np.empty(100, dtype=np.float32)
            assert np.array_equal(reader.read_blob(manifest.subgroups[0][f], out), want)
    finally:
        writer.close()
        tier.close()


def test_identical_content_is_stored_once(ckpt_env):
    config, tier, pool, writer = ckpt_env

    def zero_fields():
        fields = {}
        for f in ("params", "exp_avg", "exp_avg_sq"):
            buf = pool.acquire(100, np.float32)
            buf.fill(0.0)
            fields[f] = buf
        return fields

    zeros = zero_fields()
    zeros2 = zero_fields()
    fp16 = pool.acquire(200, np.float16)
    fp16.fill(0.0)
    pending = writer.snapshot(
        iteration=1,
        layout=layout_echo(),
        steps={0: 1, 1: 1},
        placement={0: "nvme", 1: "pfs"},
        subgroups=[
            SubgroupSource(index=0, staged=zeros),
            SubgroupSource(index=1, staged=zeros2),
        ],
        fp16_params=fp16,
        user_data={},
    )
    pending.wait()
    reader = CheckpointReader(config, worker="rank0")
    manifest = reader.load_manifest()
    # All six all-zero FP32 fields share content-addressed blobs.
    keys = {
        (seg.tier, seg.key)
        for fields in manifest.subgroups.values()
        for ref in fields.values()
        for seg in ref.segments
    }
    blobs_on_disk = sum(
        1 for store in reader.stores.values() for key in store.keys() if key.startswith("cas")
    )
    assert len(keys) < 6 * 2  # deduplicated below one-blob-per-field-per-stripe
    assert blobs_on_disk == len(keys | {(s.tier, s.key) for s in manifest.fp16_params.segments})


# -- retention GC vs concurrently-landing manifests ---------------------------


def snapshot_staged(writer, pool, *, seed: float) -> int:
    """Drive one staged-only snapshot through ``writer``; return its version."""
    staged = {}
    for f in ("params", "exp_avg", "exp_avg_sq"):
        buf = pool.acquire(100, np.float32)
        buf.fill(seed)
        staged[f] = buf
    fp16 = pool.acquire(200, np.float16)
    fp16.fill(seed)
    return writer.snapshot(
        iteration=int(seed),
        layout=layout_echo(),
        steps={0: 1, 1: 1},
        placement={0: "nvme", 1: "pfs"},
        subgroups=[SubgroupSource(index=0, staged=staged)],
        fp16_params=fp16,
    ).wait()


def test_retention_gc_spares_a_concurrently_landing_prepared_manifest(ckpt_env, rng):
    """Regression: the GC used several directory listings, and a manifest
    landing between the workers-present check and the reference scan — a
    ``.prepared.json`` phase-one manifest in particular, which the old
    committed-only glob never matched — had its blobs swept out from under
    its commit.  The single-listing scan counts prepared manifests both as
    worker presence and as blob references."""
    from repro.ckpt.manifest import (
        BlobRef,
        BlobSegment,
        CheckpointManifest,
        ManifestStore,
        cas_key,
    )
    from repro.tiers.file_store import payload_digest as digest_of

    config, tier, pool, writer = ckpt_env
    snapshot_staged(writer, pool, seed=1.0)

    # Another rank's drain lands its prepared manifest (blobs first, then the
    # phase-one commit) while this writer is between snapshots.
    payload = rng.standard_normal(64).astype(np.float32)
    digest = digest_of(memoryview(payload))
    key = cas_key(digest, payload.nbytes)
    writer.stores["nvme"].save_from(key, payload)
    other = ManifestStore(config.checkpoint_dir, "rank9")
    other.commit(
        CheckpointManifest(
            version=1,
            worker="rank9",
            iteration=1,
            layout=layout_echo(),
            steps={},
            placement={},
            subgroups={},
            fp16_params=BlobRef(
                dtype="float32",
                count=64,
                source="staged",
                segments=(
                    BlobSegment(
                        tier="nvme", key=key, start=0, count=64,
                        nbytes=payload.nbytes, digest=digest,
                    ),
                ),
            ),
        ),
        prepared=True,
    )
    assert "rank9" in other.workers_present(), (
        "a prepared-only worker must count as present (the old glob missed it)"
    )

    # The next snapshot's retention GC must neither sweep the landing
    # manifest's blob nor touch the manifest itself.
    snapshot_staged(writer, pool, seed=2.0)
    assert writer.stores["nvme"].contains(key), (
        "retention GC swept a blob referenced only by a concurrently-landing "
        "prepared manifest"
    )
    assert other.prepared_path_for(1).exists()


@pytest.mark.parametrize("ckpt_env", ["shuffle-deflate"], indirect=True)
def test_stored_size_cache_forgets_blobs_retention_gc_deleted(ckpt_env):
    """Regression: under an encoding codec every staged blob's stored size
    was cached for the writer's lifetime, so the cache grew by every new
    version's blobs while retention GC kept the stores at a fixed window.
    It may only describe blobs that still exist."""
    config, tier, pool, writer = ckpt_env
    for version in range(1, 13):
        snapshot_staged(writer, pool, seed=float(version))
    live = {
        (name, key)
        for name, store in writer.stores.items()
        for key in store.keys()
        if key.startswith("cas")
    }
    assert writer._stored_sizes, "an encoding codec caches stored sizes"
    assert set(writer._stored_sizes) <= live


def test_retention_gc_skips_tmp_files_and_sweeps_own_stale_tmps(ckpt_env, rng):
    config, tier, pool, writer = ckpt_env
    stale_own = writer.manifests.directory / "ckpt-rank0-000099.json.tmp"
    foreign = writer.manifests.directory / "ckpt-rank7-000001.json.tmp"
    stale_own.write_text("{")
    foreign.write_text("{")
    version = snapshot_staged(writer, pool, seed=3.0)
    assert version == 1
    # The single-listing scan classified neither tmp as a manifest (no parse
    # error aborted the sweep), our own stale tmp was swept, the foreign
    # writer's was left alone.
    assert not stale_own.exists()
    assert foreign.exists()


def test_manifest_deleted_between_scan_and_read_is_skipped(tmp_path):
    """``referenced_blobs`` tolerates losing a file race: a manifest deleted
    after the listing contributes nothing instead of raising."""
    from repro.ckpt.manifest import referenced_blobs

    assert referenced_blobs([tmp_path / "ckpt-rank0-000001.json"]) == set()
