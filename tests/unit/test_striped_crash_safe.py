"""Crash-safe striped flush: generation keys, commit-after-barrier, recovery.

The contract: a striped key always reads as either the complete previous
value or the complete new value — a crash anywhere
between the first stripe write and the manifest commit must leave the old
generation fully readable, and later commits sweep the orphans the crash
left behind.  Also covers the chunked streaming reads
(`FileStore.load_into_chunks`) that restore-time digest verification uses,
and the hard-link adoption path (`StripedStore.adopt_striped`).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.tiers.file_store import FileStore, StoreError, payload_digest
from repro.tiers.striped_store import MANIFEST_SUFFIX, StripedStore


@pytest.fixture
def backends(tmp_path):
    (tmp_path / "nvme").mkdir()
    (tmp_path / "pfs").mkdir()
    return [
        FileStore(tmp_path / "nvme", name="nvme"),
        FileStore(tmp_path / "pfs", name="pfs"),
    ]


@pytest.fixture
def striped(backends):
    return StripedStore(backends, threshold_bytes=256)


def reopen(backends, **kwargs):
    """A fresh StripedStore over the same directories (process restart)."""
    return StripedStore(
        [FileStore(b.root, name=b.name) for b in backends],
        threshold_bytes=256,
        **kwargs,
    )


def stripe_blobs(backends):
    """Every stripe blob on disk, as ``(backend name, blob key)``."""
    return {
        (b.name, k)
        for b in backends
        for k in FileStore(b.root, name=b.name).keys()
        if ".stripe" in k and not k.endswith(MANIFEST_SUFFIX)
    }


def live_stripes(store, key):
    """The ``(backend name, blob key)`` of ``key``'s committed stripes."""
    return {(store.backends[ext.path].name, stripe) for ext, stripe in store.stripe_keys(key)}


def land(store, parts):
    """Write planned stripe parts without committing (a flush that crashes)."""
    for part in parts:
        store._backend_by_name(part.tier).save_from(part.key, part.array)


class TestCrashSafeCommit:
    def test_round_trip_and_generation_advance(self, striped, backends, rng):
        first = rng.standard_normal(1000).astype(np.float32)
        second = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", first)
        np.testing.assert_array_equal(striped.read("k"), first)
        previous = live_stripes(striped, "k")
        for value in (second, first):
            striped.save_from("k", value)
            np.testing.assert_array_equal(striped.read("k"), value)
            current = live_stripes(striped, "k")
            assert current.isdisjoint(previous), "a flush overwrote the committed generation"
            # The previous generation's stripe blobs were swept at commit.
            assert stripe_blobs(backends) == current, "the previous generation survived"
            previous = current

    @pytest.mark.parametrize(
        "store_kwargs, elements",
        [
            ({"threshold_bytes": 256}, 1000),
            # A default-constructed store (1 MiB threshold): commit-after-
            # barrier is the only protocol, not something to opt into.
            ({}, 300_000),
        ],
    )
    def test_plan_without_commit_is_invisible(self, backends, rng, store_kwargs, elements):
        striped = StripedStore(backends, **store_kwargs)
        committed = rng.standard_normal(elements).astype(np.float32)
        doomed = rng.standard_normal(elements).astype(np.float32)
        striped.save_from("k", committed)
        assert striped.is_striped("k")
        # Crash scenario: the next flush wrote some (here: all) of its stripe
        # blobs but died before the commit.
        parts = striped.plan_save("k", doomed)
        for part in parts[:1]:  # only the first stripe landed
            striped._backend_by_name(part.tier).save_from(part.key, part.array)
        # This process: reads still serve the committed generation.
        np.testing.assert_array_equal(striped.read("k"), committed)
        # A restarted process: same thing (the manifest is the commit point).
        survivor = StripedStore(
            [FileStore(b.root, name=b.name) for b in backends], **store_kwargs
        )
        np.testing.assert_array_equal(survivor.read("k"), committed)

    def test_next_commit_sweeps_crash_orphans(self, striped, backends, rng):
        committed = rng.standard_normal(1000).astype(np.float32)
        doomed = rng.standard_normal(1000).astype(np.float32)
        final = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        land(striped, striped.plan_save("k", doomed))
        # crash: no commit.  Restart and complete a full flush.
        survivor = reopen(backends)
        survivor.save_from("k", final)
        np.testing.assert_array_equal(survivor.read("k"), final)
        # No stripe blob of any other generation survives.
        expected = live_stripes(survivor, "k")
        on_disk = stripe_blobs(backends)
        assert on_disk == expected, f"orphan stripes survived: {on_disk - expected}"

    # 1000 elements keep the committed layout (a steady-state flush); 1200
    # elements re-plan under a new layout tag.
    @pytest.mark.parametrize("doomed_elements", [1000, 1200])
    def test_non_contiguous_crash_orphans_are_swept(self, backends, rng, doomed_elements):
        """An async fan-out lands stripes out of order: a crash can leave
        index gaps (stripe 2 without stripe 1).  The restart must not take
        the gapped generation for a complete one, and the sweep must not
        stop at the first gap."""
        striped = StripedStore(backends, threshold_bytes=256, stripe_bytes=1000)
        committed = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        parts = striped.plan_save("k", rng.standard_normal(doomed_elements).astype(np.float32))
        assert len(parts) >= 4
        land(striped, [parts[0], parts[2]])  # crashed: stripe 1 never landed
        survivor = reopen(backends, stripe_bytes=1000)
        np.testing.assert_array_equal(survivor.read("k"), committed)
        final = rng.standard_normal(1000).astype(np.float32)
        survivor.save_from("k", final)
        np.testing.assert_array_equal(survivor.read("k"), final)
        live = live_stripes(survivor, "k")
        on_disk = stripe_blobs(backends)
        assert on_disk == live, f"gap orphans survived: {on_disk - live}"

    def test_steady_state_reflush_writes_only_its_stripes(self, striped, backends, rng):
        """Once a key's layout is committed, a re-flush with unchanged
        weights costs the primary its own stripe writes and nothing more:
        no manifest rewrite on the throttled path."""
        striped.save_from("k", rng.standard_normal(1000).astype(np.float32), weights=[1, 1])
        before = backends[0].stats()
        for _ in range(5):
            value = rng.standard_normal(1000).astype(np.float32)
            striped.save_from("k", value, weights=[1, 1])
            np.testing.assert_array_equal(striped.read("k"), value)
        after = backends[0].stats()
        primary = [s for ext, s in striped.stripe_keys("k") if ext.path == 0]
        assert after.write_ops - before.write_ops == 5 * len(primary)
        assert after.bytes_written - before.bytes_written == 5 * sum(
            backends[0].size_of(s) for s in primary
        )
        np.testing.assert_array_equal(reopen(backends).read("k"), value)

    def test_layout_change_without_manifest_reads_previous_value(
        self, striped, backends, rng
    ):
        """A re-plan lands every stripe under its new layout tag, then the
        process dies before the manifest write: the old layout is still the
        committed one, and the new-tag stripes are orphans."""
        committed = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed, weights=[1, 1])
        parts = striped.plan_save(
            "k", rng.standard_normal(1000).astype(np.float32), weights=[1, 3]
        )
        land(striped, parts)
        np.testing.assert_array_equal(striped.read("k"), committed)
        survivor = reopen(backends)
        np.testing.assert_array_equal(survivor.read("k"), committed)
        assert [ext.count for ext in survivor.extents_of("k")] == [500, 500]
        final = rng.standard_normal(1000).astype(np.float32)
        survivor.save_from("k", final, weights=[1, 1])
        np.testing.assert_array_equal(survivor.read("k"), final)
        assert stripe_blobs(backends) == live_stripes(survivor, "k")

    @pytest.mark.parametrize("deleted", [0, 1])
    def test_restart_between_landing_and_deleting_previous_generation(
        self, striped, backends, rng, deleted
    ):
        """Every stripe of the next generation landed under the committed
        tag, and the commit died before (or while) deleting the previous
        generation: the highest complete generation is the key's value."""
        committed = rng.standard_normal(1000).astype(np.float32)
        newer = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        previous = striped.stripe_keys("k")
        land(striped, striped.plan_save("k", newer))
        for ext, stale in previous[:deleted]:
            backends[ext.path].delete(stale)
        survivor = reopen(backends)
        np.testing.assert_array_equal(survivor.read("k"), newer)
        final = rng.standard_normal(1000).astype(np.float32)
        survivor.save_from("k", final)
        np.testing.assert_array_equal(survivor.read("k"), final)
        assert stripe_blobs(backends) == live_stripes(survivor, "k")

    def test_two_crashed_attempts_never_mix_their_stripes(self, striped, backends, rng):
        """Two consecutive flushes crash after landing complementary stripes.
        Each attempt gets its own generation, so the restart cannot assemble
        a complete generation out of both."""
        committed = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        land(striped, striped.plan_save("k", rng.standard_normal(1000).astype(np.float32))[:1])
        survivor = reopen(backends)
        land(survivor, survivor.plan_save("k", rng.standard_normal(1000).astype(np.float32))[1:])
        np.testing.assert_array_equal(reopen(backends).read("k"), committed)

    def test_abandoned_flush_leaves_nothing_a_restart_could_serve(
        self, striped, backends, rng
    ):
        """A failed flush is abandoned in-process: neither its partial
        stripes plus a later crashed attempt's, nor a plan whose stripes all
        landed before it was abandoned, may become the value after a
        restart."""
        committed = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        backends[1].capacity = 10  # stripe 0 lands on nvme, stripe 1 fails
        with pytest.raises(StoreError):
            striped.save_from("k", rng.standard_normal(1000).astype(np.float32))
        backends[1].capacity = None
        land(striped, striped.plan_save("k", rng.standard_normal(1000).astype(np.float32))[1:])
        np.testing.assert_array_equal(reopen(backends).read("k"), committed)
        survivor = reopen(backends)
        land(survivor, survivor.plan_save("k", rng.standard_normal(1000).astype(np.float32)))
        survivor.abandon_save("k")
        np.testing.assert_array_equal(survivor.read("k"), committed)
        np.testing.assert_array_equal(reopen(backends).read("k"), committed)

    def test_first_striped_write_crash_keeps_whole_blob(self, striped, backends, rng):
        """A key upgrading whole-blob → striped must keep the whole blob
        readable until the stripe commit lands."""
        whole = rng.standard_normal(1000).astype(np.float32)
        backends[0].save_from("k", whole)  # pre-existing unstriped value
        parts = striped.plan_save("k", rng.standard_normal(1000).astype(np.float32))
        for part in parts[:1]:
            striped._backend_by_name(part.tier).save_from(part.key, part.array)
        # crash before commit: the key still reads as the whole blob.
        survivor = reopen(backends)
        assert not survivor.is_striped("k")
        np.testing.assert_array_equal(survivor.read("k"), whole)

    def test_commit_removes_stale_whole_blob(self, striped, backends, rng):
        whole = rng.standard_normal(1000).astype(np.float32)
        striped_data = rng.standard_normal(1000).astype(np.float32)
        backends[1].save_from("k", whole)
        striped.save_from("k", striped_data)
        assert not backends[1].contains("k"), "stale whole blob survived the commit"
        np.testing.assert_array_equal(striped.read("k"), striped_data)

    def test_failed_write_abandons_plan(self, striped, backends, rng):
        committed = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        huge = rng.standard_normal(1000).astype(np.float32)
        backends[0].capacity = 10  # force the stripe write to fail
        with pytest.raises(StoreError):
            striped.save_from("k", huge)
        backends[0].capacity = None
        np.testing.assert_array_equal(striped.read("k"), committed)
        with pytest.raises(StoreError, match="pending"):
            striped.commit_save("k")  # the failed plan was abandoned

    def test_crashed_downgrade_orphans_never_shadow_a_fresh_layout(
        self, striped, backends, rng, monkeypatch
    ):
        """A downgrade deletes the manifest before the stripes, so a crash
        between the two leaves a readable whole blob beside complete orphan
        stripes.  The key's next striped layout restarts its generations and
        must not let those orphans win the restart rule, even when it dies
        right after writing its manifest."""
        for _ in range(3):
            striped.save_from("k", rng.standard_normal(1000).astype(np.float32))
        whole = rng.standard_normal(16).astype(np.float32)
        backends[0].save_from("k", whole)
        backends[0].delete(striped.manifest_key("k"))  # crash mid-drop_stripes
        survivor = reopen(backends)
        np.testing.assert_array_equal(survivor.read("k"), whole)
        fresh = rng.standard_normal(1000).astype(np.float32)
        real_delete = survivor.primary.delete

        def die_at_whole_blob_sweep(key):
            if key == "k":
                raise RuntimeError("crash after the manifest write")
            real_delete(key)

        monkeypatch.setattr(survivor.primary, "delete", die_at_whole_blob_sweep)
        with pytest.raises(RuntimeError, match="crash"):
            survivor.save_from("k", fresh)
        np.testing.assert_array_equal(reopen(backends).read("k"), fresh)

    def test_failed_whole_blob_rewrite_keeps_the_striped_value(self, striped, backends, rng):
        """A field shrinking below the threshold is rewritten whole; if that
        write fails, the committed stripes must still be the key's value."""
        committed = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        backends[0].capacity = 10
        with pytest.raises(StoreError):
            striped.save_from("k", rng.standard_normal(16).astype(np.float32))
        backends[0].capacity = None
        np.testing.assert_array_equal(striped.read("k"), committed)
        np.testing.assert_array_equal(reopen(backends).read("k"), committed)

    def test_failed_adopt_keeps_the_striped_value(self, striped, backends, rng, tmp_path):
        committed = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", committed)
        with pytest.raises(StoreError, match="does not exist"):
            striped.adopt("k", tmp_path / "missing.bin")
        np.testing.assert_array_equal(striped.read("k"), committed)
        np.testing.assert_array_equal(reopen(backends).read("k"), committed)

    def test_commit_without_plan_raises(self, striped):
        with pytest.raises(StoreError, match="pending"):
            striped.commit_save("nope")

    def test_version_1_manifest_is_rejected(self, striped, backends, rng):
        striped.save_from("k", rng.standard_normal(1000).astype(np.float32))
        mkey = striped.manifest_key("k")
        v3 = backends[0].read(mkey)
        # magic, version, dtype code, [layout tag,] ndim, shape..., nstripes, extents...
        # Version 2 has the same shape but its slot 3 is a 0/1 stripe epoch.
        older = {
            1: np.concatenate([v3[:1], [1], v3[2:3], v3[4:]]),
            2: np.concatenate([v3[:1], [2], v3[2:]]),
        }
        for version, blob in older.items():
            backends[0].save_from(mkey, blob.astype(np.int64))
            with pytest.raises(StoreError, match=f"unsupported version {version}"):
                reopen(backends).read("k")


class TestVirtualTierCrashSafeFlush:
    @pytest.fixture
    def tier(self, tmp_path):
        from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
        from repro.core.virtual_tier import VirtualTier

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        config = MLPOffloadConfig(
            tiers=(
                TierConfig("a", str(tmp_path / "a"), read_bw=2.0, write_bw=2.0),
                TierConfig("b", str(tmp_path / "b"), read_bw=1.0, write_bw=1.0),
            ),
            subgroup_size=1000,
            stripe=StripeConfig(threshold_bytes=256.0),
        )
        tier = VirtualTier(config, worker="w0")
        tier.build_placement([0])
        yield tier
        tier.close()

    def test_async_flush_commits_behind_the_barrier(self, tier, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        futures = tier.flush_subgroup("sg000", 0, {"params": data}, wait=False)
        for future in futures:
            result = future.result()
            assert result.ok
        # Awaiting the returned future is the barrier: the commit happened.
        assert tier.striped is not None and tier.striped.is_striped("sg000.params")
        fetched = tier.fetch_subgroup("sg000", 0, ["params"])
        np.testing.assert_array_equal(fetched["params"], data)

    def test_reflush_advances_generation_and_stays_readable(self, tier, rng):
        first = rng.standard_normal(1000).astype(np.float32)
        second = rng.standard_normal(1000).astype(np.float32)
        tier.flush_subgroup("sg000", 0, {"params": first}, wait=True)
        previous = tier.striped.stripe_keys("sg000.params")
        tier.flush_subgroup("sg000", 0, {"params": second}, wait=True)
        current = tier.striped.stripe_keys("sg000.params")
        assert {s for _, s in current}.isdisjoint(s for _, s in previous)
        assert not any(
            tier.stores[tier.stripe_tier_names[ext.path]].contains(s) for ext, s in previous
        )
        fetched = tier.fetch_subgroup("sg000", 0, ["params"])
        np.testing.assert_array_equal(fetched["params"], second)

    def test_downgrade_to_whole_blob_keeps_old_value_until_barrier(self, tier, rng):
        """Striped → whole downgrade (field shrank below the threshold): the
        stale striped layout must survive until the whole blob landed, and
        be gone once the flush future resolves."""
        big = rng.standard_normal(1000).astype(np.float32)
        small = rng.standard_normal(32).astype(np.float32)  # 128 B < 256 B threshold
        tier.flush_subgroup("sg000", 0, {"params": big}, wait=True)
        assert tier.striped.is_striped("sg000.params")
        futures = tier.flush_subgroup("sg000", 0, {"params": small}, wait=False)
        for future in futures:
            assert future.result().ok
        # Barrier passed: the striped layout was dropped behind the write.
        assert not tier.striped.is_striped("sg000.params")
        fetched = tier.fetch_subgroup("sg000", 0, ["params"])
        np.testing.assert_array_equal(fetched["params"], small)

    def test_failed_async_flush_abandons_plan_and_rearms_sweep(self, tier, rng):
        """A flush whose write barrier fails must abandon the pending plan
        (no stale _pending_plans entry) and re-arm the orphan sweep so the
        partial stripes get cleaned by the next successful commit."""
        committed = rng.standard_normal(1000).astype(np.float32)
        tier.flush_subgroup("sg000", 0, {"params": committed}, wait=True)
        tier.stores["b"].capacity = 10  # second path's stripe write will fail
        futures = tier.flush_subgroup(
            "sg000", 0, {"params": rng.standard_normal(1000).astype(np.float32)}, wait=False
        )
        results = [f.result() for f in futures]
        assert any(not r.ok for r in results), "the flush was expected to fail"
        assert "sg000.params" not in tier.striped._pending_plans
        assert "sg000.params" not in tier.striped._orphan_swept
        # Committed generation untouched; next flush succeeds and sweeps.
        np.testing.assert_array_equal(
            tier.fetch_subgroup("sg000", 0, ["params"])["params"], committed
        )
        tier.stores["b"].capacity = None
        final = rng.standard_normal(1000).astype(np.float32)
        tier.flush_subgroup("sg000", 0, {"params": final}, wait=True)
        np.testing.assert_array_equal(
            tier.fetch_subgroup("sg000", 0, ["params"])["params"], final
        )
        live = {
            part.key
            for part in tier.striped.plan_load("sg000.params", np.empty(1000, np.float32))
        }
        on_disk = {
            k
            for store in tier.stores.values()
            for k in store.keys()
            if ".stripe" in k and not k.endswith(".stripemeta")
        }
        assert on_disk == live, f"failed-flush orphans survived: {on_disk - live}"


class TestAdoptStriped:
    def test_adopt_links_and_commits(self, striped, backends, tmp_path, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        # Source blobs live in sibling stores on the same filesystems.
        sources = [
            FileStore(backends[0].root.parent / "nvme_src", name="nvme_src"),
            FileStore(backends[1].root.parent / "pfs_src", name="pfs_src"),
        ]
        half = 500
        sources[0].save_from("blob0", data[:half])
        sources[1].save_from("blob1", data[half:])
        striped.adopt_striped(
            "k",
            [
                ("nvme", sources[0].path_of("blob0"), 0, half, None),
                ("pfs", sources[1].path_of("blob1"), half, half, None),
            ],
            dtype=np.float32,
            count=1000,
        )
        assert striped.is_striped("k")
        np.testing.assert_array_equal(striped.read("k"), data)
        # Zero payload bytes moved: the only write is the tiny manifest blob.
        assert backends[0].stats().bytes_written == backends[0].size_of(
            striped.manifest_key("k")
        )
        assert backends[1].stats().bytes_written == 0

    def test_adopt_rejects_gaps_and_unknown_backends(self, striped, backends, rng):
        data = rng.standard_normal(100).astype(np.float32)
        backends[0].save_from("src", data)
        path = backends[0].path_of("src")
        with pytest.raises(StoreError, match="unknown backend"):
            striped.adopt_striped("k", [("object", path, 0, 100, None)], dtype=np.float32, count=100)
        with pytest.raises(StoreError, match="non-contiguous"):
            striped.adopt_striped(
                "k",
                [("nvme", path, 0, 50, None), ("pfs", path, 60, 40, None)],
                dtype=np.float32,
                count=100,
            )


class TestLoadIntoChunks:
    def test_streams_digest_while_reading(self, tmp_path, rng):
        store = FileStore(tmp_path / "t", name="t")
        data = rng.standard_normal(10_000).astype(np.float32)
        store.save_from("k", data)
        out = np.empty_like(data)
        hasher = hashlib.blake2b(digest_size=8)
        store.load_into_chunks("k", out, chunk_bytes=4096, hasher=hasher)
        np.testing.assert_array_equal(out, data)
        assert int.from_bytes(hasher.digest(), "big") == payload_digest(
            memoryview(data.reshape(-1))
        )
        # Byte accounting identical to load_into: the full blob is charged.
        assert store.stats().bytes_read == store.size_of("k")

    def test_validates_like_load_into(self, tmp_path, rng):
        store = FileStore(tmp_path / "t", name="t")
        store.save_from("k", rng.standard_normal(100).astype(np.float32))
        with pytest.raises(StoreError, match="dtype"):
            store.load_into_chunks("k", np.empty(100, np.float64))
        with pytest.raises(StoreError, match="size"):
            store.load_into_chunks("k", np.empty(99, np.float32))
        with pytest.raises(StoreError, match="no key"):
            store.load_into_chunks("missing", np.empty(100, np.float32))

    def test_truncated_blob_detected(self, tmp_path, rng):
        store = FileStore(tmp_path / "t", name="t")
        store.save_from("k", rng.standard_normal(100).astype(np.float32))
        path = store.path_of("k")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(StoreError, match="truncated|payload"):
            store.load_into_chunks("k", np.empty(100, np.float32), chunk_bytes=64)
