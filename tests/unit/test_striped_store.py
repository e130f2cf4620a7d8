"""Stripe extent math and the striped multi-path store.

Covers the edge cases the striping layer must get right: fields below the
threshold stay whole, fixed-granularity plans may produce more stripes than
paths (round-robin), an evenly divisible field never yields a zero-length
tail stripe, and the single-path degenerate configuration is byte-for-byte
identical to the unstriped baseline.
"""

import numpy as np
import pytest

from repro.tiers.array_pool import ArrayPool, scatter_views
from repro.tiers.file_store import FileStore, StoreError
from repro.tiers.spec import StripeExtent, plan_stripes
from repro.tiers.striped_store import MANIFEST_SUFFIX, StripedStore


def _coverage(extents):
    """Flatten extents into the sorted list of covered element indices."""
    covered = []
    for ext in extents:
        covered.extend(range(ext.start, ext.stop))
    return sorted(covered)


class TestPlanStripes:
    def test_below_threshold_single_extent(self):
        extents = plan_stripes(100, 4, num_paths=2, threshold_bytes=1000)
        assert extents == (StripeExtent(index=0, path=0, start=0, count=100),)

    def test_at_threshold_stripes(self):
        extents = plan_stripes(250, 4, num_paths=2, threshold_bytes=1000)
        assert len(extents) == 2
        assert _coverage(extents) == list(range(250))

    def test_single_path_degenerate(self):
        extents = plan_stripes(10_000, 4, num_paths=1, threshold_bytes=0)
        assert extents == (StripeExtent(index=0, path=0, start=0, count=10_000),)

    def test_zero_elements(self):
        extents = plan_stripes(0, 4, num_paths=2, threshold_bytes=0)
        assert extents == (StripeExtent(index=0, path=0, start=0, count=0),)

    def test_default_one_stripe_per_path(self):
        extents = plan_stripes(1001, 4, num_paths=2, threshold_bytes=0)
        assert len(extents) == 2
        assert [e.path for e in extents] == [0, 1]
        assert _coverage(extents) == list(range(1001))

    def test_stripe_count_exceeds_path_count_round_robin(self):
        extents = plan_stripes(1000, 4, num_paths=2, threshold_bytes=0, stripe_bytes=400)
        # 1000 elements in 100-element chunks -> 10 stripes across 2 paths.
        assert len(extents) == 10
        assert [e.path for e in extents] == [0, 1] * 5
        assert _coverage(extents) == list(range(1000))

    def test_no_zero_length_tail_when_evenly_divisible(self):
        extents = plan_stripes(800, 4, num_paths=2, threshold_bytes=0, stripe_bytes=800)
        # 800 elements in 200-element chunks: exactly 4 stripes, no empty tail.
        assert len(extents) == 4
        assert all(e.count == 200 for e in extents)

    def test_weights_proportional(self):
        extents = plan_stripes(650, 4, num_paths=2, threshold_bytes=0, weights=[40.0, 25.0])
        assert len(extents) == 2
        assert sum(e.count for e in extents) == 650
        assert extents[0].count == 400  # 650 * 40/65
        assert extents[1].count == 250

    def test_zero_weight_path_gets_no_stripe(self):
        extents = plan_stripes(100, 4, num_paths=2, threshold_bytes=0, weights=[1.0, 0.0])
        assert len(extents) == 1
        assert extents[0].count == 100

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            plan_stripes(-1, 4, num_paths=2)
        with pytest.raises(ValueError):
            plan_stripes(10, 4, num_paths=0)
        with pytest.raises(ValueError):
            plan_stripes(10, 4, num_paths=2, stripe_bytes=4, weights=[1, 1])
        with pytest.raises(ValueError):
            plan_stripes(10, 4, num_paths=2, weights=[1.0])
        with pytest.raises(ValueError):
            plan_stripes(10, 4, num_paths=2, weights=[0.0, 0.0])


class TestScatterViews:
    def test_views_alias_storage(self):
        array = np.zeros(10, dtype=np.float32)
        extents = plan_stripes(10, 4, num_paths=2, threshold_bytes=0)
        views = scatter_views(array, extents)
        views[0][:] = 1.0
        views[1][:] = 2.0
        assert np.all(array[: extents[0].count] == 1.0)
        assert np.all(array[extents[0].count :] == 2.0)

    def test_rejects_out_of_range_extent(self):
        array = np.zeros(10, dtype=np.float32)
        with pytest.raises(ValueError):
            scatter_views(array, [StripeExtent(index=0, path=0, start=8, count=4)])

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            scatter_views(np.zeros((2, 5), dtype=np.float32), [])


@pytest.fixture
def backends(tier_dirs):
    return [
        FileStore(tier_dirs["nvme"], name="nvme"),
        FileStore(tier_dirs["pfs"], name="pfs"),
    ]


@pytest.fixture
def striped(backends):
    return StripedStore(backends, threshold_bytes=256)


class TestStripedStoreRoundTrip:
    def test_large_field_stripes_across_backends(self, striped, backends, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", data)
        assert striped.is_striped("k")
        # Both paths hold exactly one stripe blob; the manifest sits on the primary.
        stripes = striped.stripe_keys("k")
        assert [ext.path for ext, _ in stripes] == [0, 1]
        for ext, stripe in stripes:
            assert [k for k in backends[ext.path].keys() if k != "k" + MANIFEST_SUFFIX] == [
                stripe
            ]
        assert backends[0].contains("k" + MANIFEST_SUFFIX)
        np.testing.assert_array_equal(striped.read("k"), data)

    def test_load_into_pooled_buffer(self, striped, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", data)
        pool = ArrayPool()
        out = pool.acquire(1000, np.float32)
        np.testing.assert_array_equal(striped.load_into("k", out), data)
        pool.release(out)

    def test_small_field_is_byte_identical_to_plain_filestore(
        self, striped, backends, tier_dirs, tmp_path, rng
    ):
        data = rng.standard_normal(16).astype(np.float32)  # 64 B < 256 B threshold
        striped.save_from("small", data)
        assert not striped.is_striped("small")
        plain = FileStore(tmp_path / "plain")
        plain.save_from("small", data)
        striped_bytes = (tier_dirs["nvme"] / "small.bin").read_bytes()
        plain_bytes = (tmp_path / "plain" / "small.bin").read_bytes()
        assert striped_bytes == plain_bytes

    def test_weights_skew_the_split(self, striped, backends, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", data, weights=[3.0, 1.0])
        (nvme_ext, nvme_key), (pfs_ext, pfs_key) = striped.stripe_keys("k")
        assert (nvme_ext.path, pfs_ext.path) == (0, 1)
        nvme_stripe = backends[0].read(nvme_key)
        pfs_stripe = backends[1].read(pfs_key)
        assert nvme_stripe.size == 750
        assert pfs_stripe.size == 250
        np.testing.assert_array_equal(np.concatenate([nvme_stripe, pfs_stripe]), data)

    def test_manifest_survives_restart(self, striped, backends, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", data)
        reopened = StripedStore(
            [FileStore(b.root, name=b.name) for b in backends], threshold_bytes=256
        )
        assert reopened.is_striped("k")
        np.testing.assert_array_equal(reopened.read("k"), data)

    def test_rewrite_below_threshold_drops_stale_stripes(self, striped, backends, rng):
        striped.save_from("k", rng.standard_normal(1000).astype(np.float32))
        small = rng.standard_normal(16).astype(np.float32)
        striped.save_from("k", small)
        assert not striped.is_striped("k")
        assert list(backends[0].keys()) == ["k"]
        assert list(backends[1].keys()) == []
        np.testing.assert_array_equal(striped.read("k"), small)

    def test_delete_removes_manifest_and_stripes(self, striped, backends, rng):
        striped.save_from("k", rng.standard_normal(1000).astype(np.float32))
        striped.delete("k")
        assert not striped.contains("k")
        assert not list(backends[0].keys()) and not list(backends[1].keys())
        with pytest.raises(StoreError):
            striped.delete("k")

    def test_plan_load_validates_destination(self, striped, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", data)
        with pytest.raises(StoreError):
            striped.plan_load("k", np.empty(999, dtype=np.float32))
        with pytest.raises(StoreError):
            striped.plan_load("k", np.empty(1000, dtype=np.float64))
        with pytest.raises(StoreError):
            striped.plan_load("missing", np.empty(1000, dtype=np.float32))

    def test_keys_lists_logical_names_only(self, striped, rng):
        striped.save_from("big", rng.standard_normal(1000).astype(np.float32))
        striped.save_from("tiny", rng.standard_normal(8).astype(np.float32))
        assert list(striped.keys()) == ["big", "tiny"]

    def test_path_bytes_accounting(self, striped, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        striped.save_from("k", data, weights=[1.0, 1.0])
        striped.read("k")
        counts = striped.path_bytes()
        assert counts["nvme"]["written"] == counts["pfs"]["written"] == 2000
        assert counts["nvme"]["read"] == counts["pfs"]["read"] == 2000

    def test_replan_within_tolerance_reuses_extents(self, striped, rng):
        data = rng.standard_normal(10_000).astype(np.float32)
        striped.save_from("k", data, weights=[40.0, 25.0])
        recorded = striped.extents_of("k")
        # Slightly drifted weights: the recorded layout is reused, so stripe
        # sizes hold steady across the epoch flip.
        striped.save_from("k", data, weights=[40.5, 24.7])
        assert striped.extents_of("k") == recorded
        # A large shift re-plans.
        striped.save_from("k", data, weights=[10.0, 90.0])
        assert striped.extents_of("k") != recorded
        np.testing.assert_array_equal(striped.read("k"), data)

    def test_negative_manifest_lookup_is_cached(self, striped, backends, rng, monkeypatch):
        data = rng.standard_normal(16).astype(np.float32)
        striped.save_from("small", data)  # below threshold: caches the None manifest
        calls = []
        original = backends[0].contains

        def counting_contains(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(backends[0], "contains", counting_contains)
        for _ in range(5):
            assert not striped.is_striped("small")
        assert calls == []  # hot-path lookups never re-stat the manifest file

    def test_single_backend_never_stripes(self, tmp_path, rng):
        store = StripedStore([FileStore(tmp_path / "only", name="only")], threshold_bytes=0)
        data = rng.standard_normal(1000).astype(np.float32)
        store.save_from("k", data)
        assert not store.is_striped("k")
        np.testing.assert_array_equal(store.read("k"), data)
