"""Unit tests for the size-classed scratch-array pool behind zero-copy I/O."""

import threading

import numpy as np
import pytest

from repro.tiers.array_pool import ArrayPool, _size_class, scatter_views
from repro.tiers.spec import StripeExtent


class TestSizeClasses:
    def test_rounds_up_to_alignment_and_powers_of_two(self):
        assert _size_class(1) == 4096
        assert _size_class(4096) == 4096
        assert _size_class(4097) == 8192
        assert _size_class(100_000) == 131072

    def test_nearby_sizes_share_storage(self):
        pool = ArrayPool()
        a = pool.acquire(1000, np.float32)
        pool.release(a)
        # 1001 floats still fit the same 4 KiB class: the storage is reused.
        _b = pool.acquire(1001, np.float32)
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1


class TestConstruction:
    def test_max_free_per_class_must_be_positive(self):
        with pytest.raises(ValueError):
            ArrayPool(max_free_per_class=0)

    @pytest.mark.parametrize("alignment", [0, 3, -8, 4097])
    def test_alignment_must_be_a_positive_power_of_two(self, alignment):
        with pytest.raises(ValueError):
            ArrayPool(alignment=alignment)

    def test_default_alignment_gives_no_address_guarantee(self):
        assert ArrayPool().alignment == 1
        assert ArrayPool(alignment=None).alignment == 1
        assert ArrayPool(alignment=512).alignment == 512


class TestAcquireRelease:
    def test_acquire_returns_writable_flat_array(self):
        pool = ArrayPool()
        array = pool.acquire(257, np.float32)
        assert array.shape == (257,)
        assert array.dtype == np.float32
        assert array.flags.c_contiguous and array.flags.writeable
        array[:] = 1.5  # must not raise

    def test_release_and_reuse(self):
        pool = ArrayPool()
        first = pool.acquire(100, np.float32)
        assert pool.outstanding_count == 1
        assert pool.release(first)
        assert pool.outstanding_count == 0 and pool.free_count == 1
        second = pool.acquire(100, np.float32)
        assert pool.stats.hits == 1
        assert pool.free_count == 0
        assert second.size == 100

    def test_release_foreign_array_is_noop(self):
        pool = ArrayPool()
        assert not pool.release(np.zeros(4, dtype=np.float32))
        assert pool.stats.foreign_releases == 1

    def test_double_release_is_noop(self):
        pool = ArrayPool()
        array = pool.acquire(10)
        assert pool.release(array)
        assert not pool.release(array)
        assert pool.free_count == 1

    def test_owns_tracks_live_handouts(self):
        pool = ArrayPool()
        array = pool.acquire(10)
        assert pool.owns(array)
        pool.release(array)
        assert not pool.owns(array)

    def test_release_all_counts_pooled_only(self):
        pool = ArrayPool()
        mine = pool.acquire(10)
        foreign = np.zeros(10, dtype=np.float32)
        assert pool.release_all([mine, foreign]) == 1

    def test_dtypes_respected(self):
        pool = ArrayPool()
        for dtype in ("float16", "float32", "float64", "int64", "uint8"):
            array = pool.acquire(33, dtype)
            assert array.dtype == np.dtype(dtype)
            pool.release(array)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ArrayPool().acquire(-1)

    def test_zero_element_acquire_is_pooled(self):
        pool = ArrayPool()
        array = pool.acquire(0)
        assert array.size == 0
        assert pool.owns(array)
        assert pool.release(array)

    def test_outstanding_handouts_never_alias(self):
        pool = ArrayPool()
        first = pool.acquire(100)
        second = pool.acquire(100)
        first[:] = 1.0
        second[:] = 2.0
        assert not np.shares_memory(first, second)
        assert np.all(first == 1.0)

    def test_released_storage_backs_the_next_handout(self):
        pool = ArrayPool()
        first = pool.acquire(100)
        address = first.ctypes.data
        pool.release(first)
        assert pool.acquire(100).ctypes.data == address

    def test_storage_is_reused_across_dtypes_of_one_size_class(self):
        pool = ArrayPool()
        pool.release(pool.acquire(1000, np.float32))
        half = pool.acquire(1000, np.float16)
        assert half.dtype == np.float16
        assert pool.stats.hits == 1 and pool.stats.misses == 1

    def test_distinct_size_classes_do_not_share(self):
        pool = ArrayPool()
        pool.release(pool.acquire(1000, np.float32))  # 4 KiB class
        pool.acquire(2000, np.float32)  # 8 KiB class
        assert pool.stats.hits == 0 and pool.stats.misses == 2
        assert pool.free_count == 1

    def test_free_list_bounded(self):
        pool = ArrayPool(max_free_per_class=2)
        arrays = [pool.acquire(10) for _ in range(4)]
        for a in arrays:
            pool.release(a)
        assert pool.free_count == 2


class TestStats:
    def test_hit_rate(self):
        pool = ArrayPool()
        a = pool.acquire(10)
        pool.release(a)
        pool.acquire(10)
        assert pool.stats.hits == 1 and pool.stats.misses == 1
        assert pool.stats.hit_rate == pytest.approx(0.5)
        assert pool.stats.allocations == 1

    def test_unused_pool_has_zero_hit_rate(self):
        assert ArrayPool().stats.hit_rate == 0.0

    def test_releases_count_pooled_returns_only(self):
        pool = ArrayPool()
        pool.release(pool.acquire(10))
        pool.release(np.zeros(10, dtype=np.float32))
        assert pool.stats.releases == 1
        assert pool.stats.foreign_releases == 1

    def test_steady_state_allocates_nothing(self):
        pool = ArrayPool()
        for _ in range(3):
            leased = [pool.acquire(100) for _ in range(4)]
            for a in leased:
                pool.release(a)
        assert pool.stats.misses == 4  # only the first round allocated
        assert pool.stats.hits == 8


class TestScatterViews:
    def test_views_land_in_a_pooled_buffer(self):
        pool = ArrayPool()
        array = pool.acquire(10)
        extents = [
            StripeExtent(index=0, path=0, start=0, count=6),
            StripeExtent(index=1, path=1, start=6, count=4),
        ]
        first, second = scatter_views(array, extents)
        first[:] = 1.0
        second[:] = 2.0
        np.testing.assert_array_equal(array, [1.0] * 6 + [2.0] * 4)
        assert all(np.shares_memory(view, array) for view in (first, second))

    def test_no_extents_give_no_views(self):
        assert scatter_views(np.zeros(4, dtype=np.float32), []) == []

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            scatter_views(
                np.zeros(4, dtype=np.float32), [StripeExtent(index=0, path=0, start=-1, count=2)]
            )

    def test_read_only_target_rejected(self):
        array = np.zeros(4, dtype=np.float32)
        array.flags.writeable = False
        with pytest.raises(ValueError):
            scatter_views(array, [])

    def test_non_contiguous_target_rejected(self):
        with pytest.raises(ValueError):
            scatter_views(np.zeros(8, dtype=np.float32)[::2], [])


class TestThreadSafety:
    def test_concurrent_acquire_release(self):
        pool = ArrayPool()
        errors = []

        def worker():
            try:
                for _ in range(200):
                    a = pool.acquire(64)
                    a[0] = 1.0
                    pool.release(a)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.outstanding_count == 0

    def test_concurrent_holders_get_disjoint_buffers(self):
        pool = ArrayPool()
        barrier = threading.Barrier(4)
        held = []
        lock = threading.Lock()

        def worker(value):
            array = pool.acquire(256)
            array[:] = value
            barrier.wait(timeout=10)  # every worker holds its buffer at once
            with lock:
                held.append((value, array.copy()))
            barrier.wait(timeout=10)
            pool.release(array)

        threads = [threading.Thread(target=worker, args=(float(i),)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(value for value, _ in held) == [0.0, 1.0, 2.0, 3.0]
        assert all(np.all(array == value) for value, array in held)
        assert pool.outstanding_count == 0 and pool.stats.misses == 4
