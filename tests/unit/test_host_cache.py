"""Unit tests for the host subgroup cache."""

import concurrent.futures

import numpy as np
import pytest

from repro.tiers.host_cache import HostSubgroupCache


def _arrays(num_floats: int) -> dict:
    return {"params": np.zeros(num_floats, dtype=np.float32)}


class TestBasicOperation:
    def test_put_get_hit_and_miss_counters(self):
        cache = HostSubgroupCache(capacity_bytes=10_000)
        assert cache.get(0) is None
        assert cache.put(0, _arrays(10))
        assert cache.get(0) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert 0 in cache and 1 not in cache

    def test_peek_does_not_touch_counters(self):
        cache = HostSubgroupCache(capacity_bytes=10_000)
        cache.put(3, _arrays(10))
        assert cache.peek(3) is not None
        assert cache.peek(4) is None
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_capacity_is_never_exceeded(self):
        cache = HostSubgroupCache(capacity_bytes=1000)
        for i in range(10):
            cache.put(i, _arrays(50))  # 200 bytes each
        assert cache.used_bytes <= 1000
        assert len(cache) <= 5

    def test_oldest_entries_evicted_first(self):
        cache = HostSubgroupCache(capacity_bytes=600)
        cache.put(0, _arrays(50))
        cache.put(1, _arrays(50))
        cache.put(2, _arrays(50))
        cache.put(3, _arrays(50))  # evicts subgroup 0
        assert 0 not in cache
        assert cache.cached_ids() == [1, 2, 3]
        assert cache.stats.evictions == 1

    def test_oversized_entry_rejected(self):
        cache = HostSubgroupCache(capacity_bytes=100)
        assert not cache.put(0, _arrays(1000))
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_zero_capacity_caches_nothing(self):
        cache = HostSubgroupCache(capacity_bytes=0)
        assert not cache.put(0, _arrays(1))
        assert cache.get(0) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            HostSubgroupCache(capacity_bytes=-1)

    def test_a_hit_protects_an_entry_from_eviction(self):
        cache = HostSubgroupCache(capacity_bytes=600)
        for i in range(3):
            cache.put(i, _arrays(50))
        cache.get(0)  # 0 becomes the most recently used
        cache.put(3, _arrays(50))
        assert cache.cached_ids() == [2, 0, 3]

    def test_refresh_replaces_arrays_without_growing(self):
        cache = HostSubgroupCache(capacity_bytes=10_000)
        cache.put(0, _arrays(10))
        fresh = _arrays(20)
        assert cache.put(0, fresh)
        assert len(cache) == 1
        assert cache.used_bytes == 80
        assert cache.peek(0) is fresh
        assert cache.entry(0).nbytes == 80 and cache.entry(7) is None

    def test_iteration_yields_a_snapshot_of_entries(self):
        cache = HostSubgroupCache(capacity_bytes=10_000)
        cache.put(0, _arrays(10), dirty=True)
        cache.put(1, _arrays(10))
        entries = iter(cache)
        cache.put(2, _arrays(10))
        assert {(e.subgroup_id, e.dirty) for e in entries} == {(0, True), (1, False)}

    def test_hit_rate(self):
        cache = HostSubgroupCache(capacity_bytes=10_000)
        assert cache.stats.hit_rate == 0.0
        cache.put(0, _arrays(10))
        cache.get(0)
        cache.get(1)
        cache.get(0)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestDirtyTracking:
    def test_dirty_eviction_invokes_writeback(self):
        written = {}
        cache = HostSubgroupCache(
            capacity_bytes=500, writeback=lambda sg, arrays: written.setdefault(sg, arrays)
        )
        cache.put(0, _arrays(50), dirty=True)
        cache.put(1, _arrays(50), dirty=True)
        cache.put(2, _arrays(50), dirty=True)  # evicts 0
        assert 0 in written
        assert cache.stats.dirty_evictions == 1

    def test_dirty_eviction_without_writeback_raises(self):
        cache = HostSubgroupCache(capacity_bytes=250)
        cache.put(0, _arrays(50), dirty=True)
        with pytest.raises(RuntimeError):
            cache.put(1, _arrays(50), dirty=True)

    def test_clean_eviction_skips_writeback(self):
        calls = []
        cache = HostSubgroupCache(capacity_bytes=250, writeback=lambda *a: calls.append(a))
        cache.put(0, _arrays(50), dirty=False)
        cache.put(1, _arrays(50), dirty=False)
        assert calls == []

    def test_refresh_preserves_dirty_flag(self):
        cache = HostSubgroupCache(capacity_bytes=10_000, writeback=lambda *a: None)
        cache.put(0, _arrays(10), dirty=True)
        cache.put(0, _arrays(10), dirty=False)  # refresh must not lose the pending write
        assert cache.entry(0).dirty


class TestWriteBehindOwnership:
    def test_on_evict_waits_for_the_write_behind_to_land(self):
        landed = concurrent.futures.Future()
        released = []
        cache = HostSubgroupCache(
            capacity_bytes=500,
            writeback=lambda sg, arrays: landed,
            on_evict=lambda sg, arrays: released.append((sg, arrays)),
        )
        victim = _arrays(50)
        cache.put(0, victim, dirty=True)
        cache.put(1, _arrays(50), dirty=True)
        cache.put(2, _arrays(50), dirty=True)  # evicts 0, write still in flight
        assert 0 not in cache
        assert cache.stats.dirty_evictions == 1
        assert released == []  # the write still owns the arrays
        landed.set_result(None)
        assert released == [(0, victim)]

    def test_clean_eviction_releases_at_once_beside_a_write_behind(self):
        released = []
        cache = HostSubgroupCache(
            capacity_bytes=250,
            writeback=lambda sg, arrays: concurrent.futures.Future(),
            on_evict=lambda sg, arrays: released.append(sg),
        )
        cache.put(0, _arrays(50), dirty=True)
        cache.put(1, _arrays(50))  # evicts dirty 0: its write never lands here
        cache.put(2, _arrays(50))  # evicts clean 1
        assert released == [1]

    def test_synchronous_writeback_releases_after_writing(self):
        events = []
        cache = HostSubgroupCache(
            capacity_bytes=250,
            writeback=lambda sg, arrays: events.append(("write", sg)),
            on_evict=lambda sg, arrays: events.append(("release", sg)),
        )
        cache.put(0, _arrays(50), dirty=True)
        cache.put(1, _arrays(50))
        assert events == [("write", 0), ("release", 0)]
