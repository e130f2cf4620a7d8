"""Unit tests for the asynchronous I/O engine, locks, throttling and microbenchmarks."""

import threading
import time

import numpy as np
import pytest

from repro.aio.engine import AsyncIOEngine, IOKind, IORequest
from repro.aio.locks import TierLockManager
from repro.aio.microbench import measure_store_bandwidth, probe_tiers
from repro.aio.throttle import BandwidthThrottle
from repro.tiers.file_store import FileStore


class _FakeClock:
    """Stands in for the throttle's ``time`` module: a frozen clock that
    records every requested sleep instead of sleeping."""

    def __init__(self) -> None:
        self.sleeps = []

    def monotonic(self) -> float:
        return 100.0

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)


@pytest.fixture
def fake_clock(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr("repro.aio.throttle.time", clock)
    return clock


class TestBandwidthThrottle:
    def test_transfer_time_model(self):
        throttle = BandwidthThrottle(100.0, latency=0.5)
        assert throttle.transfer_time(100) == pytest.approx(1.5)
        assert throttle.transfer_time(0) == pytest.approx(0.5)

    def test_simulated_consume_does_not_sleep(self, fake_clock):
        throttle = BandwidthThrottle(10.0, simulate=True)
        charged = throttle.consume(100)  # would take 10 s for real
        assert fake_clock.sleeps == []
        assert charged == pytest.approx(10.0)
        assert throttle.consumed_bytes == 100
        assert throttle.charged_seconds == pytest.approx(10.0)

    def test_real_consume_sleeps(self):
        throttle = BandwidthThrottle(1e6, simulate=False)
        start = time.perf_counter()
        throttle.consume(50_000)  # 50 ms
        assert time.perf_counter() - start >= 0.04

    def test_concurrent_consumers_share_bandwidth(self):
        """Parallel transfers serialize on the device timeline (no N-fold bandwidth)."""
        import threading

        throttle = BandwidthThrottle(1e6, simulate=False)
        start = time.perf_counter()
        threads = [
            threading.Thread(target=throttle.consume, args=(25_000,)) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 4 x 25 ms must take ~100 ms in aggregate, not ~25 ms.
        assert time.perf_counter() - start >= 0.08

    def test_duplex_reads_and_writes_overlap(self, fake_clock):
        """Duplex mode serializes per direction: a read and a write run concurrently."""
        for duplex in (True, False):
            throttle = BandwidthThrottle(1e6, simulate=False, duplex=duplex)
            for direction in ("read", "write"):
                throttle.consume(150_000, direction=direction)
        # Two 150 ms transfers arriving together: on independent channels
        # both wait 150 ms; on a shared timeline the write queues behind the read.
        assert fake_clock.sleeps == pytest.approx([0.15, 0.15, 0.15, 0.30])

    def test_reset_and_validation(self):
        throttle = BandwidthThrottle(10.0)
        throttle.consume(10)
        throttle.reset()
        assert throttle.consumed_bytes == 0
        with pytest.raises(ValueError):
            BandwidthThrottle(0)
        with pytest.raises(ValueError):
            BandwidthThrottle(1, latency=-1)
        with pytest.raises(ValueError):
            throttle.consume(-1)


class TestTierLockManager:
    def test_exclusive_across_workers(self):
        manager = TierLockManager()
        lease = manager.acquire("nvme", "rank0")
        assert manager.owner_of("nvme") == "rank0"
        assert manager.acquire("nvme", "rank1", blocking=False) is None
        lease.release()
        assert manager.owner_of("nvme") is None
        assert manager.acquire("nvme", "rank1", blocking=False) is not None

    def test_reentrant_for_same_worker(self):
        manager = TierLockManager()
        first = manager.acquire("nvme", "rank0")
        second = manager.acquire("nvme", "rank0")
        assert first is second
        assert first.shares == 2
        first.release()
        assert manager.owner_of("nvme") == "rank0"  # one share still held
        first.release()
        assert manager.owner_of("nvme") is None

    def test_independent_tiers(self):
        manager = TierLockManager()
        manager.acquire("nvme", "rank0")
        assert manager.acquire("pfs", "rank1", blocking=False) is not None
        assert manager.held_tiers() == {"nvme": "rank0", "pfs": "rank1"}

    def test_blocking_acquire_waits_for_release(self):
        manager = TierLockManager()
        lease = manager.acquire("nvme", "rank0")
        got = []

        def contender():
            acquired = manager.acquire("nvme", "rank1", timeout=2.0)
            got.append(acquired)
            if acquired:
                acquired.release()

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.05)
        lease.release()
        thread.join(timeout=2.0)
        assert got and got[0] is not None
        assert manager.stats("nvme").contended_acquisitions >= 1

    def test_release_without_ownership_raises(self):
        manager = TierLockManager()
        with pytest.raises(RuntimeError):
            manager.release("nvme", "rank0")

    def test_context_manager_releases(self):
        manager = TierLockManager()
        with manager.acquire("pfs", "rank0"):
            assert manager.owner_of("pfs") == "rank0"
        assert manager.owner_of("pfs") is None

    def test_timed_out_acquire_returns_none_and_stops_waiting(self):
        manager = TierLockManager()
        lease = manager.acquire("nvme", "rank0")
        assert manager.acquire("nvme", "rank1", timeout=0.01) is None
        assert manager.waiters("nvme") == 0
        assert manager.owner_of("nvme") == "rank0"
        lease.release()

    def test_release_by_another_worker_raises(self):
        manager = TierLockManager()
        manager.acquire("nvme", "rank0")
        with pytest.raises(RuntimeError):
            manager.release("nvme", "rank1")
        assert manager.owner_of("nvme") == "rank0"

    def test_stats_count_every_share(self):
        manager = TierLockManager()
        lease = manager.acquire("pfs", "rank0")
        manager.acquire("pfs", "rank0")
        assert manager.acquire("pfs", "rank1", blocking=False) is None
        stats = manager.stats("pfs")
        assert stats.acquisitions == 2
        assert stats.contended_acquisitions == 0
        lease.release()
        assert stats.hold_seconds == 0.0  # one share still held
        lease.release()
        assert manager.owner_of("pfs") is None

    def test_same_worker_threads_share_one_lease(self):
        manager = TierLockManager()
        leases = []
        barrier = threading.Barrier(3)

        def io_thread():
            barrier.wait(timeout=10)
            leases.append(manager.acquire("pfs", "rank0", timeout=10))

        threads = [threading.Thread(target=io_thread) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(leases) == 3 and all(lease is leases[0] for lease in leases)
        assert leases[0].shares == 3
        for lease in leases:
            lease.release()
        assert manager.owner_of("pfs") is None


class TestAsyncIOEngine:
    @pytest.fixture
    def stores(self, tier_dirs):
        return {name: FileStore(path, name=name) for name, path in tier_dirs.items()}

    def test_async_write_then_read(self, stores, rng):
        with AsyncIOEngine(stores, num_threads=2) as engine:
            payload = rng.standard_normal(512).astype(np.float32)
            write = engine.write("nvme", "sg0.params", payload).result()
            assert write.ok and write.nbytes == payload.nbytes
            read = engine.read("nvme", "sg0.params").result()
            assert read.ok
            np.testing.assert_array_equal(read.array, payload)

    def test_errors_are_reported_in_results_not_raised(self, stores):
        with AsyncIOEngine(stores) as engine:
            result = engine.read("pfs", "does-not-exist").result()
            assert not result.ok
            assert result.error is not None

    def test_unknown_tier_and_bad_requests_raise_at_submission(self, stores):
        with AsyncIOEngine(stores) as engine:
            with pytest.raises(KeyError):
                engine.read("tape", "x")
            with pytest.raises(ValueError):
                engine.submit(IORequest(kind=IOKind.WRITE, tier="nvme", key="x"))

    def test_per_tier_stats(self, stores, rng):
        with AsyncIOEngine(stores) as engine:
            payload = rng.standard_normal(128).astype(np.float32)
            engine.write("nvme", "a", payload).result()
            engine.write("pfs", "b", payload).result()
            engine.read("nvme", "a").result()
            nvme = engine.tier_stats("nvme")
            pfs = engine.tier_stats("pfs")
            assert nvme.write_ops == 1 and nvme.read_ops == 1
            assert pfs.write_ops == 1 and pfs.read_ops == 0
            assert nvme.bytes_read == nvme.bytes_written

    def test_many_concurrent_requests_complete(self, stores, rng):
        with AsyncIOEngine(stores, num_threads=4, queue_depth=8) as engine:
            payload = rng.standard_normal(64).astype(np.float32)
            futures = [engine.write("nvme", f"k{i}", payload) for i in range(32)]
            results = [f.result() for f in futures]
            assert all(r.ok for r in results)
            engine.drain(timeout=5.0)
            assert engine.inflight == 0

    def test_lock_manager_serializes_tier_access(self, stores, rng):
        manager = TierLockManager()
        with AsyncIOEngine(stores, num_threads=4, lock_manager=manager) as engine:
            payload = rng.standard_normal(64).astype(np.float32)
            futures = [
                engine.write("nvme", f"k{i}", payload, worker=f"rank{i % 2}") for i in range(8)
            ]
            assert all(f.result().ok for f in futures)
            assert manager.stats("nvme").acquisitions == 8

    def test_write_multi_fans_out_and_aggregates(self, stores, rng):
        with AsyncIOEngine(stores, num_threads=4) as engine:
            payload = rng.standard_normal(256).astype(np.float32)
            parts = [
                ("nvme", "k.stripe0", payload[:100]),
                ("pfs", "k.stripe1", payload[100:]),
            ]
            result = engine.write_multi(parts, key="k").result()
            assert result.ok
            assert result.nbytes == payload.nbytes
            assert engine.tier_stats("nvme").write_ops == 1
            assert engine.tier_stats("pfs").write_ops == 1
            np.testing.assert_array_equal(stores["nvme"].read("k.stripe0"), payload[:100])
            np.testing.assert_array_equal(stores["pfs"].read("k.stripe1"), payload[100:])

    def test_write_multi_reports_first_part_error(self, stores, rng, tier_dirs):
        capped = FileStore(tier_dirs["nvme"] / "capped", name="capped", capacity=8)
        with AsyncIOEngine({**stores, "capped": capped}, num_threads=2) as engine:
            payload = rng.standard_normal(64).astype(np.float32)
            result = engine.write_multi(
                [("nvme", "ok", payload), ("capped", "too-big", payload)], key="k"
            ).result()
            assert not result.ok
            assert "capacity" in str(result.error)
            with pytest.raises(ValueError):
                engine.write_multi([])

    def test_submit_after_close_raises(self, stores):
        engine = AsyncIOEngine(stores)
        engine.close()
        with pytest.raises(RuntimeError):
            engine.read("nvme", "x")

    def test_constructor_validation(self, stores):
        with pytest.raises(ValueError):
            AsyncIOEngine({}, num_threads=1)
        with pytest.raises(ValueError):
            AsyncIOEngine(stores, num_threads=0)
        with pytest.raises(ValueError):
            AsyncIOEngine(stores, queue_depth=0)


class TestMicrobench:
    def test_measure_store_bandwidth_respects_throttle(self, tmp_path):
        store = FileStore(tmp_path / "t", throttle=BandwidthThrottle(10e6, simulate=True))
        result = measure_store_bandwidth(store, block_bytes=1 << 20, iterations=2)
        # Throttle dominates the real disk: measured bandwidth ~ configured 10 MB/s.
        assert result.read_bw == pytest.approx(10e6, rel=0.3)
        assert result.write_bw == pytest.approx(10e6, rel=0.3)
        assert result.effective_bw <= result.read_bw
        assert list(store.keys()) == []  # cleaned up

    def test_probe_tiers_returns_all_names(self, tier_dirs):
        stores = {
            "nvme": FileStore(tier_dirs["nvme"], throttle=BandwidthThrottle(20e6)),
            "pfs": FileStore(tier_dirs["pfs"], throttle=BandwidthThrottle(10e6)),
        }
        bandwidths = probe_tiers(stores, block_bytes=1 << 18, iterations=1)
        assert set(bandwidths) == {"nvme", "pfs"}
        assert bandwidths["nvme"] > bandwidths["pfs"]

    def test_parameter_validation(self, tmp_path):
        store = FileStore(tmp_path / "t")
        with pytest.raises(ValueError):
            measure_store_bandwidth(store, block_bytes=0)
        with pytest.raises(ValueError):
            measure_store_bandwidth(store, iterations=0)
