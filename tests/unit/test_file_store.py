"""Unit tests for the file-backed tier store."""

from pathlib import Path

import numpy as np
import pytest

from repro.aio.throttle import BandwidthThrottle
from repro.tiers.file_store import FileStore, StoreError


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["float16", "float32", "float64", "int32", "int64", "uint8"])
    def test_write_read_preserves_bits(self, tmp_path, rng, dtype):
        store = FileStore(tmp_path / "tier")
        array = (rng.standard_normal(257) * 100).astype(dtype)
        store.write("blob", array)
        restored = store.read("blob")
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        np.testing.assert_array_equal(restored, array)

    def test_multidimensional_shapes_preserved(self, tmp_path, rng):
        store = FileStore(tmp_path / "tier")
        array = rng.standard_normal((3, 5, 7)).astype(np.float32)
        store.write("nd", array)
        np.testing.assert_array_equal(store.read("nd"), array)

    def test_overwrite_replaces_content(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        store.write("k", np.arange(10, dtype=np.float32))
        store.write("k", np.arange(5, dtype=np.float32))
        assert store.read("k").size == 5

    def test_keys_and_contains_and_delete(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        store.write("b", np.zeros(1, dtype=np.float32))
        store.write("a", np.zeros(1, dtype=np.float32))
        assert list(store.keys()) == ["a", "b"]
        store.write("ab", np.zeros(1, dtype=np.float32))
        (tmp_path / "tier" / "a.bin.1.1.tmp").write_bytes(b"")  # an in-flight temp file
        assert list(store.keys(prefix="a")) == ["a", "ab"]
        assert list(store.keys(prefix="c")) == []
        store.delete("ab")
        assert store.contains("a")
        store.delete("a")
        assert not store.contains("a")
        with pytest.raises(StoreError):
            store.delete("a")

    def test_rediscovers_existing_blobs(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        store.write("persisted", np.ones(8, dtype=np.float32))
        reopened = FileStore(tmp_path / "tier")
        assert reopened.used_bytes > 0
        np.testing.assert_array_equal(reopened.read("persisted"), np.ones(8, dtype=np.float32))

    def test_listed_entry_that_vanished_is_skipped(self, tmp_path, monkeypatch):
        """A peer rank sharing the directory may retire a blob between the
        listing and the stat (or unlink); the entry is simply not there."""
        root = tmp_path / "tier"
        FileStore(root).write("live", np.ones(8, dtype=np.float32))
        real_glob = Path.glob

        def listing_with_ghost(self, pattern):
            yield from real_glob(self, pattern)
            if pattern == "*.bin":
                yield self / "rank1-sg00003.exp_avg_sq.stripe0.bin"

        monkeypatch.setattr(Path, "glob", listing_with_ghost)
        store = FileStore(root)
        assert store.used_bytes == store.size_of("live")
        store.clear()
        assert store.used_bytes == 0 and not store.contains("live")


class TestFailureModes:
    def test_missing_key_raises(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        with pytest.raises(StoreError):
            store.read("missing")
        with pytest.raises(StoreError):
            store.size_of("missing")

    def test_invalid_keys_rejected(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(StoreError):
                store.write(bad, np.zeros(1, dtype=np.float32))

    def test_corrupted_blob_detected(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        store.write("k", np.arange(16, dtype=np.float32))
        path = tmp_path / "tier" / "k.bin"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # truncate the payload
        with pytest.raises(StoreError):
            store.read("k")

    def test_foreign_file_rejected(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        (tmp_path / "tier" / "alien.bin").write_bytes(b"not a subgroup blob at all")
        with pytest.raises(StoreError):
            store.read("alien")

    def test_capacity_limit_enforced(self, tmp_path):
        store = FileStore(tmp_path / "tier", capacity=200)
        store.write("a", np.zeros(16, dtype=np.float32))
        with pytest.raises(StoreError):
            store.write("b", np.zeros(64, dtype=np.float32))

    def test_unsupported_dtype_rejected(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        with pytest.raises(StoreError):
            store.write("c", np.zeros(4, dtype=np.complex64))


class TestAccounting:
    def test_stats_track_bytes_and_ops(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        store.write("a", np.zeros(100, dtype=np.float32))
        store.read("a")
        stats = store.stats()
        assert stats.write_ops == 1 and stats.read_ops == 1
        assert stats.bytes_written > 400
        assert stats.bytes_read == stats.bytes_written
        store.reset_stats()
        assert store.stats().read_ops == 0

    def test_throttle_charges_modelled_time(self, tmp_path):
        throttle = BandwidthThrottle(1e6, simulate=True)
        store = FileStore(tmp_path / "tier", throttle=throttle)
        payload = np.zeros(250_000, dtype=np.float32)  # 1 MB
        store.write("a", payload)
        store.read("a")
        stats = store.stats()
        # Modelled transfer time at 1 MB/s is about a second in each direction.
        assert stats.write_seconds >= 0.9
        assert stats.read_seconds >= 0.9
        assert stats.bytes_read / stats.read_seconds == pytest.approx(1e6, rel=0.2)

    def test_clear_removes_everything(self, tmp_path):
        store = FileStore(tmp_path / "tier")
        for i in range(3):
            store.write(f"k{i}", np.zeros(4, dtype=np.float32))
        store.clear()
        assert list(store.keys()) == []
        assert store.used_bytes == 0
