"""The pluggable raw-I/O backend layer (:mod:`repro.aio.backends`).

Covers the registry/fallback machinery (always), and the O_DIRECT backend
end to end where the filesystem supports it (skipped otherwise — CI's
``io-backend-smoke`` job runs on ext4, where it does).
"""

import hashlib

import numpy as np
import pytest

from repro.aio import backends
from repro.aio.engine import AsyncIOEngine
from repro.tiers.faultstore import FaultInjectingStore, FaultPlan
from repro.tiers.file_store import FileStore, TruncatedBlobError


@pytest.fixture(autouse=True)
def _fresh_probe_cache(monkeypatch):
    # These tests pick backends explicitly; a REPRO_IO_BACKEND override from
    # the environment (CI's odirect tier-1 run) must not redirect them.
    monkeypatch.delenv(backends.BACKEND_ENV_VAR, raising=False)
    backends.probe_cache_clear()
    yield
    backends.probe_cache_clear()


def _odirect_or_skip(directory) -> backends.ODirectBackend:
    backend = backends.resolve("odirect", directory)
    if backend.name != "odirect":
        pytest.skip(f"O_DIRECT unavailable on {directory}")
    return backend


class TestRegistry:
    def test_registry_names(self):
        assert backends.backend_names() == ("odirect", "thread")
        assert backends.backend_choices() == ("auto", "odirect", "thread")
        assert backends.AUTO_ORDER == ("odirect", "thread")

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown io backend"):
            backends.resolve("bogus", tmp_path)

    def test_thread_always_resolves(self, tmp_path):
        assert backends.resolve("thread", tmp_path).name == "thread"

    def test_auto_resolves_to_something(self, tmp_path):
        assert backends.resolve("auto", tmp_path).name in backends.backend_names()

    def test_env_var_overrides_by_name_selection(self, tmp_path, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV_VAR, "thread")
        assert backends.resolve("odirect", tmp_path).name == "thread"
        assert backends.resolve("auto", tmp_path).name == "thread"

    def test_env_var_does_not_override_instances(self, tmp_path, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV_VAR, "thread")
        backend = backends.ThreadBackend()
        store = FileStore(tmp_path / "t", backend=backend)
        assert store.io_backend is backend


class TestAlignedAllocation:
    @pytest.mark.parametrize("nbytes", [1, 511, 4096, 4097, 1 << 20])
    def test_alloc_aligned_address_and_size(self, nbytes):
        buf = backends.alloc_aligned(nbytes, 4096)
        assert buf.nbytes >= nbytes
        assert buf.ctypes.data % 4096 == 0
        assert buf.dtype == np.uint8

    def test_alloc_aligned_rejects_bad_alignment(self):
        with pytest.raises(ValueError):
            backends.alloc_aligned(16, 3)


class TestODirectRoundTrip:
    """Byte-level equivalence between the thread and O_DIRECT disciplines."""

    def test_blob_files_bitwise_identical(self, tmp_path, rng):
        _odirect_or_skip(tmp_path)
        data = rng.standard_normal(10_007).astype(np.float32)
        a = FileStore(tmp_path / "thread", backend="thread")
        b = FileStore(tmp_path / "odirect", backend="odirect")
        a.save_from("k", data)
        b.save_from("k", data)
        assert a.path_of("k").read_bytes() == b.path_of("k").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 3, 1023, 4096, 100_003])
    def test_roundtrip_odd_sizes(self, tmp_path, rng, n):
        _odirect_or_skip(tmp_path)
        store = FileStore(tmp_path / "t", backend="odirect")
        data = rng.integers(0, 255, size=n, dtype=np.uint8)
        store.save_from("k", data)
        out = np.empty_like(data)
        store.load_into("k", out)
        np.testing.assert_array_equal(out, data)

    def test_reads_cross_bounce_chunks(self, tmp_path, rng):
        _odirect_or_skip(tmp_path)
        backend = backends.ODirectBackend(bounce_bytes=8192)
        store = FileStore(tmp_path / "t", backend=backend)
        data = rng.standard_normal(50_001).astype(np.float32)
        store.save_from("k", data)
        out = np.empty_like(data)
        store.load_into_chunks("k", out, chunk_bytes=10_000)
        np.testing.assert_array_equal(out, data)

    def test_chunked_hasher_parity_with_thread(self, tmp_path, rng):
        _odirect_or_skip(tmp_path)
        data = rng.standard_normal(30_011).astype(np.float32)
        digests = []
        for backend in ("thread", "odirect"):
            store = FileStore(tmp_path / backend, backend=backend)
            store.save_from("k", data)
            hasher = hashlib.blake2b(digest_size=8)
            store.load_into_chunks("k", np.empty_like(data), chunk_bytes=4096, hasher=hasher)
            digests.append(hasher.hexdigest())
        assert digests[0] == digests[1]

    def test_truncated_blob_raises_retryable_error(self, tmp_path, rng):
        _odirect_or_skip(tmp_path)
        store = FileStore(tmp_path / "t", backend="odirect")
        data = rng.standard_normal(9_001).astype(np.float32)
        store.save_from("k", data)
        path = store.path_of("k")
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        with pytest.raises(TruncatedBlobError):
            store.load_into("k", np.empty_like(data))


class TestStoreSurface:
    def test_store_reports_backend_and_alignment(self, tmp_path):
        store = FileStore(tmp_path / "t", backend="thread")
        assert store.backend_name == "thread"
        assert store.io_alignment == 1

    def test_fault_wrapper_proxies_backend_surface(self, tmp_path):
        inner = FileStore(tmp_path / "t", backend="thread")
        wrapped = FaultInjectingStore(inner, FaultPlan())
        assert wrapped.backend_name == "thread"
        assert wrapped.io_alignment == 1

    def test_engine_stats_record_backend(self, tier_dirs):
        stores = {
            name: FileStore(path, name=name, backend="thread")
            for name, path in tier_dirs.items()
        }
        with AsyncIOEngine(stores, num_threads=1) as engine:
            recorded = {name: engine.tier_stats(name).backend for name in stores}
        assert set(recorded.values()) == {"thread"}

    def test_engine_stats_record_odirect(self, tmp_path, rng):
        _odirect_or_skip(tmp_path)
        store = FileStore(tmp_path / "t", name="nvme", backend="odirect")
        with AsyncIOEngine({"nvme": store}, num_threads=1) as engine:
            result = engine.write("nvme", "k", rng.standard_normal(100).astype(np.float32))
            assert result.result().ok
            assert engine.tier_stats("nvme").backend == "odirect"
