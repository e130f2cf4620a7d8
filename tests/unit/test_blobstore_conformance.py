"""Shared conformance suite for every :class:`~repro.tiers.spec.BlobStore`.

Each store implementation — plain, striped, fault-injecting proxy, and the
checkpoint blob store factory — must present the same formal surface with
the same semantics.  The suite is parametrized over factories
so a new store implementation buys its contract coverage by adding one
line.  ``FaultInjectingStore`` deliberately does *not* subclass the
protocol (its ``__getattr__`` delegation would be shadowed by inherited
placeholder bodies); it must still conform structurally, which is exactly
what ``isinstance`` against a ``runtime_checkable`` protocol verifies.
"""

import hashlib

import numpy as np
import pytest

from repro.ckpt.store import build_blob_stores
from repro.core.config import MLPOffloadConfig
from repro.tiers.faultstore import FaultInjectingStore, FaultPlan
from repro.tiers.file_store import FileStore, StoreError
from repro.tiers.spec import BlobStore
from repro.tiers.striped_store import StripedStore


def _file_store(root):
    return FileStore(root / "file", name="file")


def _striped_store(root):
    return StripedStore(
        [
            FileStore(root / "nvme", name="nvme"),
            FileStore(root / "pfs", name="pfs"),
        ],
        threshold_bytes=1 << 16,  # conformance keys stay unstriped
    )


def _fault_store(root):
    return FaultInjectingStore(FileStore(root / "inner", name="inner"), FaultPlan())


def _ckpt_store(root):
    config = MLPOffloadConfig.single_tier(root / "tier", checkpoint_dir=str(root / "manifests"))
    return build_blob_stores(config)["nvme"]


FACTORIES = {
    "file": _file_store,
    "striped": _striped_store,
    "fault-proxy": _fault_store,
    "ckpt-cas": _ckpt_store,
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def store(request, tmp_path):
    return FACTORIES[request.param](tmp_path)


@pytest.fixture
def payload(rng):
    return rng.standard_normal(777).astype(np.float32)


class TestBlobStoreConformance:
    def test_satisfies_protocol(self, store):
        assert isinstance(store, BlobStore)
        assert isinstance(store.name, str) and store.name

    def test_every_member_is_present(self, store):
        for member in (
            "save_from",
            "load_into",
            "load_into_chunks",
            "adopt",
            "meta_of",
            "path_of",
            "delete",
            "contains",
            "keys",
            "used_bytes",
        ):
            assert hasattr(store, member), member

    def test_save_load_roundtrip(self, store, payload):
        written = store.save_from("k", payload)
        assert written >= payload.nbytes
        out = np.empty_like(payload)
        result = store.load_into("k", out)
        np.testing.assert_array_equal(result, payload)

    def test_chunked_read_streams_payload_in_order(self, store, payload):
        store.save_from("k", payload)
        hasher = hashlib.blake2b(digest_size=8)
        out = np.empty_like(payload)
        store.load_into_chunks("k", out, chunk_bytes=512, hasher=hasher)
        np.testing.assert_array_equal(out, payload)
        assert hasher.digest() == hashlib.blake2b(payload.tobytes(), digest_size=8).digest()

    def test_meta_of(self, store, payload):
        store.save_from("k", payload)
        dtype, shape = store.meta_of("k")
        assert dtype == payload.dtype
        assert tuple(shape) == payload.shape

    def test_path_of_points_at_the_blob(self, store, payload):
        store.save_from("k", payload)
        assert store.path_of("k").exists()

    def test_contains_keys_delete(self, store, payload):
        assert not store.contains("k")
        store.save_from("k", payload)
        assert store.contains("k")
        assert "k" in set(store.keys())
        store.delete("k")
        assert not store.contains("k")
        assert "k" not in set(store.keys())

    def test_used_bytes_tracks_payloads(self, store, payload):
        before = store.used_bytes
        store.save_from("k", payload)
        assert store.used_bytes >= before + payload.nbytes
        store.delete("k")
        assert store.used_bytes <= before + payload.nbytes

    def test_adopt_links_an_existing_blob(self, store, payload, tmp_path):
        source = FileStore(tmp_path / "adopt-src", name="src")
        source.save_from("origin", payload)
        store.adopt("k", source.path_of("origin"))
        out = np.empty_like(payload)
        store.load_into("k", out)
        np.testing.assert_array_equal(out, payload)

    def test_missing_key_raises_store_error(self, store):
        with pytest.raises(StoreError):
            store.load_into("absent", np.empty(4, dtype=np.float32))


class TestStripedSpecifics:
    """Protocol methods whose striped behaviour the shared suite cannot see."""

    @pytest.fixture
    def striped(self, tmp_path):
        return StripedStore(
            [
                FileStore(tmp_path / "nvme", name="nvme"),
                FileStore(tmp_path / "pfs", name="pfs"),
            ],
            threshold_bytes=256,
        )

    @pytest.fixture
    def big(self, rng):
        return rng.standard_normal(5_000).astype(np.float32)

    def test_chunked_read_of_striped_key_matches_digest(self, striped, big):
        striped.save_from("k", big)
        assert striped.is_striped("k")
        hasher = hashlib.blake2b(digest_size=8)
        out = np.empty_like(big)
        striped.load_into_chunks("k", out, chunk_bytes=1024, hasher=hasher)
        np.testing.assert_array_equal(out, big)
        # Extent order == payload order: the digest must be representation-
        # independent, i.e. identical to an unstriped read of the same bytes.
        assert hasher.digest() == hashlib.blake2b(big.tobytes(), digest_size=8).digest()

    def test_path_of_striped_key_refuses(self, striped, big):
        striped.save_from("k", big)
        with pytest.raises(StoreError, match="no single path"):
            striped.path_of("k")

    def test_adopt_replaces_striped_key_with_whole_blob(self, striped, big, tmp_path):
        striped.save_from("k", big)
        source = FileStore(tmp_path / "src", name="src")
        source.save_from("origin", big * 2.0)
        striped.adopt("k", source.path_of("origin"))
        assert not striped.is_striped("k")
        out = np.empty_like(big)
        striped.load_into("k", out)
        np.testing.assert_array_equal(out, big * 2.0)
