"""Backend equivalence: the raw-I/O discipline must never change the math.

The ``thread`` and ``odirect`` backends differ only in how blob bytes reach
the device (buffered ``readinto``/``pwrite`` vs aligned O_DIRECT transfers
through bounce buffers).  Training state — the FP16 working copy, the FP32
master parameters, every Adam moment — and restored checkpoints must be
bitwise identical across them; even the tier directories must hold
byte-for-byte identical blob files.  Skipped wherever the filesystem
rejects O_DIRECT (CI's ``io-backend-smoke`` job runs it on ext4).
"""

import numpy as np
import pytest

from repro.aio import backends
from repro.core.config import IOBackendConfig, MLPOffloadConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750
ITERATIONS = 3


@pytest.fixture(autouse=True)
def _require_odirect(tmp_path, monkeypatch):
    # The whole point is comparing explicit backends; an external
    # REPRO_IO_BACKEND override (CI's odirect tier-1 run) must not redirect.
    monkeypatch.delenv(backends.BACKEND_ENV_VAR, raising=False)
    backends.probe_cache_clear()
    if backends.resolve("odirect", tmp_path).name != "odirect":
        pytest.skip(f"O_DIRECT unavailable on {tmp_path}")
    yield
    backends.probe_cache_clear()


@pytest.fixture
def layout():
    return build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)


@pytest.fixture
def workload(rng):
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    grads = [
        rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(ITERATIONS)
    ]
    return initial, grads


def _make_config(root, backend, **overrides):
    (root / "nvme").mkdir(parents=True, exist_ok=True)
    (root / "pfs").mkdir(parents=True, exist_ok=True)
    defaults = dict(
        subgroup_size=SUBGROUP,
        host_cache_bytes=0.0,
        adam=AdamConfig(lr=1e-2),
        io=IOBackendConfig(backend=backend),
        adaptive_bandwidth=False,
    )
    defaults.update(overrides)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(root / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(root / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        **defaults,
    )


def _drive(config, layout, initial, grads, *, checkpoint=False):
    views = flat_views(None, layout, 0)
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        assert {s.backend_name for s in engine.tier.stores.values()} == {config.io.backend}
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        for grad in grads:
            for index, view in views.items():
                engine.on_backward_gradient(index, grad[view].astype(np.float16))
            engine.on_microbatch_complete()
            engine.run_update(fp16)
            if checkpoint:
                engine.maybe_checkpoint(fp16)
        if checkpoint:
            engine.checkpoint_wait()
        master = engine.fetch_master_params()
    return fp16, master


def _tier_blob_bytes(root):
    """key -> raw file bytes for every blob under both tier directories."""
    blobs = {}
    for tier in ("nvme", "pfs"):
        for path in sorted((root / tier).glob("*.bin")):
            blobs[f"{tier}/{path.name}"] = path.read_bytes()
    return blobs


class TestBackendBitwiseEquivalence:
    def test_training_state_identical_across_backends(self, tmp_path, layout, workload):
        initial, grads = workload
        fp16_t, master_t = _drive(
            _make_config(tmp_path / "thread", "thread"), layout, initial, grads
        )
        fp16_o, master_o = _drive(
            _make_config(tmp_path / "odirect", "odirect"), layout, initial, grads
        )
        np.testing.assert_array_equal(fp16_t, fp16_o)
        np.testing.assert_array_equal(master_t, master_o)

    def test_tier_blob_files_bitwise_identical(self, tmp_path, layout, workload):
        initial, grads = workload
        _drive(_make_config(tmp_path / "thread", "thread"), layout, initial, grads)
        _drive(_make_config(tmp_path / "odirect", "odirect"), layout, initial, grads)
        thread_blobs = _tier_blob_bytes(tmp_path / "thread")
        odirect_blobs = _tier_blob_bytes(tmp_path / "odirect")
        assert thread_blobs.keys() == odirect_blobs.keys()
        for key, data in thread_blobs.items():
            assert data == odirect_blobs[key], f"blob {key} differs across backends"

    @pytest.mark.parametrize("backend", ["thread", "odirect"])
    def test_checkpoint_restore_roundtrip(self, tmp_path, layout, workload, backend):
        initial, grads = workload
        root = tmp_path / backend
        config = _make_config(root, backend, checkpoint_dir=str(root / "ckpt"))
        fp16, master = _drive(config, layout, initial, grads, checkpoint=True)
        resumed = MLPOffloadEngine(
            _make_config(root, backend, checkpoint_dir=str(root / "ckpt")), layout, rank=0
        )
        try:
            restored = resumed.restore_checkpoint()
            np.testing.assert_array_equal(restored.fp16_params, fp16)
            np.testing.assert_array_equal(resumed.fetch_master_params(), master)
        finally:
            resumed.close()

    @pytest.mark.parametrize("codec", ["raw", "shuffle-deflate"])
    def test_cross_backend_restore(self, tmp_path, layout, workload, codec):
        """A checkpoint written under odirect restores under thread (same
        disk format), plain blobs and codec frames alike."""
        initial, grads = workload
        root = tmp_path / "cross"
        ckpt = dict(checkpoint_dir=str(root / "ckpt"), checkpoint_codec=codec)
        write_config = _make_config(root, "odirect", **ckpt)
        fp16, master = _drive(write_config, layout, initial, grads, checkpoint=True)
        resumed = MLPOffloadEngine(_make_config(root, "thread", **ckpt), layout, rank=0)
        try:
            restored = resumed.restore_checkpoint()
            np.testing.assert_array_equal(restored.fp16_params, fp16)
            np.testing.assert_array_equal(resumed.fetch_master_params(), master)
        finally:
            resumed.close()
