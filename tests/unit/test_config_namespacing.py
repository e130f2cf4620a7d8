"""The ``io``/``stripe`` config namespacing: one spelling per option.

I/O-mechanism knobs live on :class:`~repro.core.config.IOBackendConfig`,
striping knobs on :class:`~repro.core.config.StripeConfig`; the flat kwargs
of earlier releases are gone and must fail like any unknown argument.
"""

import dataclasses
import json

import pytest

from repro.core.config import IOBackendConfig, MLPOffloadConfig, StripeConfig


def _cfg(**overrides):
    return MLPOffloadConfig.single_tier("/tmp/ns-test", **overrides)


class TestSubConfigs:
    def test_defaults(self):
        config = _cfg()
        assert config.io == IOBackendConfig()
        assert config.stripe == StripeConfig()
        assert config.io.backend == "auto"
        assert config.io.alignment_bytes == 4096
        assert len(dataclasses.fields(IOBackendConfig)) == 5
        assert len(dataclasses.fields(StripeConfig)) == 3

    def test_backend_name_validated(self):
        with pytest.raises(ValueError, match="unknown io backend"):
            IOBackendConfig(backend="bogus")

    def test_alignment_validated(self):
        with pytest.raises(ValueError, match="power of two"):
            IOBackendConfig(alignment_bytes=1000)

    def test_retry_validation_lives_on_the_sub_config(self):
        with pytest.raises(ValueError, match="retry_attempts"):
            IOBackendConfig(retry_attempts=0)
        with pytest.raises(ValueError, match="threshold_bytes"):
            StripeConfig(threshold_bytes=-1)

    def test_stripe_fanout_follows_nested_fields(self):
        config = MLPOffloadConfig.local_and_remote(
            "/tmp/a", "/tmp/b", stripe=StripeConfig(paths=1)
        )
        assert config.stripe_fanout() == 1

    @pytest.mark.parametrize(
        "flat",
        [
            "mmap_tier_reads",
            "io_retry_attempts",
            "io_retry_backoff_seconds",
            "io_deadline_seconds",
            "enable_striped_reads",
            "stripe_threshold_bytes",
            "stripe_paths",
            "crash_safe_striped_flush",
        ],
    )
    def test_flat_kwargs_are_rejected(self, flat):
        with pytest.raises(TypeError, match=flat):
            _cfg(**{flat: 1})
        assert not hasattr(_cfg(), flat)


class TestSerialization:
    def test_round_trip_preserves_sub_configs(self):
        config = _cfg(
            io=IOBackendConfig(
                backend="thread",
                alignment_bytes=512,
                retry_attempts=4,
                retry_backoff_seconds=0.25,
                deadline_seconds=1.5,
            ),
            stripe=StripeConfig(enabled=False, threshold_bytes=2048.0, paths=2),
        )
        assert MLPOffloadConfig.from_json(config.to_json()) == config

    def test_json_contains_nested_blocks_not_flat_keys(self):
        block = json.loads(_cfg().to_json())["mlp_offload"]
        assert "io" in block and "stripe" in block
        for flat in ("mmap_tier_reads", "stripe_paths", "io_retry_attempts"):
            assert flat not in block
