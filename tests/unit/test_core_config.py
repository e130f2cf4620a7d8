"""Unit tests for the MLP-Offload configuration surface."""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import IOBackendConfig, MLPOffloadConfig, StripeConfig, TierConfig
from repro.train.adam import AdamConfig

#: ``to_json`` of ``MLPOffloadConfig.local_and_remote("/local", "/remote")``.
TWO_TIER_JSON = Path(__file__).resolve().parents[1] / "data" / "mlp_offload_two_tier.json"

#: Options that were deleted, each with a value an old config file may hold.
DROPPED_KEYS = [
    ("checkpoint_link_tier_blobs", False),
    ("pinned_buffers", 3),
    ("adaptive_prefetch_depth", True),
    ("max_prefetch_depth", 8),
    ("checkpoint_streaming_restore", False),
    ("pipeline_update_phase", False),
    ("prefetch_depth", 4),
    ("pipeline_backward_flush", False),
]


class TestTierConfig:
    def test_effective_bw_requires_both_directions(self):
        assert TierConfig(name="nvme", path="/x", read_bw=6.0, write_bw=4.0).effective_bw == 4.0
        assert TierConfig(name="nvme", path="/x", read_bw=6.0).effective_bw is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TierConfig(name="", path="/x")
        with pytest.raises(ValueError):
            TierConfig(name="nvme", path="/x", read_bw=0)
        with pytest.raises(ValueError):
            TierConfig(name="nvme", path="/x", ratio=0)


class TestMLPOffloadConfig:
    def test_defaults_enable_every_design_principle(self, two_tier_config):
        cfg = two_tier_config
        assert cfg.enable_multipath and cfg.enable_tier_locks
        assert cfg.enable_cache_reorder and cfg.enable_delayed_grad_conversion
        assert cfg.tier_names == ["nvme", "pfs"]
        assert cfg.primary_tier.name == "nvme"
        assert cfg.tier("pfs").name == "pfs"
        with pytest.raises(KeyError):
            cfg.tier("tape")

    def test_validation(self, tier_dirs):
        with pytest.raises(ValueError):
            MLPOffloadConfig(tiers=())
        dup = (TierConfig("a", str(tier_dirs["nvme"])), TierConfig("a", str(tier_dirs["pfs"])))
        with pytest.raises(ValueError):
            MLPOffloadConfig(tiers=dup)
        single = (TierConfig("nvme", str(tier_dirs["nvme"])),)
        with pytest.raises(ValueError):
            MLPOffloadConfig(tiers=single, subgroup_size=0)
        with pytest.raises(ValueError):
            MLPOffloadConfig(tiers=single, host_cache_bytes=-1)
        with pytest.raises(ValueError):
            MLPOffloadConfig(tiers=single, bandwidth_smoothing=0.0)
        with pytest.raises(ValueError, match="path_quarantine_failures"):
            MLPOffloadConfig(tiers=single, path_quarantine_failures=0)

    def test_explicit_ratios_need_every_tier(self, tier_dirs):
        partial = MLPOffloadConfig(
            tiers=(
                TierConfig("nvme", str(tier_dirs["nvme"]), ratio=2.0),
                TierConfig("pfs", str(tier_dirs["pfs"])),
            )
        )
        assert partial.explicit_ratios() is None
        full = MLPOffloadConfig.local_and_remote(
            tier_dirs["nvme"], tier_dirs["pfs"], ratio=(2.0, 1.0)
        )
        assert full.explicit_ratios() == {"nvme": 2.0, "pfs": 1.0}

    def test_bandwidth_hints(self, two_tier_config):
        hints = two_tier_config.bandwidth_hints()
        assert hints["nvme"] == pytest.approx(5.3e9)
        assert hints["pfs"] == pytest.approx(3.6e9)

    def test_json_round_trip(self, two_tier_config):
        text = two_tier_config.to_json()
        restored = MLPOffloadConfig.from_json(text)
        assert restored.tier_names == two_tier_config.tier_names
        assert restored.subgroup_size == two_tier_config.subgroup_size
        assert restored.adam == two_tier_config.adam
        assert restored.enable_multipath == two_tier_config.enable_multipath
        assert restored.host_cache_bytes == two_tier_config.host_cache_bytes

    def test_json_round_trip_of_every_field(self):
        """Every field, each set away from its default, survives
        ``from_json(to_json(c))`` — a field ``to_json`` missed would not."""
        config = MLPOffloadConfig(
            tiers=(
                TierConfig("nvme", "/local", read_bw=6.9e9, write_bw=5.3e9, ratio=2.0),
                TierConfig("pfs", "/remote", ratio=1.0),
            ),
            subgroup_size=1000,
            host_cache_bytes=64 * 1024.0,
            enable_multipath=False,
            enable_tier_locks=False,
            enable_cache_reorder=False,
            enable_delayed_grad_conversion=False,
            io=IOBackendConfig(
                backend="thread",
                alignment_bytes=512,
                retry_attempts=5,
                retry_backoff_seconds=0.01,
                deadline_seconds=2.0,
            ),
            stripe=StripeConfig(enabled=False, threshold_bytes=4096.0, paths=1),
            checkpoint_dir="/ckpt",
            checkpoint_interval=3,
            checkpoint_retention=4,
            checkpoint_codec="shuffle-deflate",
            checkpoint_coordination=True,
            checkpoint_world_size=2,
            checkpoint_lock_stale_seconds=5.0,
            checkpoint_registry_url="http://localhost:9",
            checkpoint_registry_tenant="team-a",
            adam=AdamConfig(lr=1e-3, beta1=0.8, beta2=0.99, eps=1e-6, weight_decay=0.1),
            adaptive_bandwidth=False,
            bandwidth_smoothing=0.25,
            path_quarantine_failures=5,
            path_probe_interval=2,
        )
        default = MLPOffloadConfig(tiers=config.tiers)
        for f in fields(MLPOffloadConfig):
            if f.name != "tiers":
                assert getattr(config, f.name) != getattr(default, f.name), f.name
        assert MLPOffloadConfig.from_json(config.to_json()) == config

    def test_default_two_tier_json_is_pinned(self):
        """The serialized default configuration only changes on purpose."""
        config = MLPOffloadConfig.local_and_remote("/local", "/remote")
        expected = json.loads(TWO_TIER_JSON.read_text(encoding="utf-8"))
        assert json.loads(config.to_json()) == expected

    @pytest.mark.parametrize("key, value", DROPPED_KEYS)
    def test_json_with_a_dropped_key_still_parses(self, two_tier_config, key, value):
        """Configs written while a since-deleted option existed load
        unchanged; the key is neither an option nor written back out."""
        payload = json.loads(two_tier_config.to_json())
        assert key not in payload["mlp_offload"]
        payload["mlp_offload"][key] = value
        restored = MLPOffloadConfig.from_json(json.dumps(payload))
        assert restored == MLPOffloadConfig.from_json(two_tier_config.to_json())
        assert not hasattr(restored, key)

    @pytest.mark.parametrize("key, value", DROPPED_KEYS)
    def test_dropped_key_is_no_longer_a_keyword(self, tier_dirs, key, value):
        with pytest.raises(TypeError):
            MLPOffloadConfig.single_tier(tier_dirs["nvme"], subgroup_size=10, **{key: value})

    def test_from_json_of_a_tiers_only_block_takes_every_dataclass_default(
        self, two_tier_config
    ):
        """A key absent from the JSON block must mean the dataclass default,
        never a second spelling of it that can drift."""
        tiers = [
            {k: v for k, v in vars(t).items() if v is not None} for t in two_tier_config.tiers
        ]
        parsed = MLPOffloadConfig.from_json(json.dumps({"mlp_offload": {"tiers": tiers}}))
        expected = MLPOffloadConfig(tiers=two_tier_config.tiers)
        # Every field, the nested io/stripe/adam blocks included.
        for f in fields(MLPOffloadConfig):
            assert getattr(parsed, f.name) == getattr(expected, f.name), f.name

    def test_from_json_requires_top_level_key(self):
        with pytest.raises(ValueError):
            MLPOffloadConfig.from_json("{}")

    def test_factory_helpers(self, tier_dirs):
        single = MLPOffloadConfig.single_tier(tier_dirs["nvme"], subgroup_size=10)
        assert single.tier_names == ["nvme"]
        both = MLPOffloadConfig.local_and_remote(tier_dirs["nvme"], tier_dirs["pfs"])
        assert both.tier_names == ["nvme", "pfs"]
        assert isinstance(both.adam, AdamConfig)
