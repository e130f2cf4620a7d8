"""Unit tests for the MLP-Offload configuration surface."""

import json

import pytest

from repro.core.config import MLPOffloadConfig, TierConfig
from repro.train.adam import AdamConfig

#: Options that were deleted, each with a value an old config file may hold.
DROPPED_KEYS = [
    ("checkpoint_link_tier_blobs", False),
    ("pinned_buffers", 3),
    ("adaptive_prefetch_depth", True),
    ("max_prefetch_depth", 8),
    ("checkpoint_streaming_restore", False),
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
        from dataclasses import fields

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

    def test_baseline_variant_disables_everything(self, two_tier_config):
        base = two_tier_config.baseline_variant()
        assert base.tier_names == ["nvme"]
        assert not base.enable_multipath
        assert not base.enable_tier_locks
        assert not base.enable_cache_reorder
        assert not base.enable_delayed_grad_conversion
        # Shared knobs are preserved so comparisons are apples to apples.
        assert base.subgroup_size == two_tier_config.subgroup_size
        assert base.adam == two_tier_config.adam

    def test_factory_helpers(self, tier_dirs):
        single = MLPOffloadConfig.single_tier(tier_dirs["nvme"], subgroup_size=10)
        assert single.tier_names == ["nvme"]
        both = MLPOffloadConfig.local_and_remote(tier_dirs["nvme"], tier_dirs["pfs"])
        assert both.tier_names == ["nvme", "pfs"]
        assert isinstance(both.adam, AdamConfig)
