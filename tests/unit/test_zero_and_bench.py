"""Unit tests for the baseline/ablation variants and the benchmark harness."""

import tempfile

import pytest

from repro.bench import experiments
from repro.bench.harness import ExperimentResult, format_table, trajectory_payload
from repro.core.config import MLPOffloadConfig, TierConfig
from repro.train.adam import AdamConfig
from repro.zero.variants import (
    ABLATION_LADDER_MULTIPATH,
    ABLATION_LADDER_NVME,
    variant_config,
)
from repro.zero.zero3_engine import zero3_config


@pytest.fixture
def full_config(tier_dirs):
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(tier_dirs["nvme"]), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(tier_dirs["pfs"]), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=100,
        adam=AdamConfig(lr=1e-3),
    )


class TestZero3Config:
    def test_baseline_disables_all_principles_but_keeps_shared_knobs(self, full_config):
        base = zero3_config(full_config)
        assert base.tier_names == ["nvme"]
        assert not (
            base.enable_multipath
            or base.enable_tier_locks
            or base.enable_cache_reorder
            or base.enable_delayed_grad_conversion
        )
        # Shared knobs are preserved so comparisons are apples to apples.
        assert base.subgroup_size == full_config.subgroup_size
        assert base.adam == full_config.adam


class TestAblationLadders:
    def test_nvme_ladder_is_progressive(self):
        ladder = ABLATION_LADDER_NVME
        assert [v.name for v in ladder] == ["zero3", "caching", "skip_gradients", "atomic_rw"]
        enabled_counts = [
            sum([v.multipath, v.cache_reorder, v.delayed_grads, v.tier_locks]) for v in ladder
        ]
        assert enabled_counts == sorted(enabled_counts)
        assert not any(v.multipath for v in ladder)

    def test_multipath_ladder_ends_with_full_mlp_offload(self):
        final = ABLATION_LADDER_MULTIPATH[-1]
        assert final.multipath and final.cache_reorder and final.delayed_grads and final.tier_locks
        assert all(v.multipath for v in ABLATION_LADDER_MULTIPATH)

    def test_variant_config_applies_switches(self, full_config):
        caching = variant_config("caching", full_config)
        assert caching.enable_cache_reorder
        assert not caching.enable_delayed_grad_conversion
        assert caching.tier_names == ["nvme"]
        ours = variant_config("mlp_offload", full_config)
        assert ours.tier_names == ["nvme", "pfs"]
        with pytest.raises(KeyError):
            variant_config("nonsense", full_config)


class TestHarness:
    def test_experiment_result_rows_and_lookup(self):
        result = ExperimentResult("figX", "demo")
        result.add_row(model="40B", engine="DS", value=1.0)
        result.add_row(model="40B", engine="MLP", value=2.0)
        assert result.column("value") == [1.0, 2.0]
        assert result.row_for(engine="MLP")["value"] == 2.0
        with pytest.raises(KeyError):
            result.row_for(engine="missing")
        result.add_note("a note")
        assert "figX" in str(result)

    def test_format_table_handles_mixed_columns(self):
        text = format_table([{"a": 1.0, "b": "x"}, {"a": 20000.0, "c": 3}], title="T")
        assert "T" in text and "a" in text and "c" in text
        assert format_table([], title="empty").startswith("empty")

    def test_row_lookup_matches_every_field_and_columns_fill_gaps(self):
        result = ExperimentResult("figX", "demo")
        result.add_row(model="40B", engine="DS", value=1.0)
        result.add_row(model="70B", engine="DS")
        assert result.row_for(model="70B", engine="DS") == {"model": "70B", "engine": "DS"}
        with pytest.raises(KeyError):
            result.row_for(model="40B", engine="MLP")
        assert result.column("value") == [1.0, None]

    def test_format_table_scales_float_precision(self):
        text = format_table([{"x": 0.0}, {"x": 12345.6}, {"x": 42.25}, {"x": 0.5}, {"x": 7}])
        values = [line.strip() for line in text.splitlines()[2:]]
        assert values == ["0", "12,346", "42.2", "0.500", "7"]
        assert format_table([]) == "(no rows)"

    def test_trajectory_payload_groups_rows_by_series(self):
        result = ExperimentResult("fig08", "update throughput")
        result.add_row(series="MLP", model="40B", value=2.0)
        result.add_row(series="DS", model="40B", value=1.0)
        result.add_row(series="MLP", model="70B", value=3.0)
        result.add_row(model="all", value=0.0)
        result.add_note("toy scale")
        payload = trajectory_payload(result, median_speedup=2.0)
        assert payload["experiment"] == "fig08"
        assert payload["description"] == "update throughput"
        assert payload["series"] == {
            "MLP": [{"model": "40B", "value": 2.0}, {"model": "70B", "value": 3.0}],
            "DS": [{"model": "40B", "value": 1.0}],
            "rows": [{"model": "all", "value": 0.0}],
        }
        assert payload["notes"] == ["toy scale"]
        assert payload["median_speedup"] == 2.0


class TestExperiments:
    def test_fig4_without_workdir_leaves_no_temp_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = experiments.fig4_tier_bandwidth(concurrency_levels=(1,), block_bytes=1 << 12)
        assert result.row_for(tier="nvme", processes=1)["read_gbps"] > 0
        assert list(tmp_path.iterdir()) == []
