"""End-to-end tests: tiny transformer trained through the offloading engines."""

import numpy as np
import pytest

from repro.core.config import MLPOffloadConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.model_zoo import tiny_test_model
from repro.train.sharding import build_shard_layout
from repro.train.trainer import FunctionalTrainer, InMemoryReferenceTrainer, TrainerConfig
from repro.train.transformer import TransformerLM
from repro.zero.zero3_engine import ZeRO3OffloadEngine

SUBGROUP_SIZE = 20_000


@pytest.fixture
def model_config():
    return tiny_test_model(num_layers=2, hidden_dim=32, num_heads=4, vocab_size=64, sequence_length=16)


@pytest.fixture
def offload_config(tier_dirs):
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(tier_dirs["nvme"]), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(tier_dirs["pfs"]), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP_SIZE,
        host_cache_bytes=2 * SUBGROUP_SIZE * 12,
        adam=AdamConfig(lr=1e-3),
    )


def _build_trainer(model_config, offload_config, engine_cls, **trainer_kwargs):
    model = TransformerLM(model_config)
    layout = build_shard_layout(model.num_params, num_ranks=1, subgroup_size=SUBGROUP_SIZE)
    engine = engine_cls(offload_config, layout, rank=0)
    trainer = FunctionalTrainer(
        model_config,
        engine,
        trainer_config=TrainerConfig(**trainer_kwargs),
    )
    return trainer, engine


class TestEndToEndTraining:
    def test_offloaded_training_matches_in_memory_reference(self, model_config, offload_config):
        trainer, engine = _build_trainer(model_config, offload_config, MLPOffloadEngine)
        reference = InMemoryReferenceTrainer(
            model_config, subgroup_size=SUBGROUP_SIZE, adam=offload_config.adam
        )
        try:
            reports = trainer.train(3)
            reference_losses = reference.train(3)
            np.testing.assert_array_equal(trainer.master_params(), reference.master_params())
            np.testing.assert_array_equal(trainer.working_params(), reference.working_params())
            # Losses of each iteration match as well.
            assert [r.mean_loss for r in reports] == pytest.approx(
                [float(np.mean(losses)) for losses in reference_losses]
            )
        finally:
            engine.close()

    def test_loss_decreases_over_training(self, model_config, offload_config):
        trainer, engine = _build_trainer(model_config, offload_config, MLPOffloadEngine)
        try:
            reports = trainer.train(6)
            losses = [r.mean_loss for r in reports]
            assert losses[-1] < losses[0]
            assert all(np.isfinite(losses))
        finally:
            engine.close()

    def test_baseline_engine_trains_equivalently(self, model_config, offload_config):
        ours_trainer, ours_engine = _build_trainer(model_config, offload_config, MLPOffloadEngine)
        base_trainer, base_engine = _build_trainer(model_config, offload_config, ZeRO3OffloadEngine)
        try:
            ours_losses = [r.mean_loss for r in ours_trainer.train(3)]
            base_losses = [r.mean_loss for r in base_trainer.train(3)]
            # Same data, same init: per-iteration losses agree to FP16 rounding.
            assert ours_losses == pytest.approx(base_losses, rel=1e-3)
            np.testing.assert_allclose(
                ours_trainer.master_params(), base_trainer.master_params(), rtol=1e-3, atol=1e-5
            )
        finally:
            ours_engine.close()
            base_engine.close()

    def test_gradient_accumulation_equals_reference_accumulation(self, model_config, offload_config):
        trainer, engine = _build_trainer(
            model_config, offload_config, MLPOffloadEngine, gradient_accumulation_steps=3
        )
        reference = InMemoryReferenceTrainer(
            model_config,
            subgroup_size=SUBGROUP_SIZE,
            adam=offload_config.adam,
            trainer_config=TrainerConfig(gradient_accumulation_steps=3),
        )
        try:
            report = trainer.train_iteration()
            reference.train_iteration()
            assert len(report.losses) == 3
            np.testing.assert_array_equal(trainer.master_params(), reference.master_params())
        finally:
            engine.close()

    def test_iteration_report_structure(self, model_config, offload_config):
        trainer, engine = _build_trainer(model_config, offload_config, MLPOffloadEngine)
        try:
            report = trainer.train_iteration()
            assert report.forward_seconds >= 0 and report.backward_seconds >= 0
            assert report.update_report.stats.subgroups_processed == len(engine.subgroups)
            assert report.update_report.stats.params_updated == engine.layout.total_params
        finally:
            engine.close()

    def test_layout_and_model_must_agree(self, model_config, offload_config):
        wrong_layout = build_shard_layout(1234, num_ranks=1, subgroup_size=100)
        engine = MLPOffloadEngine(offload_config, wrong_layout, rank=0)
        try:
            with pytest.raises(ValueError):
                FunctionalTrainer(model_config, engine)
        finally:
            engine.close()
