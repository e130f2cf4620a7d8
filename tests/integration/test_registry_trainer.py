"""Trainer ↔ registry integration: push per commit, cold remote restore.

The acceptance path of the registry service, end to end through the real
training stack: a :class:`FunctionalTrainer` whose engine is configured with
``checkpoint_registry_url`` pushes every committed version as a side effect
of its ordinary checkpoint hook; a second trainer booted with ``resume=True``
and an **empty** local checkpoint directory pulls the checkpoint over HTTP
and continues bitwise-identically; a second job sharing its state uploads
almost nothing thanks to cross-job dedup; and a registry outage never fails
training.
"""

from __future__ import annotations

import numpy as np

from repro.ckpt import CheckpointReader
from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.registry import RegistryServerThread
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout
from repro.train.trainer import FunctionalTrainer, TrainerConfig
from repro.train.transformer import TransformerLM

SUBGROUP = 2_000


def make_config(base, url, *, tenant="default", **overrides) -> MLPOffloadConfig:
    (base / "nvme").mkdir(parents=True, exist_ok=True)
    (base / "pfs").mkdir(parents=True, exist_ok=True)
    defaults = dict(
        subgroup_size=SUBGROUP,
        host_cache_bytes=2 * SUBGROUP * 12,
        stripe=StripeConfig(threshold_bytes=float(SUBGROUP * 2)),  # striped blobs travel too
        checkpoint_dir=str(base / "ckpt"),
        checkpoint_registry_url=url,
        checkpoint_registry_tenant=tenant,
        adam=AdamConfig(lr=1e-3),
    )
    defaults.update(overrides)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(base / "nvme")),
            TierConfig("pfs", str(base / "pfs")),
        ),
        **defaults,
    )


def build_trainer(tiny_model, config, **kwargs):
    model = TransformerLM(tiny_model)
    layout = build_shard_layout(model.num_params, num_ranks=1, subgroup_size=SUBGROUP)
    engine = MLPOffloadEngine(config, layout, rank=0)
    trainer = FunctionalTrainer(
        tiny_model, engine, trainer_config=TrainerConfig(micro_batch_size=2), **kwargs
    )
    return trainer, engine


def test_trainer_pushes_and_cold_restores_bitwise(tmp_path, tiny_model):
    # Pinned to the framed codec: a push uploads the stored frames, so this
    # is the path where encoding pays.
    framed = dict(checkpoint_codec="shuffle-deflate")
    with RegistryServerThread(tmp_path / "srv", scrub_interval=0.05) as srv:
        trainer, engine = build_trainer(
            tiny_model, make_config(tmp_path / "a", srv.url, tenant="job-a", **framed)
        )
        try:
            trainer.train(3)
            engine.checkpoint_wait()
            writer = engine.checkpointer
            assert writer.registry_pushes == 3
            assert writer.registry_push_failures == 0
            fp16 = trainer.working_params().copy()
            master = trainer.master_params().copy()
        finally:
            engine.close()

        # the pushing machine's own restore resolves from its local directory
        layout = build_shard_layout(
            TransformerLM(tiny_model).num_params, num_ranks=1, subgroup_size=SUBGROUP
        )
        local = MLPOffloadEngine(
            make_config(tmp_path / "a", srv.url, tenant="job-a", **framed), layout, rank=0
        )
        try:
            local_version = local.restore_checkpoint().version
        finally:
            local.close()

        # a brand-new machine: fresh tier dirs, EMPTY local checkpoint dir —
        # resume must pull the checkpoint from the registry over HTTP
        resumed, engine2 = build_trainer(
            tiny_model,
            make_config(tmp_path / "b", srv.url, tenant="job-a", **framed),
            resume=True,
        )
        try:
            assert resumed.last_restored is not None
            assert resumed.last_restored.iteration == 3
            # the cold remote restore resolves the same version as the local one
            assert resumed.last_restored.version == local_version
            assert np.array_equal(resumed.working_params(), fp16)
            assert np.array_equal(resumed.master_params(), master)
        finally:
            engine2.close()


def test_remote_resume_continues_trajectory_bitwise(tmp_path, tiny_model):
    """Reference: 5 uninterrupted iterations.  Subject: 3 iterations on one
    machine, remote resume on another, 2 more — same final state."""
    with RegistryServerThread(tmp_path / "srv", scrub_interval=0) as srv:
        ref_trainer, ref_engine = build_trainer(
            tiny_model, make_config(tmp_path / "ref", None)
        )
        try:
            ref_losses = [r.mean_loss for r in ref_trainer.train(5)]
            ref_fp16 = ref_trainer.working_params().copy()
            ref_master = ref_trainer.master_params().copy()
        finally:
            ref_engine.close()

        part_trainer, part_engine = build_trainer(
            tiny_model, make_config(tmp_path / "part", srv.url, tenant="subject")
        )
        try:
            part_trainer.train(3)
            part_engine.checkpoint_wait()
        finally:
            part_engine.close()

        resumed, engine = build_trainer(
            tiny_model,
            make_config(tmp_path / "elsewhere", srv.url, tenant="subject"),
            resume=True,
        )
        try:
            resumed_losses = [r.mean_loss for r in resumed.train(2)]
            assert resumed_losses == ref_losses[3:]
            assert np.array_equal(resumed.working_params(), ref_fp16)
            assert np.array_equal(resumed.master_params(), ref_master)
        finally:
            engine.close()


def test_second_job_uploads_under_ten_percent(tmp_path, tiny_model):
    """The dedup acceptance bound: a second job whose state matches the
    first's (same seed, different tenant) uploads <10% of its blob bytes —
    the registry vouches for every blob the first job already pushed.

    Whole-blob checkpoints (no striping): stripe extents follow the
    run-dependent tier placement, so only unstriped blobs are stable
    content-addressed units across jobs."""
    with RegistryServerThread(tmp_path / "srv", scrub_interval=0) as srv:
        uploaded = {}
        for job, tenant in (("a", "job-a"), ("b", "job-b")):
            trainer, engine = build_trainer(
                tiny_model,
                make_config(
                    tmp_path / job, srv.url, tenant=tenant, stripe=StripeConfig(threshold_bytes=1e9)
                ),
            )
            try:
                trainer.train(2)
                engine.checkpoint_wait()
                writer = engine.checkpointer
                assert writer.registry_push_failures == 0
                total = writer.registry_uploaded_bytes + writer.registry_skipped_bytes
                assert total > 0
                uploaded[tenant] = (writer.registry_uploaded_bytes, total)
            finally:
                engine.close()
        first_up, first_total = uploaded["job-a"]
        assert first_up == first_total, "first job has nothing to dedup against"
        second_up, second_total = uploaded["job-b"]
        assert second_up < 0.10 * second_total, (second_up, second_total)


def test_registry_outage_does_not_fail_training(tmp_path, tiny_model):
    """A dead registry is an availability problem: pushes fail, training and
    local checkpointing proceed untouched."""
    config = make_config(tmp_path / "a", "http://127.0.0.1:9")  # discard port
    trainer, engine = build_trainer(tiny_model, config)
    try:
        reports = trainer.train(2)
        engine.checkpoint_wait()
        assert [r.checkpoint_version for r in reports] == [1, 2]
        writer = engine.checkpointer
        assert writer.registry_pushes == 0
        assert writer.registry_push_failures == 2
    finally:
        engine.close()
    # the local checkpoints stand
    reader = CheckpointReader(make_config(tmp_path / "a", None), worker="rank0")
    assert reader.versions() == [1, 2]
