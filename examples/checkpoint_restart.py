#!/usr/bin/env python
"""Checkpoint/restart: survive a crash without losing a bit of training state.

This example trains a tiny transformer through the MLP-Offload engine with
asynchronous checkpointing enabled, "crashes" after a few iterations,
restores the latest committed version into a brand-new engine, finishes the
run — and verifies the result is bitwise identical to a run that never
crashed.

Because the authoritative FP32 optimizer state already lives on the storage
tiers, each checkpoint costs little more than its manifest: tier-resident
subgroup blobs are referenced by hard link (zero bytes copied), and only the
dirty host-cached residue plus the FP16 working copy are staged and drained
concurrently with the next iteration.

Run with::

    python examples/checkpoint_restart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.ckpt import CheckpointReader
from repro.core.config import MLPOffloadConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.model_zoo import tiny_test_model
from repro.train.sharding import build_shard_layout
from repro.train.trainer import FunctionalTrainer, TrainerConfig
from repro.train.transformer import TransformerLM
from repro.util.bytesize import format_bytes

SUBGROUP_SIZE = 20_000
TOTAL_ITERATIONS = 5
CRASH_AFTER = 3


def build_engine(workdir: Path, model_params: int, *, checkpointing: bool) -> MLPOffloadEngine:
    config = MLPOffloadConfig(
        tiers=(
            TierConfig(name="nvme", path=str(workdir / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig(name="pfs", path=str(workdir / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP_SIZE,
        host_cache_bytes=2 * SUBGROUP_SIZE * 12,  # two subgroups of dirty residue
        checkpoint_dir=str(workdir / "ckpt") if checkpointing else None,
        checkpoint_interval=1,
        checkpoint_retention=3,
        # Staged blobs are byte-shuffled + block-compressed as they drain
        # (the default "raw" stores them plain, which costs less drain CPU);
        # restore streams: hard links + lazy residue.
        checkpoint_codec="shuffle-deflate",
        adam=AdamConfig(lr=1e-3),
    )
    layout = build_shard_layout(model_params, num_ranks=1, subgroup_size=SUBGROUP_SIZE)
    return MLPOffloadEngine(config, layout, rank=0)


def main() -> None:
    model_config = tiny_test_model(
        num_layers=2, hidden_dim=64, num_heads=4, vocab_size=256, sequence_length=32
    )
    model_params = TransformerLM(model_config).num_params
    trainer_config = TrainerConfig(micro_batch_size=2)

    # Reference: the same run without any crash (and without checkpointing).
    ref_dir = Path(tempfile.mkdtemp(prefix="mlp-offload-ckpt-ref-"))
    ref_engine = build_engine(ref_dir, model_params, checkpointing=False)
    ref_trainer = FunctionalTrainer(model_config, ref_engine, trainer_config=trainer_config)
    ref_losses = [r.mean_loss for r in ref_trainer.train(TOTAL_ITERATIONS)]
    ref_master = ref_trainer.master_params()
    ref_engine.close()

    workdir = Path(tempfile.mkdtemp(prefix="mlp-offload-ckpt-"))
    print(f"offload tiers + checkpoints under {workdir}")
    print(f"model: {model_params:,} parameters\n")

    # --- phase 1: train with checkpointing, then "crash" -------------------
    engine = build_engine(workdir, model_params, checkpointing=True)
    trainer = FunctionalTrainer(model_config, engine, trainer_config=trainer_config)
    for report in trainer.train(CRASH_AFTER):
        print(
            f"iter {report.iteration}: loss={report.mean_loss:.3f} "
            f"checkpoint=v{report.checkpoint_version}"
        )
    engine.checkpoint_wait()
    writer = engine.checkpointer
    ratio = writer.staged_bytes / max(1, writer.staged_stored_bytes)
    print(
        f"\ncheckpoint accounting after {CRASH_AFTER} versions: "
        f"{writer.linked_blobs} blobs hard-linked ({format_bytes(writer.linked_bytes)} "
        f"referenced without copying), {writer.staged_blobs} staged "
        f"({format_bytes(writer.staged_bytes)} raw -> "
        f"{format_bytes(writer.staged_stored_bytes)} on store, "
        f"{ratio:.2f}x compression via {writer.codec_name}), "
        f"{writer.reused_blobs} reused"
    )
    engine.close()
    print("simulated crash: engine abandoned mid-job\n")

    # --- phase 2: restore into a fresh engine and finish --------------------
    engine = build_engine(workdir, model_params, checkpointing=True)
    reader = CheckpointReader(engine.config, worker="rank0")
    print(f"committed versions on disk: {reader.versions()}")
    trainer = FunctionalTrainer(
        model_config, engine, trainer_config=trainer_config, resume=True
    )
    print(f"resumed from iteration {engine.update_count}")
    resumed_losses = [r.mean_loss for r in trainer.train(TOTAL_ITERATIONS - CRASH_AFTER)]
    for offset, loss in enumerate(resumed_losses):
        print(f"iter {CRASH_AFTER + offset}: loss={loss:.3f} (resumed)")

    # --- verification -------------------------------------------------------
    identical = bool(np.array_equal(ref_master, trainer.master_params())) and (
        resumed_losses == ref_losses[CRASH_AFTER:]
    )
    print(
        f"\nresumed trajectory bitwise-identical to the uninterrupted run: {identical}"
    )
    engine.close()
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
