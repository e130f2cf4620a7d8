"""Functional training loop wiring the NumPy transformer to an offloading engine.

The trainer reproduces the phase structure of mixed-precision ZeRO-3
training on one worker:

1. **forward** — run the FP16 working copy through the functional
   transformer on a micro-batch;
2. **backward** — compute gradients, slice them into subgroups, hand each
   FP16 subgroup gradient to the engine's backward hook (which either keeps
   it on the host or up-converts and flushes it, depending on the engine);
3. **update** — invoke the engine's update phase, which fetches each
   subgroup's optimizer state from the virtual tier, runs the CPU Adam and
   pushes refreshed FP16 parameters back into the working copy.

It exists for correctness: the end-to-end tests train the same tiny model
with the MLP-Offload engine, with the ZeRO-3 baseline engine and with the
in-memory reference below, and require identical parameters.  Timing figures
at paper scale come from :mod:`repro.sim`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from typing import TYPE_CHECKING

from repro.train.adam import AdamConfig, AdamState, adam_update
from repro.train.data import SyntheticTokenDataset
from repro.train.gradients import GradientAccumulator
from repro.train.model_zoo import ModelConfig
from repro.train.sharding import ShardLayout, build_shard_layout, flat_views
from repro.train.transformer import TransformerLM

if TYPE_CHECKING:  # pragma: no cover - import is for type checkers only
    from repro.core.engine import OffloadEngineBase, UpdateReport


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs of the functional training loop."""

    micro_batch_size: int = 1
    gradient_accumulation_steps: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.micro_batch_size < 1:
            raise ValueError("micro_batch_size must be >= 1")
        if self.gradient_accumulation_steps < 1:
            raise ValueError("gradient_accumulation_steps must be >= 1")


@dataclass
class IterationReport:
    """Phase breakdown and losses of one training iteration."""

    iteration: int
    losses: List[float]
    forward_seconds: float
    backward_seconds: float
    update_report: UpdateReport
    #: Version committed (or started) by this iteration's checkpoint hook,
    #: ``None`` when checkpointing is off or the interval skipped it.
    checkpoint_version: Optional[int] = None

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses)) if self.losses else float("nan")


class FunctionalTrainer:
    """Drives one rank's training through an offloading engine."""

    def __init__(
        self,
        model_config: ModelConfig,
        engine: OffloadEngineBase,
        *,
        trainer_config: Optional[TrainerConfig] = None,
        dataset: Optional[SyntheticTokenDataset] = None,
        resume: bool = False,
        checkpoint_version: Optional[int] = None,
    ) -> None:
        self.model_config = model_config
        self.config = trainer_config if trainer_config is not None else TrainerConfig()
        self.model = TransformerLM(model_config)
        self.engine = engine
        if engine.layout.num_ranks != 1:
            raise ValueError("the functional trainer drives exactly one rank")
        if engine.layout.total_params != self.model.num_params:
            raise ValueError(
                f"shard layout covers {engine.layout.total_params} parameters but the model has "
                f"{self.model.num_params}"
            )
        self.dataset = dataset if dataset is not None else SyntheticTokenDataset(
            vocab_size=model_config.vocab_size,
            sequence_length=model_config.sequence_length,
            num_records=4096,
            seed=self.config.seed,
        )
        self._views = flat_views(None, engine.layout, rank=0)
        #: The checkpoint a ``resume`` construction restored from (``None``
        #: for a fresh start).  With ``checkpoint_coordination`` on its
        #: ``global_version`` is the job-wide cut the engine resolved — never
        #: a torn per-rank version.
        self.last_restored = None
        if resume or checkpoint_version is not None:
            # Restart path: rebuild the engine (and this trainer's working
            # copy and dataset position) from a committed checkpoint, so the
            # resumed trajectory continues bit-for-bit where the snapshot
            # was taken.  Under global coordination the engine resolves the
            # newest globally committed version and discards torn-commit
            # leftovers before reading.
            restored = engine.restore_checkpoint(checkpoint_version)
            self.last_restored = restored
            self.params_fp16 = restored.fp16_params
            self._step = int(restored.user_data.get("trainer_step", 0))
        else:
            # FP16 working copy of the full (single-rank) parameter vector.
            master = self.model.init_params(seed=self.config.seed)
            self.params_fp16 = master.astype(np.float16)
            engine.initialize(master)
            self._step = 0

    # -- one iteration -------------------------------------------------------

    def train_iteration(self) -> IterationReport:
        """Run one full iteration: accumulation micro-steps then one update phase."""
        losses: List[float] = []
        forward_seconds = 0.0
        backward_seconds = 0.0
        for _micro in range(self.config.gradient_accumulation_steps):
            batch = self.dataset.batch(self._step, self.config.micro_batch_size)
            self._step += 1

            start = time.perf_counter()
            loss, cache = self.model.forward(self.params_fp16, batch.tokens, batch.targets)
            forward_seconds += time.perf_counter() - start
            losses.append(loss)

            start = time.perf_counter()
            grads = self.model.backward(cache)
            for index, view in self._views.items():
                grad_fp16 = grads[view].astype(np.float16)
                backward_seconds += self.engine.on_backward_gradient(index, grad_fp16)
            self.engine.on_microbatch_complete()
            backward_seconds += time.perf_counter() - start

        update_report = self.engine.run_update(self.params_fp16)
        # Iteration-boundary checkpoint hook: the snapshot is captured here
        # (links plus staged copies) and drains concurrently with the next
        # iteration's forward/backward/update.
        checkpoint_version = self.engine.maybe_checkpoint(
            self.params_fp16, user_data={"trainer_step": self._step}
        )
        report = IterationReport(
            iteration=self.engine.update_count - 1,
            losses=losses,
            forward_seconds=forward_seconds,
            backward_seconds=backward_seconds,
            update_report=update_report,
            checkpoint_version=checkpoint_version,
        )
        return report

    def train(self, num_iterations: int) -> List[IterationReport]:
        """Run ``num_iterations`` full iterations and return their reports."""
        if num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        return [self.train_iteration() for _ in range(num_iterations)]

    # -- state access ----------------------------------------------------------

    def master_params(self) -> np.ndarray:
        """The rank's FP32 master parameters gathered from the engine."""
        return self.engine.fetch_master_params()

    def working_params(self) -> np.ndarray:
        """The FP16 working copy (what the forward pass sees)."""
        return self.params_fp16


class InMemoryReferenceTrainer:
    """Offloading-free reference producing bit-identical results to the engines.

    Uses the same gradient accumulation, FP16 gradient casts and vectorized
    Adam as the offloading path, but keeps every subgroup's optimizer state
    in memory — the ground truth the equivalence tests compare against.
    """

    def __init__(
        self,
        model_config: ModelConfig,
        *,
        subgroup_size: int,
        adam: Optional[AdamConfig] = None,
        trainer_config: Optional[TrainerConfig] = None,
        dataset: Optional[SyntheticTokenDataset] = None,
    ) -> None:
        self.model_config = model_config
        self.config = trainer_config if trainer_config is not None else TrainerConfig()
        self.adam = adam if adam is not None else AdamConfig()
        self.model = TransformerLM(model_config)
        self.layout: ShardLayout = build_shard_layout(
            self.model.num_params, num_ranks=1, subgroup_size=subgroup_size
        )
        self._views = flat_views(None, self.layout, rank=0)
        self.dataset = dataset if dataset is not None else SyntheticTokenDataset(
            vocab_size=model_config.vocab_size,
            sequence_length=model_config.sequence_length,
            num_records=4096,
            seed=self.config.seed,
        )
        master = self.model.init_params(seed=self.config.seed)
        self.params_fp16 = master.astype(np.float16)
        self.accumulator = GradientAccumulator(self.layout, rank=0)
        self.states: Dict[int, AdamState] = {}
        for sg in self.layout.subgroups_for_rank(0):
            self.states[sg.index] = AdamState.zeros(
                sg.num_params, init=master[self._views[sg.index]]
            )
        self._step = 0

    def train_iteration(self) -> List[float]:
        """One iteration; returns the micro-batch losses."""
        losses: List[float] = []
        for _micro in range(self.config.gradient_accumulation_steps):
            batch = self.dataset.batch(self._step, self.config.micro_batch_size)
            self._step += 1
            loss, cache = self.model.forward(self.params_fp16, batch.tokens, batch.targets)
            losses.append(loss)
            grads = self.model.backward(cache)
            for index, view in self._views.items():
                self.accumulator.accumulate(index, grads[view].astype(np.float16))
            self.accumulator.mark_microbatch_done()
        for index, view in self._views.items():
            grad = self.accumulator.gradient_fp32(index)
            state = self.states[index]
            adam_update(state, grad, self.adam)
            np.copyto(self.params_fp16[view], state.params.astype(np.float16))
        self.accumulator.reset()
        return losses

    def train(self, num_iterations: int) -> List[List[float]]:
        return [self.train_iteration() for _ in range(num_iterations)]

    def master_params(self) -> np.ndarray:
        flat = np.zeros(self.layout.total_params, dtype=np.float32)
        for index, view in self._views.items():
            flat[view] = self.states[index].params
        return flat

    def working_params(self) -> np.ndarray:
        return self.params_fp16
