"""LLM training substrate (ZeRO-3 runtime stand-in).

This subpackage provides everything the offloading engines need from a
training runtime, without CUDA or DeepSpeed:

* :mod:`repro.train.model_zoo` — the paper's Table 2 model geometries and
  transformer parameter-count formulas;
* :mod:`repro.train.transformer` — a small, functional NumPy transformer with
  hand-written backward pass, used by end-to-end correctness tests;
* :mod:`repro.train.adam` — a vectorized CPU Adam operating per subgroup;
* :mod:`repro.train.sharding` — ZeRO-3 rank sharding and subgroup partitioning;
* :mod:`repro.train.gradients` — FP16 host gradient-accumulation buffers;
* :mod:`repro.train.parallelism` — data/tensor-parallel process topology;
* :mod:`repro.train.data` — synthetic token batches (OSCAR/LLaMA2-tokenizer stand-in);
* :mod:`repro.train.memory_estimator` — GPU/host memory footprint estimation;
* :mod:`repro.train.trainer` — a functional training loop that drives an
  offloading engine through forward/backward/update phases.
"""

from repro.train.model_zoo import (
    MODEL_ZOO,
    ModelConfig,
    model_by_name,
    smallest_offload_model,
)
from repro.train.adam import AdamConfig, AdamState, adam_update
from repro.train.sharding import ShardLayout, Subgroup, build_shard_layout
from repro.train.gradients import GradientAccumulator
from repro.train.parallelism import ParallelTopology
from repro.train.data import SyntheticTokenDataset, TrainingBatch
from repro.train.memory_estimator import MemoryBreakdown, estimate_memory
from repro.train.trainer import FunctionalTrainer, IterationReport, TrainerConfig

__all__ = [
    "ModelConfig",
    "MODEL_ZOO",
    "model_by_name",
    "smallest_offload_model",
    "AdamConfig",
    "AdamState",
    "adam_update",
    "Subgroup",
    "ShardLayout",
    "build_shard_layout",
    "GradientAccumulator",
    "ParallelTopology",
    "SyntheticTokenDataset",
    "TrainingBatch",
    "MemoryBreakdown",
    "estimate_memory",
    "FunctionalTrainer",
    "TrainerConfig",
    "IterationReport",
]
