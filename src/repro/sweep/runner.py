"""Sweep execution: run every cell N times, resume by skipping completed cells.

The runner walks a :class:`~repro.sweep.matrix.ScenarioMatrix`'s (filtered,
optionally campaign-sampled) cells in matrix order and executes each one
``repeats`` times.  Each cell's results live in their own JSON record file
named by the cell's content address (``<sweep dir>/<matrix>/<cell key>.json``,
written atomically via tmp+rename), so an interrupted sweep resumes exactly
where it stopped: a record that already holds enough repeats is *skipped*
(``skip_completed_simulations`` in the snippet-3 runner), one with fewer
repeats is topped up, and a missing one runs from scratch.

Two executors, selected by the matrix ``kind``:

* ``sim`` — builds an :class:`~repro.sim.iteration.IterationModel` from the
  cell parameters and records the simulated figure metrics (deterministic:
  every repeat of a sim cell is bit-identical, which the golden tests rely
  on);
* ``engine`` — trains a tiny :class:`~repro.train.trainer.FunctionalTrainer`
  on real throttle-free file tiers in a fresh per-repeat directory, recording
  measured step wall times **and** bitwise correctness checks (final state
  equals the in-memory reference; a checkpoint restore round-trips).

Crash injection for the self-tests: the environment variable
``REPRO_SWEEP_FAULT`` set to ``after-cells:<n>`` makes the runner SIGKILL its
own process right after the *n*-th cell record of this invocation lands —
no cleanup, exactly the mid-sweep interrupt the resume contract covers.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.sweep.matrix import Cell, Filter, ScenarioMatrix, campaign_sample, cell_key

#: Environment variable arming a self-SIGKILL between cell record writes.
FAULT_ENV = "REPRO_SWEEP_FAULT"


class SweepError(RuntimeError):
    """Raised for unrunnable cells and malformed sweep state."""


@dataclass
class CellRecord:
    """One cell's persisted results (parameters + per-repeat metrics)."""

    matrix: str
    key: str
    params: Dict[str, Any]
    repeats: List[Dict[str, Any]] = field(default_factory=list)
    elapsed_s: List[float] = field(default_factory=list)
    nonce: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "matrix": self.matrix,
            "key": self.key,
            "params": self.params,
            "repeats": self.repeats,
            "elapsed_s": self.elapsed_s,
            "nonce": self.nonce,
            "completed": True,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CellRecord":
        return cls(
            matrix=str(payload.get("matrix", "")),
            key=str(payload.get("key", "")),
            params=dict(payload.get("params", {})),
            repeats=list(payload.get("repeats", [])),
            elapsed_s=[float(v) for v in payload.get("elapsed_s", [])],
            nonce=str(payload.get("nonce", "")),
        )


@dataclass
class SweepReport:
    """What one runner invocation did: which cells ran, which were skipped."""

    matrix: str
    records: List[CellRecord]
    executed_cells: int
    skipped_cells: int
    repeats: int


def _fault_after_cells() -> Optional[int]:
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return None
    mode, _, count = spec.partition(":")
    if mode != "after-cells":
        return None
    try:
        return int(count)
    except ValueError:
        return None


class SweepRunner:
    """Executes one matrix's cells with N repeats and interrupt-safe resume."""

    def __init__(
        self,
        matrix: ScenarioMatrix,
        *,
        repeats: int,
        sweep_dir: "str | Path",
        seed: int = 0,
        include: Optional[Filter] = None,
        exclude: Optional[Filter] = None,
        campaign: Optional[int] = None,
        resume: bool = True,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if repeats < 1:
            raise SweepError("repeats must be >= 1")
        self.matrix = matrix
        self.repeats = repeats
        self.seed = seed
        self.resume = resume
        self.cells_dir = Path(sweep_dir) / matrix.name
        self._progress = progress or (lambda message: None)
        cells = matrix.cells(include=include, exclude=exclude)
        if not cells:
            raise SweepError(f"matrix {matrix.name!r}: filters selected no cells")
        if campaign is not None:
            cells = campaign_sample(cells, campaign, seed)
        self.cells: List[Cell] = cells
        #: Distinguishes this invocation's writes from a previous (possibly
        #: killed) run's — the resume tests assert skipped cells keep the old
        #: nonce, i.e. their record files were not rewritten.
        self.nonce = f"{os.getpid()}-{time.time_ns()}"

    # -- record persistence --------------------------------------------------

    def record_path(self, params: Cell) -> Path:
        return self.cells_dir / f"{cell_key(params)}.json"

    def _load_record(self, params: Cell) -> Optional[CellRecord]:
        path = self.record_path(params)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise SweepError(f"unreadable cell record {path}: {exc}") from None
        if not payload.get("completed"):
            return None  # torn write from a crashed run; redo the cell
        record = CellRecord.from_json(payload)
        if record.params != dict(params):
            raise SweepError(
                f"cell record {path} holds different parameters than its key "
                f"(hash collision or hand-edited file)"
            )
        return record

    def _write_record(self, record: CellRecord) -> None:
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        path = self.cells_dir / f"{record.key}.json"
        payload = json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=str(self.cells_dir), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- execution -----------------------------------------------------------

    def run(self) -> SweepReport:
        """Run (or resume) the sweep; returns every selected cell's record."""
        fault_after = _fault_after_cells()
        records: List[CellRecord] = []
        executed = skipped = written = 0
        for index, params in enumerate(self.cells):
            record = self._load_record(params) if self.resume else None
            if record is not None and len(record.repeats) >= self.repeats:
                skipped += 1
                records.append(record)
                self._progress(
                    f"[{index + 1}/{len(self.cells)}] skip {record.key} "
                    f"({len(record.repeats)} repeats on disk)"
                )
                continue
            if record is None:
                record = CellRecord(
                    matrix=self.matrix.name, key=cell_key(params), params=dict(params)
                )
            missing = self.repeats - len(record.repeats)
            self._progress(
                f"[{index + 1}/{len(self.cells)}] run {record.key} "
                f"({missing} repeat(s)): {_cell_label(self.matrix, params)}"
            )
            for repeat in range(len(record.repeats), self.repeats):
                start = time.perf_counter()
                metrics = run_cell(self.matrix, params, seed=self.seed, repeat=repeat)
                record.elapsed_s.append(time.perf_counter() - start)
                record.repeats.append(metrics)
            record.nonce = self.nonce
            self._write_record(record)
            executed += 1
            written += 1
            records.append(record)
            if fault_after is not None and written >= fault_after:
                # A mid-sweep interrupt for the resume tests: die between two
                # cells with no cleanup, like a preempted batch job.
                os.kill(os.getpid(), signal.SIGKILL)
        return SweepReport(
            matrix=self.matrix.name,
            records=records,
            executed_cells=executed,
            skipped_cells=skipped,
            repeats=self.repeats,
        )


def _cell_label(matrix: ScenarioMatrix, params: Cell) -> str:
    return ", ".join(f"{name}={params[name]}" for name in matrix.axis_names)


# ---------------------------------------------------------------------------
# Cell executors
# ---------------------------------------------------------------------------

def run_cell(
    matrix: ScenarioMatrix, params: Cell, *, seed: int = 0, repeat: int = 0
) -> Dict[str, Any]:
    """Execute one cell once and return its metrics dict."""
    if matrix.kind == "sim":
        return run_sim_cell(params)
    return run_engine_cell(params, seed=seed)


def _sim_knobs(params: Cell):
    from repro.sim.workload import EngineKnobs
    from repro.zero.variants import ABLATION_LADDER_MULTIPATH, ABLATION_LADDER_NVME

    variant_label = params.get("variant")
    if variant_label is not None:
        ladder = (
            ABLATION_LADDER_MULTIPATH
            if params.get("ladder") == "multipath"
            else ABLATION_LADDER_NVME
        )
        for variant in ladder:
            if variant.label == variant_label:
                return (
                    EngineKnobs(
                        multipath=variant.multipath,
                        cache_reorder=variant.cache_reorder,
                        delayed_grads=variant.delayed_grads,
                        tier_locks=variant.tier_locks,
                    ),
                    variant.label,
                )
        raise SweepError(f"unknown ablation variant {variant_label!r}")
    engine = params.get("engine")
    if engine == "DeepSpeed ZeRO-3":
        return EngineKnobs.zero3_baseline(), engine
    if engine == "MLP-Offload":
        return EngineKnobs.mlp_offload(), engine
    raise SweepError(f"cell names no engine or ablation variant: {params}")


def run_sim_cell(params: Cell) -> Dict[str, Any]:
    """Simulate one configuration and return the paper-figure metrics.

    The metric names are the columns :func:`repro.sweep.results.figure_result`
    tabulates, plus ``num_gpus`` (the job size the weak-scaling key column
    and the §4.4 cost comparison read).
    """
    from repro.sim.iteration import IterationModel, simulate_iteration
    from repro.tiers.spec import testbed_by_name
    from repro.train.model_zoo import model_by_name
    from repro.train.parallelism import ParallelTopology

    node = testbed_by_name(str(params.get("testbed", "testbed-1")))
    knobs, label = _sim_knobs(params)
    topology = None
    config = params.get("config")
    if config is not None:
        model_name, _, nodes = str(config).partition("@")
        if not nodes:
            raise SweepError(f"bad weak-scaling config {config!r}; expected <model>@<nodes>")
        topology = ParallelTopology.weak_scaling(int(nodes), node.gpus_per_node)
    else:
        model_name = str(params["model"])
    model = model_by_name(model_name)

    micro_batch_size = 1
    accumulation = 1
    batch = params.get("batch_size")
    if batch is not None:
        micro_batch_size = int(params.get("micro_batch_size", 8))
        per_step = micro_batch_size * node.gpus_per_node
        if int(batch) % per_step != 0:
            raise SweepError(
                f"batch size {batch} is not a multiple of micro_batch x GPUs = {per_step}"
            )
        accumulation = int(batch) // per_step

    res = simulate_iteration(
        IterationModel(
            model=model,
            node=node,
            knobs=knobs,
            topology=topology,
            micro_batch_size=micro_batch_size,
            gradient_accumulation_steps=accumulation,
            label=label,
        )
    )
    return {
        "forward_s": res.forward_seconds,
        "backward_s": res.backward_seconds,
        "update_s": res.update_seconds,
        "iteration_s": res.iteration_seconds,
        "update_mparams_per_s": res.update_throughput_mparams,
        "io_gbps": res.effective_io_throughput_gbps,
        "cache_hit_rate": res.update.cache_hit_rate,
        "num_gpus": res.num_gpus,
    }


def run_engine_cell(params: Cell, *, seed: int = 0) -> Dict[str, Any]:
    """Train a tiny functional trainer under the cell's knobs; measure + verify.

    Every repeat gets a fresh scratch directory (tiers + checkpoints), runs
    ``iterations`` full training iterations, and reports:

    * ``mean_step_s`` / ``total_s`` — measured wall time per iteration;
    * ``final_loss`` — the last iteration's mean loss;
    * ``matches_reference`` — FP16 working copy and FP32 masters bitwise
      equal to the in-memory reference trainer (the engine must not change
      the math, whatever the codec/coordination cell says);
    * ``restore_ok`` — a fresh engine restoring the last committed checkpoint
      resumes with a bitwise-identical working copy.
    """
    import numpy as np

    from repro.core.config import MLPOffloadConfig, TierConfig
    from repro.core.engine import MLPOffloadEngine
    from repro.train.adam import AdamConfig
    from repro.train.model_zoo import tiny_test_model
    from repro.train.sharding import build_shard_layout
    from repro.train.trainer import (
        FunctionalTrainer,
        InMemoryReferenceTrainer,
        TrainerConfig,
    )
    from repro.train.transformer import TransformerLM

    iterations = int(params.get("iterations", 2))
    subgroup = 20_000
    model_config = tiny_test_model(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=64, sequence_length=16
    )
    scratch = Path(tempfile.mkdtemp(prefix="repro-sweep-cell-"))
    try:
        for tier in ("nvme", "pfs"):
            (scratch / tier).mkdir()
        config = MLPOffloadConfig(
            tiers=(
                TierConfig("nvme", str(scratch / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
                TierConfig("pfs", str(scratch / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
            ),
            subgroup_size=subgroup,
            host_cache_bytes=2 * subgroup * 12,
            adam=AdamConfig(lr=1e-3),
            checkpoint_dir=str(scratch / "ckpt"),
            checkpoint_codec=str(params.get("codec", MLPOffloadConfig.checkpoint_codec)),
            checkpoint_coordination=bool(params.get("coordination", False)),
            checkpoint_retention=iterations,
        )
        model = TransformerLM(model_config)
        layout = build_shard_layout(model.num_params, num_ranks=1, subgroup_size=subgroup)
        trainer_config = TrainerConfig(seed=seed)
        engine = MLPOffloadEngine(config, layout, rank=0)
        step_seconds: List[float] = []
        try:
            trainer = FunctionalTrainer(model_config, engine, trainer_config=trainer_config)
            for _ in range(iterations):
                start = time.perf_counter()
                report = trainer.train_iteration()
                step_seconds.append(time.perf_counter() - start)
            engine.checkpoint_wait()
            final_loss = report.mean_loss
            working = trainer.working_params().copy()
            masters = trainer.master_params().copy()
        finally:
            engine.close()

        reference = InMemoryReferenceTrainer(
            model_config,
            subgroup_size=subgroup,
            adam=config.adam,
            trainer_config=trainer_config,
        )
        reference.train(iterations)
        matches_reference = bool(
            np.array_equal(working, reference.working_params())
            and np.array_equal(masters, reference.master_params())
        )

        fresh = MLPOffloadEngine(config, layout, rank=0)
        try:
            resumed = FunctionalTrainer(
                model_config, fresh, trainer_config=trainer_config, resume=True
            )
            restore_ok = bool(
                np.array_equal(resumed.working_params(), working)
                and np.array_equal(fresh.fetch_master_params(), masters)
            )
        finally:
            fresh.close()

        return {
            "mean_step_s": float(np.mean(step_seconds)),
            "total_s": float(np.sum(step_seconds)),
            "final_loss": float(final_loss),
            "matches_reference": matches_reference,
            "restore_ok": restore_ok,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
