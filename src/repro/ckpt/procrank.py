"""Real-process rank harness for the checkpoint crash matrix.

Every other test of the coordinated checkpoint protocol drives *threaded*
in-process ranks; this module spawns real OS processes — one per rank,
``python -m repro.ckpt.procrank --spec … --rank N`` — all training against
one shared checkpoint directory, exactly like data-parallel workers on one
node.  The driver can arm any worker, purely through its environment
(:mod:`repro.ckpt.faults`), to ``SIGKILL`` itself at an exact protocol
phase: mid-drain, pre-publish, post-publish, mid-promote (holding
``GLOBAL.lock``!) or mid-GC.  No cleanup handler runs — what lands on disk
is what a node loss leaves behind.  A resume wave of fresh processes (any
world size, same or different) must then restart every rank from one
consistent ``GLOBAL-<v>`` cut, bitwise-equal to an uninterrupted run.

The workload is deliberately deterministic and world-size-invariant: the
full global parameter/gradient vectors are derived from the spec's seed and
each rank trains its :class:`ShardLayout` slice.  Because the CPU Adam
update is elementwise, the gathered FP16/FP32 state after iteration *k* is
bitwise-identical for every world size — :func:`reference_state` computes
it once with a single in-process rank and serves as the oracle for both
crash-restart and elastic-restart assertions.

Worker protocol details the driver relies on:

* each worker writes ``result-rank<r>.npz`` (its FP16 params, gathered FP32
  master state, and global interval) on a clean exit — a killed worker
  leaves none;
* a resuming worker restores, then waits at a file barrier
  (``restored-rank<r>.flag``) until *every* rank of the wave restored —
  without it, a fast rank's first new drain could race a slow peer's
  torn-manifest discard;
* ``--hold-drain-lease`` mode publishes a drain-intent lease and parks until
  told to release — the GC-window regression test uses it as a foreign rank
  frozen mid-drain.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.coordinator import LEASE_GLOB, LOCK_NAME, CheckpointCoordinator
from repro.ckpt.faults import FAULT_ENV
from repro.core.config import MLPOffloadConfig, StripeConfig, TierConfig
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

#: Phases where only the armed victim dies (the fault fires in its drain).
DRAIN_PHASES = ("mid-drain", "pre-publish", "post-publish")
#: Phases reached only by the election winner — the driver arms *every*
#: rank, because any of them may win ``GLOBAL.lock`` (and after the winner
#: dies, a peer's promotion retry wins and dies too).
PROMOTER_PHASES = ("mid-promote", "mid-gc")

_BARRIER_TIMEOUT = 60.0


@dataclass
class WorldSpec:
    """One deterministic multi-process training workload."""

    workdir: str
    world_size: int = 3
    total_params: int = 6_000
    subgroup_size: int = 500
    iterations: int = 3
    seed: int = 1234
    checkpoint_retention: int = 2
    checkpoint_codec: str = MLPOffloadConfig.checkpoint_codec

    def to_json(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2))

    @classmethod
    def from_json(cls, path: Path) -> "WorldSpec":
        return cls(**json.loads(path.read_text()))

    @property
    def base(self) -> Path:
        return Path(self.workdir)


def make_config(spec: WorldSpec, world_size: Optional[int] = None) -> MLPOffloadConfig:
    """The shared storage/checkpoint configuration of the job."""
    base = spec.base
    for tier in ("nvme", "pfs"):
        (base / tier).mkdir(parents=True, exist_ok=True)
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(base / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(base / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=spec.subgroup_size,
        host_cache_bytes=2 * spec.subgroup_size * 12,
        stripe=StripeConfig(threshold_bytes=float(spec.subgroup_size * 2)),
        checkpoint_dir=str(base / "ckpt"),
        checkpoint_coordination=True,
        checkpoint_world_size=world_size or spec.world_size,
        checkpoint_retention=spec.checkpoint_retention,
        checkpoint_codec=spec.checkpoint_codec,
        adam=AdamConfig(lr=1e-3),
    )


def global_init(spec: WorldSpec) -> np.ndarray:
    """The full FP32 initial parameter vector (identical in every process)."""
    rng = np.random.default_rng(spec.seed)
    return rng.standard_normal(spec.total_params).astype(np.float32)


def global_grad(spec: WorldSpec, iteration: int) -> np.ndarray:
    """The full FP32 gradient vector of one iteration."""
    rng = np.random.default_rng(spec.seed + 1 + iteration)
    return (rng.standard_normal(spec.total_params) * 0.1).astype(np.float32)


def reference_state(
    spec: WorldSpec, iterations: Optional[int] = None, *, workdir: Optional[Path] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The uninterrupted trajectory's ``(fp16, fp32 master)`` global state.

    Runs a single in-process rank over the full parameter space with no
    checkpointing; the elementwise Adam update makes the result bitwise-equal
    to the gathered state of *any* world size after the same iterations.
    """
    from repro.aio.locks import TierLockManager
    from repro.core.engine import MLPOffloadEngine

    base = Path(workdir) if workdir is not None else spec.base / "reference"
    for tier in ("nvme", "pfs"):
        (base / tier).mkdir(parents=True, exist_ok=True)
    config = MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(base / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(base / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=spec.subgroup_size,
        host_cache_bytes=2 * spec.subgroup_size * 12,
        stripe=StripeConfig(threshold_bytes=float(spec.subgroup_size * 2)),
        adam=AdamConfig(lr=1e-3),
    )
    layout = build_shard_layout(
        spec.total_params, num_ranks=1, subgroup_size=spec.subgroup_size
    )
    engine = MLPOffloadEngine(config, layout, rank=0, lock_manager=TierLockManager())
    try:
        init = global_init(spec)
        engine.initialize(init.copy())
        fp16 = init.astype(np.float16)
        views = flat_views(None, layout, 0)
        for it in range(iterations if iterations is not None else spec.iterations):
            grad = global_grad(spec, it)
            for index, view in views.items():
                engine.on_backward_gradient(index, grad[view].astype(np.float16))
            engine.on_microbatch_complete()
            engine.run_update(fp16)
        return fp16.copy(), engine.fetch_master_params()
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Worker side (runs inside the spawned process)
# ---------------------------------------------------------------------------


def _result_path(spec: WorldSpec, rank: int) -> Path:
    return spec.base / f"result-rank{rank}.npz"


def _barrier_flag(spec: WorldSpec, rank: int) -> Path:
    return spec.base / f"restored-rank{rank}.flag"


def _restore_barrier(spec: WorldSpec, rank: int, world_size: int) -> None:
    """Wait until every rank of the resume wave finished restoring.

    A rank that starts training immediately after its own restore would
    publish a new prepared manifest beyond the newest global version — a
    slow peer still inside ``discard_torn`` could legally delete it as torn
    debris.  Real launchers have a collective barrier here; files stand in.
    """
    _barrier_flag(spec, rank).write_text(str(os.getpid()))
    deadline = time.monotonic() + _BARRIER_TIMEOUT
    while time.monotonic() < deadline:
        if all(_barrier_flag(spec, r).exists() for r in range(world_size)):
            return
        time.sleep(0.005)
    raise TimeoutError(f"rank {rank}: restore barrier timed out")


def run_worker(spec: WorldSpec, rank: int, world_size: int, *, resume: bool) -> None:
    """One rank's training loop: step, checkpoint every iteration, exit."""
    from repro.aio.locks import TierLockManager
    from repro.core.engine import MLPOffloadEngine

    config = make_config(spec, world_size)
    layout = build_shard_layout(
        spec.total_params, num_ranks=world_size, subgroup_size=spec.subgroup_size
    )
    engine = MLPOffloadEngine(config, layout, rank=rank, lock_manager=TierLockManager())
    start, stop = layout.rank_intervals[rank]
    views = flat_views(None, layout, rank)
    try:
        if resume:
            restored = engine.restore_checkpoint()
            fp16 = restored.fp16_params
            start_iter = int(restored.iteration)
            _restore_barrier(spec, rank, world_size)
        else:
            init = global_init(spec)[start:stop]
            engine.initialize(init.copy())
            fp16 = init.astype(np.float16)
            start_iter = 0
        for it in range(start_iter, spec.iterations):
            grad = global_grad(spec, it)[start:stop]
            for index, view in views.items():
                engine.on_backward_gradient(index, grad[view].astype(np.float16))
            engine.on_microbatch_complete()
            engine.run_update(fp16)
            engine.save_checkpoint(fp16, wait=True)
        engine.checkpoint_wait()
        master = engine.fetch_master_params()
        np.savez(
            _result_path(spec, rank),
            fp16=fp16,
            master=master,
            interval=np.array([start, stop], dtype=np.int64),
            iterations=np.int64(spec.iterations),
        )
    finally:
        engine.close()


def hold_drain_lease(spec: WorldSpec, rank: int, world_size: int) -> None:
    """Publish a drain-intent lease and park until the driver releases it.

    Models a foreign-process rank frozen *inside* its drain, right after the
    content-addressed reuse check — the window the leases exist to protect.
    """
    config = make_config(spec, world_size)
    coordinator = CheckpointCoordinator(
        config, workers=config.checkpoint_workers(world_size)
    )
    worker = f"rank{rank}"
    coordinator.drain_begin(worker)
    try:
        (spec.base / "lease-held.flag").write_text(str(os.getpid()))
        release = spec.base / "lease-release.flag"
        deadline = time.monotonic() + _BARRIER_TIMEOUT
        while time.monotonic() < deadline and not release.exists():
            time.sleep(0.005)
    finally:
        coordinator.drain_end(worker)


# ---------------------------------------------------------------------------
# Driver side (runs in the test / bench process)
# ---------------------------------------------------------------------------


def _worker_env(arm: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    env.pop(FAULT_ENV, None)
    if arm:
        env[FAULT_ENV] = arm
    return env


def spawn_worker(
    spec: WorldSpec,
    rank: int,
    world_size: int,
    *,
    resume: bool = False,
    arm: Optional[str] = None,
    spec_path: Optional[Path] = None,
) -> subprocess.Popen:
    """Launch one rank as a real OS process; ``arm`` is a fault spec."""
    if spec_path is None:
        spec.base.mkdir(parents=True, exist_ok=True)
        spec_path = spec.base / "spec.json"
        if not spec_path.exists():
            spec.to_json(spec_path)
    cmd = [
        sys.executable,
        "-m",
        "repro.ckpt.procrank",
        "--spec",
        str(spec_path),
        "--rank",
        str(rank),
        "--world-size",
        str(world_size),
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(cmd, env=_worker_env(arm))


def run_world(
    spec: WorldSpec,
    world_size: int,
    *,
    resume: bool = False,
    arm_by_rank: Optional[Dict[int, str]] = None,
    timeout: float = 120.0,
) -> List[int]:
    """Run one wave of worker processes to completion; returns exit codes.

    A ``-signal.SIGKILL`` code is an armed victim dying on schedule; the
    caller decides which codes a scenario permits.
    """
    if resume:
        for rank in range(world_size):
            _barrier_flag(spec, rank).unlink(missing_ok=True)
    procs = [
        spawn_worker(
            spec,
            rank,
            world_size,
            resume=resume,
            arm=(arm_by_rank or {}).get(rank),
        )
        for rank in range(world_size)
    ]
    codes = []
    deadline = time.monotonic() + timeout
    for proc in procs:
        remaining = max(1.0, deadline - time.monotonic())
        try:
            codes.append(proc.wait(timeout=remaining))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    return codes


def arm_plan(phase: str, victim: int, world_size: int, version: int) -> Dict[int, str]:
    """Which ranks to arm so that ``phase`` kills a real process at ``version``.

    Drain-side phases fire inside the victim's own drain.  Promoter phases
    fire only in whichever rank wins the election — unknowable in advance —
    so every rank is armed; the scenario then kills the *actual* elected
    promoter (and any peer whose promotion retry wins next).
    """
    spec = f"{phase}@{version}"
    if phase in PROMOTER_PHASES:
        return {rank: spec for rank in range(world_size)}
    return {victim: spec}


def run_crash_scenario(
    spec: WorldSpec,
    *,
    phase: str,
    victim: int,
    version: int,
    resume_world_size: Optional[int] = None,
) -> Dict[str, object]:
    """One crash-matrix cell: train, kill at a phase, resume, collect.

    Returns the gathered post-resume state plus the victim wave's exit
    codes.  The resume wave is never armed.
    """
    initial_codes = run_world(
        spec,
        spec.world_size,
        arm_by_rank=arm_plan(phase, victim, spec.world_size, version),
    )
    assert -signal.SIGKILL in initial_codes, (
        f"{phase}@{version}: no process died — fault never fired "
        f"(exit codes {initial_codes})"
    )
    resume_world = resume_world_size or spec.world_size
    t0 = time.perf_counter()
    resume_codes = run_world(spec, resume_world, resume=True)
    recovery_seconds = time.perf_counter() - t0
    assert resume_codes == [0] * resume_world, (
        f"{phase}@{version}: resume wave failed with exit codes {resume_codes}"
    )
    fp16, master = collect_results(spec, resume_world)
    return {
        "initial_codes": initial_codes,
        "resume_codes": resume_codes,
        "recovery_seconds": recovery_seconds,
        "fp16": fp16,
        "master": master,
    }


def collect_results(spec: WorldSpec, world_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gather every rank's result file into global FP16/FP32 vectors."""
    fp16 = np.zeros(spec.total_params, dtype=np.float16)
    master = np.zeros(spec.total_params, dtype=np.float32)
    covered = 0
    for rank in range(world_size):
        with np.load(_result_path(spec, rank)) as data:
            start, stop = (int(v) for v in data["interval"])
            fp16[start:stop] = data["fp16"]
            master[start:stop] = data["master"]
            covered += stop - start
    if covered != spec.total_params:
        raise AssertionError(
            f"rank results cover {covered} of {spec.total_params} parameters"
        )
    return fp16, master


def leaked_sentinels(spec: WorldSpec) -> List[str]:
    """Leases or election locks left behind after all processes exited."""
    ckpt = spec.base / "ckpt"
    if not ckpt.is_dir():
        return []
    leaks = [p.name for p in ckpt.glob(LEASE_GLOB)]
    lock = ckpt / LOCK_NAME
    if lock.exists():
        leaks.append(lock.name)
    return leaks


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="path to the WorldSpec json")
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--world-size", type=int, required=True)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument(
        "--hold-drain-lease",
        action="store_true",
        help="publish a drain lease and park until lease-release.flag appears",
    )
    args = parser.parse_args(argv)
    spec = WorldSpec.from_json(Path(args.spec))
    if args.hold_drain_lease:
        hold_drain_lease(spec, args.rank, args.world_size)
        return 0
    run_worker(spec, args.rank, args.world_size, resume=args.resume)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
