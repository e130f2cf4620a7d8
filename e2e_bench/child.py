"""One repetition of one workload, in a process of its own.

``python -m e2e_bench.child REQUEST.json`` builds the inputs from the seed,
sets the engine(s) up, discards the warm-up steps, times the steps, checks
the outputs bitwise against an in-memory reference and writes one result
JSON next to the request.  The parent (:mod:`e2e_bench.suite`) starts one
child at a time, so ``ru_maxrss`` is the workload's own.

The load generator is this process's main thread plus, on the two-rank
workload, one helper thread: at most ``nproc`` = 2 client threads.  All
workloads are closed-loop: a step starts when the previous one returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from repro.aio.locks import TierLockManager
from repro.aio.throttle import BandwidthThrottle
from repro.core.config import IOBackendConfig, MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamScratch, AdamState, adam_update
from repro.train.sharding import build_shard_layout, flat_views

from e2e_bench import layers, spec
from e2e_bench.spec import Workload
from e2e_bench.trace import Tracer


class Team:
    """Runs ``fn(rank)`` on every rank at once; rank 0 on the calling thread."""

    def __init__(self, ranks: int) -> None:
        self.ranks = ranks
        self._barrier = threading.Barrier(ranks)
        self._fn: Optional[Callable[[int], Any]] = None
        self._results: List[Any] = [None] * ranks
        self._errors: List[Optional[BaseException]] = [None] * ranks
        self._threads = [
            threading.Thread(target=self._serve, args=(rank,), name=f"rank{rank}", daemon=True)
            for rank in range(1, ranks)
        ]
        for thread in self._threads:
            thread.start()

    def _serve(self, rank: int) -> None:
        while True:
            self._barrier.wait()
            if self._fn is None:
                return
            self._call(rank)
            self._barrier.wait()

    def _call(self, rank: int) -> None:
        try:
            self._results[rank] = self._fn(rank)  # type: ignore[misc]
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._errors[rank] = exc

    def run(self, fn: Callable[[int], Any]) -> Tuple[float, List[Any]]:
        """Wall seconds from barrier release until every rank returned, and the results."""
        self._fn = fn
        self._errors = [None] * self.ranks
        if self.ranks > 1:
            self._barrier.wait()
        start = time.perf_counter()
        self._call(0)
        if self.ranks > 1:
            self._barrier.wait()
        wall = time.perf_counter() - start
        for error in self._errors:
            if error is not None:
                raise error
        return wall, list(self._results)

    def close(self) -> None:
        self._fn = None
        if self.ranks > 1:
            self._barrier.wait()
        for thread in self._threads:
            thread.join(timeout=10)


def make_inputs(workload: Workload, seed: int) -> List[Tuple[np.ndarray, List[np.ndarray]]]:
    """Per rank: initial FP32 parameters and the ring of FP16 gradient vectors."""
    inputs = []
    for rank in range(workload.ranks):
        rng = np.random.default_rng([seed, rank])
        n = workload.params_per_rank
        initial = rng.standard_normal(n, dtype=np.float32)
        grads = [
            (rng.standard_normal(n, dtype=np.float32) * np.float32(0.1)).astype(np.float16)
            for _ in range(spec.GRAD_RING)
        ]
        inputs.append((initial, grads))
    return inputs


def make_throttles(workload: Workload) -> Optional[Dict[str, Any]]:
    if not workload.throttled:
        return None
    return {
        name: BandwidthThrottle(
            read_bw,
            simulate=False,
            latency=latency * workload.latency_scale,
            duplex=True,
            write_bytes_per_second=write_bw,
        )
        for name, (read_bw, write_bw, latency) in spec.THROTTLED_TIERS.items()
    }


def make_config(workload: Workload, workdir: Path) -> Any:
    return MLPOffloadConfig(
        tiers=tuple(
            TierConfig(name, str(workdir / name), read_bw=read_bw, write_bw=write_bw)
            for name, (read_bw, write_bw) in workload.tier_bandwidths.items()
        ),
        subgroup_size=workload.subgroup_size,
        host_cache_bytes=float(workload.cached_subgroups * workload.subgroup_size * 12),
        io=IOBackendConfig(backend=workload.io_backend),
        stripe=StripeConfig(threshold_bytes=float(workload.stripe_threshold_bytes)),
        checkpoint_dir=str(workdir / "ckpt") if workload.checkpoint else None,
        checkpoint_interval=1,
    )


class Rig:
    """The engines of one set-up, with what they share."""

    def __init__(self, workload: Workload, workdir: Path, team: Team) -> None:
        self.workload = workload
        self.config = make_config(workload, workdir)
        self.layout = build_shard_layout(
            workload.total_params, workload.ranks, workload.subgroup_size
        )
        self.throttles = make_throttles(workload)
        self.lock_manager = TierLockManager()
        self.views = [flat_views(None, self.layout, rank) for rank in range(workload.ranks)]
        _, self.engines = team.run(
            lambda rank: MLPOffloadEngine(
                self.config,
                self.layout,
                rank,
                lock_manager=self.lock_manager,
                throttles=self.throttles,
            )
        )

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


def set_up(
    workload: Workload, workdir: Path, team: Team, inputs: Sequence[Tuple[np.ndarray, Any]]
) -> Tuple[float, Rig]:
    """Fresh directories -> engines constructed and initialized; timed as ``setup_s``.

    Every rank's stores are constructed before any rank writes (the barrier
    between the two phases), so co-located ranks never scan a directory a
    peer is flushing into.
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    rig = Rig(workload, workdir, team)
    team.run(lambda rank: rig.engines[rank].initialize(inputs[rank][0]))
    return time.perf_counter() - start, rig


def one_step(rig: Rig, rank: int, grad_fp16: np.ndarray, fp16: np.ndarray) -> Tuple[Any, float]:
    """One training step of one rank through the engine's public API.

    Returns the phase's ``UpdatePhaseStats`` and the seconds this rank spent
    in the step (the other rank may still be running).
    """
    start = time.perf_counter()
    engine = rig.engines[rank]
    for index, view in rig.views[rank].items():
        engine.on_backward_gradient(index, grad_fp16[view])
    engine.on_microbatch_complete()
    report = engine.run_update(fp16)
    if rig.workload.checkpoint:
        engine.maybe_checkpoint(fp16)
    return report.stats, time.perf_counter() - start


class Steps(NamedTuple):
    """What a batch of steps produced: per step, its (start, end) window and
    per rank the ``UpdatePhaseStats`` and the rank's own seconds."""

    windows: List[Tuple[float, float]]
    stats: List[List[Any]]
    rank_seconds: List[List[float]]

    @property
    def samples(self) -> List[float]:
        return [end - start for start, end in self.windows]

    def followed_by(self, later: "Steps") -> "Steps":
        return Steps(*(mine + theirs for mine, theirs in zip(self, later)))


class StepLoop:
    """Drives steps ``k = 0, 1, ...``; step ``k`` feeds gradient vector ``k % 4``."""

    def __init__(self, rig: Rig, team: Team, inputs: Sequence[Tuple[np.ndarray, Any]]) -> None:
        self.rig = rig
        self.team = team
        self.grads = [grads for _, grads in inputs]
        self.fp16 = [initial.astype(np.float16) for initial, _ in inputs]
        self.done = 0

    def run(
        self,
        *,
        steps: Optional[int] = None,
        seconds: Optional[float] = None,
        after_step: Optional[Callable[[], None]] = None,
    ) -> Steps:
        """Run ``steps`` steps, or steps until ``seconds`` have passed (at least 3).

        ``after_step`` runs between steps, outside the timed windows (the
        traced run snapshots its counters there).
        """
        out = Steps([], [], [])
        began = time.perf_counter()
        while True:
            if steps is not None and len(out.windows) >= steps:
                break
            if (
                steps is None
                and len(out.windows) >= 3
                and time.perf_counter() - began >= float(seconds or 0.0)
            ):
                break
            ring = self.done % spec.GRAD_RING
            start = time.perf_counter()
            wall, per_rank = self.team.run(
                lambda rank: one_step(self.rig, rank, self.grads[rank][ring], self.fp16[rank])
            )
            out.windows.append((start, start + wall))
            out.stats.append([stats for stats, _ in per_rank])
            out.rank_seconds.append([spent for _, spent in per_rank])
            self.done += 1
            if after_step is not None:
                after_step()
        return out


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over dtype, shape and bytes of the arrays: equal digests, equal bits."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(np.ascontiguousarray(array))
    return sha.hexdigest()


def reference_master(
    initial: np.ndarray, grads: Sequence[np.ndarray], views: Dict[int, slice], steps: int, adam: Any
) -> np.ndarray:
    """The FP32 master parameters after ``steps`` steps, computed in memory.

    Applies ``repro.train.adam.adam_update`` per subgroup to the same
    parameters and gradients, accumulating each FP16 gradient into a zeroed
    FP32 buffer exactly as the engine's accumulator does.  One subgroup at a
    time, so the reference never holds more than one subgroup's state.
    """
    expected = np.empty_like(initial)
    largest = max(view.stop - view.start for view in views.values())
    scratch = AdamScratch(largest)
    accumulated = np.empty(largest, dtype=np.float32)
    for view in views.values():
        state = AdamState.zeros(view.stop - view.start, init=initial[view])
        grad = accumulated[: view.stop - view.start]
        for step in range(steps):
            grad.fill(0.0)
            grad += grads[step % spec.GRAD_RING][view].astype(np.float32, copy=False)
            adam_update(state, grad, adam, scratch=scratch)
        expected[view] = state.params
    return expected


class Ops:
    """Operations attempted and failed (steps, commits, restores, checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    resolved = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and resolved.startswith(parts[1]) and len(parts[1]) > len(best):
            best, fstype = parts[1], parts[2]
    return fstype


def restore_cycle(workload: Workload, workdir: Path, team: Team) -> Dict[str, Any]:
    """Fresh engine -> restore_checkpoint() -> fetch_master_params(), timed.

    Returns the timings and a digest of what came back; the digest is
    compared with the reference's once that has been computed.
    """
    rig = Rig(workload, workdir, team)
    try:
        start = time.perf_counter()
        restored = rig.engines[0].restore_checkpoint()
        middle = time.perf_counter()
        master = rig.engines[0].fetch_master_params()
        end = time.perf_counter()
    finally:
        rig.close()
    return {
        "restore_s": end - start,
        "restore_call_s": middle - start,
        "first_fetch_s": end - middle,
        "linked_subgroups": float(restored.linked_subgroups),
        "lazy_subgroups": float(restored.lazy_subgroups),
        "digest": digest(master, restored.fp16_params),
    }


def machine_facts(rig: Rig, workdir: Path) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "filesystem": filesystem_of(workdir),
        "backend": {name: store.backend_name for name, store in rig.engines[0].tier.stores.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(request: Dict[str, Any], result: Dict[str, Any]) -> None:
    """Run the requested repetition, filling ``result`` as it goes."""
    workload = spec.workload_named(request["workload"], toy=request["toy"])
    traced = bool(request["trace"])
    steps, seconds = request.get("steps"), request.get("seconds")
    workdir = Path(request["workdir"])
    ops = Ops()
    result.update(
        workload=workload.name,
        seed=request["seed"],
        traced=traced,
        toy=request["toy"],
        pid=os.getpid(),
        argv=sys.argv,
        params_per_step=workload.total_params,
    )
    inputs = make_inputs(workload, request["seed"])
    team = Team(workload.ranks)
    rig: Optional[Rig] = None
    tracer = None
    try:
        # The steps run on the first engine this process builds, as a user's
        # would, and ``peak_rss_mb`` is read before the other set-ups of
        # ``setup_s``: with five set-ups in front, cached_half's ru_maxrss
        # read 520 MB instead of 306 MB.
        spent, rig = set_up(workload, workdir, team, inputs)
        setups = [spent]
        result["machine"] = machine_facts(rig, workdir)

        loop = StepLoop(rig, team, inputs)
        loop.run(steps=spec.WARMUP_STEPS)
        try:
            if not traced:
                plain = loop.run(steps=steps, seconds=seconds)
            else:
                # A third of the budget runs untraced, in the same process,
                # half before and half after the traced steps so that drift
                # within the process cancels: the baseline for
                # trace_overhead_share, and the only steps the traced run
                # takes end-to-end style numbers from.
                untraced = {
                    "steps": None if steps is None else max(3, steps // 4),
                    "seconds": None if seconds is None else seconds / 6,
                }
                plain = loop.run(**untraced)
                tracer = Tracer()
                tracer.install_globals()
                for engine in rig.engines:
                    tracer.install(engine)
                counters = layers.Counters(rig)
                traced_steps = loop.run(
                    steps=steps,
                    seconds=None if seconds is None else 2 * seconds / 3,
                    after_step=counters.snapshot,
                )
                tracer.uninstall()
                plain = plain.followed_by(loop.run(**untraced))
                result["traced_step_samples_s"] = traced_steps.samples
                result["striped_share"] = layers.striped_share(rig)
            if workload.checkpoint:
                for engine in rig.engines:
                    engine.checkpoint_wait()
                    # A drain that ran out of space skips its version and
                    # wait() still returns normally; the writer counts them.
                    skipped = engine.checkpointer.skipped_versions
                    ops.failures += [f"checkpoint commit skipped ({skipped} in all)"] * skipped
        except Exception as exc:
            ops.check(f"step {loop.done}: {type(exc).__name__}: {exc}", False)
            raise
        finally:
            # Every timed step is an operation; so is the commit each step
            # triggers, warm-up included (the writer's count includes those).
            ops.attempted += max(0, loop.done - spec.WARMUP_STEPS)
            if workload.checkpoint:
                ops.attempted += loop.done
        result["step_samples_s"] = plain.samples
        result["bytes_per_step"] = {
            "read": sum(s.fetch_bytes for per_rank in plain.stats for s in per_rank)
            / len(plain.stats),
            "write": sum(s.flush_bytes for per_rank in plain.stats for s in per_rank)
            / len(plain.stats),
        }

        masters = [engine.fetch_master_params() for engine in rig.engines]
        adam = rig.config.adam
        rig.close()
        rig = None
        if workload.checkpoint:
            result["restores"] = [
                restore_cycle(workload, workdir, team) for _ in range(spec.RESTORES)
            ]
        # The program's work ends here; what follows is the benchmark's.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setups) < spec.SETUP_ROUNDS:
            spent, extra = set_up(workload, workdir, team, inputs)
            extra.close()
            setups.append(spent)
        result["setup_samples_s"] = setups

        for rank, (initial, grads) in enumerate(inputs):
            expected = reference_master(initial, grads, loop.rig.views[rank], loop.done, adam)
            expected_fp16 = expected.astype(np.float16)
            ops.check(
                f"rank {rank} master parameters equal the reference bitwise",
                bitwise_equal(masters[rank], expected),
            )
            ops.check(
                f"rank {rank} FP16 working copy equals the reference bitwise",
                bitwise_equal(loop.fp16[rank], expected_fp16),
            )
            if workload.checkpoint:  # one rank, so this is its reference
                reference_digest = digest(expected, expected_fp16)
                for number, restore in enumerate(result["restores"]):
                    ops.check(
                        f"restore {number} reproduces the reference state bitwise",
                        restore["digest"] == reference_digest,
                    )

        if tracer is not None:
            result["layers"] = layers.layer_metrics(
                workload, tracer, counters, traced_steps, result
            )
            trace_path = Path(request["result"]).with_name(f"trace_{workload.name}.json")
            tracer.chrome_trace(trace_path, traced_steps.windows)
            result["chrome_trace"] = trace_path.name
    finally:
        if tracer is not None:
            tracer.uninstall()
        if rig is not None:
            rig.close()
        team.close()
        shutil.rmtree(workdir, ignore_errors=True)
        result["ops"] = {
            "attempted": ops.attempted,
            "failed": len(ops.failures),
            "failures": ops.failures,
        }


def main(argv: Sequence[str]) -> int:
    request = json.loads(Path(argv[0]).read_text())
    result: Dict[str, Any] = {"error": None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run(request, result)
        except Exception as exc:  # noqa: BLE001 - reported to the parent, which exits non-zero
            result["error"] = "".join(traceback.format_exception(exc))
    result["deprecation_warnings"] = [
        str(w.message) for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    Path(request["result"]).write_text(json.dumps(result))
    failed = result.get("ops", {}).get("failed", 1)
    return 0 if result["error"] is None and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
