#!/usr/bin/env python
"""Kill one of two stripe paths mid-run and watch the engine degrade, not die.

Trains a small sharded model striped across an "nvme" and a "pfs" path,
then uses the deterministic fault injector to make pfs reject every write
partway through:

1. the in-flight flush fails over — the affected subgroups are rewritten
   onto the survivor and the path is quarantined after its first fatal
   error;
2. while quarantined, the stripe planner masks pfs out (new flushes go
   whole to nvme) and the path carries zero new engine bytes;
3. the periodic recovery probe keeps knocking; once the fault budget is
   exhausted the probe's write/read-back/verify round-trip succeeds and
   pfs is re-admitted — the next flush stripes across both paths again.

The whole episode is invisible to training: parameters and optimizer state
match a fault-free run bitwise.

Run with::

    python examples/degraded_path.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.bench.harness import format_table
from repro.core.config import IOBackendConfig, MLPOffloadConfig, StripeConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.tiers.faultstore import FaultPlan, FaultRule, arm_faults, clear_faults
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 24_000
SUBGROUP = 3_000
ITERATIONS = 10
#: pfs write ops 8.. (mid-initialize) fault; the budget then heals the path:
#: op 8 kills the in-flight flush, three failed probes burn the rest, the
#: fourth probe succeeds and re-admits pfs.
DEATH = FaultRule(kind="dead", op="write", tier="pfs", after=8, count=4)


def build_config(root: Path) -> MLPOffloadConfig:
    (root / "nvme").mkdir(parents=True, exist_ok=True)
    (root / "pfs").mkdir(parents=True, exist_ok=True)
    field_bytes = SUBGROUP * 4
    return MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(root / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(root / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP,
        host_cache_bytes=0.0,
        adam=AdamConfig(lr=1e-2),
        stripe=StripeConfig(enabled=True, threshold_bytes=float(field_bytes // 2)),
        adaptive_bandwidth=False,
        # every injected fault is terminal: fail over fast
        io=IOBackendConfig(retry_attempts=1),
        path_quarantine_failures=2,
        path_probe_interval=2,
    )


def train(root: Path, plan: FaultPlan | None):
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)
    views = flat_views(None, layout, 0)
    rng = np.random.default_rng(7)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    grads = [rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1 for _ in range(ITERATIONS)]
    if plan is not None:
        arm_faults(plan)
    timeline = []
    try:
        with MLPOffloadEngine(build_config(root), layout, rank=0) as engine:
            engine.initialize(initial.copy())
            fp16 = initial.astype(np.float16)
            for iteration, grad in enumerate(grads):
                for index, view in views.items():
                    engine.on_backward_gradient(index, grad[view].astype(np.float16))
                engine.on_microbatch_complete()
                engine.run_update(fp16)
                if plan is not None:
                    health = engine.tier.health
                    timeline.append(
                        dict(
                            iteration=iteration,
                            pfs_healthy=health.is_healthy("pfs"),
                            pfs_bytes_written=engine.tier.engine.tier_stats("pfs").bytes_written,
                            failovers=health.failovers,
                            stripe_weights=str(
                                [round(w / 1e9, 1) for w in engine.tier._stripe_weights()]
                            ),
                        )
                    )
            master = engine.fetch_master_params()
            summary = engine.tier.health.summary()
    finally:
        clear_faults()
    return fp16, master, timeline, summary


def main() -> None:
    base = Path(tempfile.mkdtemp(prefix="repro-degraded-"))
    print("fault-free reference run...")
    clean_fp16, clean_master, _, _ = train(base / "clean", None)
    print(f"run with pfs dying mid-initialize ({DEATH.to_spec()})...")
    fp16, master, timeline, summary = train(base / "faulted", FaultPlan([DEATH]))

    print()
    print(format_table(timeline, title="pfs health over the run"))
    print()
    print(f"health summary: {summary}")

    assert np.array_equal(clean_fp16, fp16), "FP16 params diverged"
    assert np.array_equal(clean_master, master), "FP32 master state diverged"
    assert summary["failovers"] >= 1, "the dead path never triggered a failover"
    assert summary["paths"]["pfs"]["healthy"], "pfs was never re-admitted"
    assert summary["recovery_events"] >= 1, "the probe never re-admitted pfs"
    print()
    print(
        "bitwise-identical to the fault-free run; "
        f"{summary['failovers']} flush(es) failed over, pfs quarantined and "
        "re-admitted by the recovery probe"
    )


if __name__ == "__main__":
    main()
