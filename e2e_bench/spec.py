"""The benchmark's fixed vocabulary: workloads, end-to-end metrics, layer metrics.

Everything that names a workload or a metric imports it from here, and
``BENCHMARK.json`` at the repo root must agree with these tables
(``test_smoke.py`` checks both directions).  Changing a name, a size or a
bound is a benchmark change: its own PR, claiming no gain, baseline
re-measured afterwards (see README.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

MB = 1_000_000

#: Table-1 Testbed-1 bandwidths divided by 32, so a step moves tens of MB and
#: still lasts long enough to be paced by the throttles' real sleeps:
#: tier -> (read B/s, write B/s, per-operation latency s).
THROTTLED_TIERS: Dict[str, Tuple[float, float, float]] = {
    "nvme": (216 * MB, 166 * MB, 0.0005),
    "pfs": (112 * MB, 112 * MB, 0.002),
}
#: Bandwidth hints for the unthrottled workloads (Table 1, Testbed-1): they
#: only seed the placement and the stripe split, nothing sleeps.
UNTHROTTLED_HINTS: Dict[str, Tuple[float, float]] = {
    "nvme": (6.9e9, 5.3e9),
    "pfs": (3.6e9, 3.6e9),
}

#: Steps discarded before timing: pool fill, cache fill, adaptive bandwidth
#: estimate, first striped-key commits.
WARMUP_STEPS = 5
#: Traced steps of ``python -m e2e_bench trace`` (a quarter as many untraced
#: steps run before and after them).
TRACED_STEPS = 20
#: Distinct FP16 gradient vectors per rank; step ``i`` feeds vector ``i % 4``.
GRAD_RING = 4
#: Fresh-engine restores timed after the ``ckpt_every_step`` run.
RESTORES = 10
#: Engine set-ups timed per child process: the first builds the engine that
#: runs the steps, the others follow the steps; ``setup_s`` is their median.
SETUP_ROUNDS = 5
#: Fresh-engine repetitions per workload of ``run`` and ``selfcheck``, one
#: child process each.  Their quartiles are the run-to-run spread ``compare``
#: judges ``unresolved`` by, so every workload gets at least three.
REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One fixed set of inputs.  Sizes were probed on a 2-core sandbox."""

    name: str
    why: str
    ranks: int
    params_per_rank: int
    subgroup_size: int
    #: Host-cache capacity in subgroups (0 = no cache).
    cached_subgroups: int
    throttled: bool
    checkpoint: bool
    #: Timed steps per repetition of ``python -m e2e_bench run``.
    steps: int
    #: Child processes the ``once`` command splits its time budget over.  Each
    #: pays inputs, set-ups, warm-up and oracle again, so only ``cpu_bound``,
    #: whose steps are short and whose processes differ most, gets three.
    once_repeats: int
    #: Fields at least this large are striped across both paths (the engine's
    #: default; scaled down with the sizes at toy scale).
    stripe_threshold_bytes: int = 1 << 20
    #: Multiplier on the throttles' per-operation latency (scaled like the sizes).
    latency_scale: float = 1.0
    #: ``IOBackendConfig.backend``; "auto" is the engine's default and resolves
    #: to odirect on ext4.  The throttled workloads use it, and its device
    #: time is not hidden there: a request sleeps, then does the real I/O
    #: (io_bound_2rank 0.73-0.77 s per step with "auto", 0.67-0.68 s with
    #: "thread").  The unthrottled workloads use "thread": with O_DIRECT their
    #: step follows the sandbox's virtual disk from one process to the next
    #: on unchanged code (cpu_bound 0.160-0.196 s over eight processes in a
    #: row, a quartile distance of 12%; ckpt_every_step 0.61 s with every
    #: third process at 0.70-0.78 s), wider than any bound could be.  Through
    #: the page cache the same processes read 0.117-0.121 s and 0.552-0.558 s.
    io_backend: str = "auto"

    @property
    def total_params(self) -> int:
        return self.ranks * self.params_per_rank

    @property
    def tier_bandwidths(self) -> Dict[str, Tuple[float, float]]:
        """tier -> (read, write) B/s the config declares: throttle rates, else the hints."""
        if self.throttled:
            return {name: (read, write) for name, (read, write, _) in THROTTLED_TIERS.items()}
        return UNTHROTTLED_HINTS

    def toy(self) -> "Workload":
        """The same shape at 1/100 size (structure checks only, no timing)."""
        fields = asdict(self)
        fields["params_per_rank"] = self.params_per_rank // 100
        fields["subgroup_size"] = self.subgroup_size // 100
        fields["stripe_threshold_bytes"] = self.stripe_threshold_bytes // 100
        fields["latency_scale"] = self.latency_scale / 100
        return Workload(**fields)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="io_bound_2rank",
        why=(
            "two co-located ranks share throttled NVMe+PFS paths and one lock manager: "
            "the paper's regime, where overlap, multi-path split and lock hand-off set the step"
        ),
        ranks=2,
        params_per_rank=4_000_000,
        subgroup_size=500_000,
        cached_subgroups=0,
        throttled=True,
        checkpoint=False,
        steps=50,
        once_repeats=1,
    ),
    Workload(
        name="cpu_bound",
        why=(
            "one rank, no throttles, no cache, page-cache I/O: software cost per byte of the "
            "backend, store, aio engine, pool, striping and Adam; sleeps and locks do nothing"
        ),
        ranks=1,
        params_per_rank=8_000_000,
        subgroup_size=1_000_000,
        cached_subgroups=0,
        throttled=False,
        checkpoint=False,
        steps=150,
        once_repeats=3,
        io_backend="thread",
    ),
    Workload(
        name="cached_half",
        why=(
            "half the subgroups fit the host cache, so alternating order turns half the "
            "fetches into hits and skips their flushes on the same throttled tiers"
        ),
        ranks=1,
        params_per_rank=8_000_000,
        subgroup_size=500_000,
        cached_subgroups=8,
        throttled=True,
        checkpoint=False,
        steps=50,
        once_repeats=1,
    ),
    Workload(
        name="ckpt_every_step",
        why=(
            "a checkpoint after every step, page-cache I/O: the async drain, codec and checkpoint "
            "stores write beside the next step's fetches, then ten fresh-engine restores"
        ),
        ranks=1,
        params_per_rank=4_000_000,
        subgroup_size=500_000,
        cached_subgroups=2,
        throttled=False,
        checkpoint=True,
        steps=50,
        once_repeats=1,
        io_backend="thread",
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

ALL = tuple(w.name for w in WORKLOADS)
THROTTLED = tuple(w.name for w in WORKLOADS if w.throttled)
CHECKPOINTED = tuple(w.name for w in WORKLOADS if w.checkpoint)


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the engine would see, with its regression bounds."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen before a
    #: change counts as a regression ...
    bound: float
    workloads: Tuple[str, ...]
    definition: str
    #: ... except on these workloads, whose run-to-run spread needs more.
    wider: Tuple[Tuple[str, float], ...] = ()

    def bound_on(self, workload: str) -> float:
        return dict(self.wider).get(workload, self.bound)

    @property
    def widest_bound(self) -> float:
        """The one bound ``BENCHMARK.json`` can carry: it must hold on every workload."""
        return max([self.bound, *(bound for _, bound in self.wider)])


#: Each bound is at least three times the widest quartile spread of its
#: workload over the last four sets of ten ``once`` runs with ten seeds each
#: (README.md, "Baseline").  ``cpu_bound`` has no sleeps to hide behind, so it
#: follows the sandbox's own speed (step_s spread up to 3.9%, step_p80_s 4.2%).
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL,
        "engine construction + initialize() until the state is on the tiers; "
        "median of the set-ups a child process performs",
    ),
    EndToEnd(
        "step_s", "s", "lower", 0.05, ALL,
        "median wall of one timed step: every backward hook, on_microbatch_complete, "
        "run_update (and maybe_checkpoint); two ranks: barrier release until both returned",
        wider=(("io_bound_2rank", 0.10), ("cpu_bound", 0.12), ("ckpt_every_step", 0.08)),
    ),
    EndToEnd(
        "step_p80_s", "s", "lower", 0.08, ALL,
        "80th percentile of the timed steps",
        wider=(("io_bound_2rank", 0.10), ("cpu_bound", 0.15), ("ckpt_every_step", 0.10)),
    ),
    EndToEnd(
        "params_per_s", "params/s", "higher", 0.05, ALL,
        "parameters updated / total wall of the timed steps (paper Fig. 8)",
        wider=(("io_bound_2rank", 0.10), ("cpu_bound", 0.12), ("ckpt_every_step", 0.08)),
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.15, ALL,
        "ru_maxrss of the workload's child process, read after the program's last call "
        "and before the reference is computed",
    ),
    EndToEnd(
        "tier_bw_utilization", "ratio", "higher", 0.05, THROTTLED,
        "Equation-1 bound / step_s; bound = max(read bytes / sum of read bw, "
        "write bytes / sum of write bw) over the throttled tiers, bytes per step "
        "from the UpdateReport counters",
        wider=(("io_bound_2rank", 0.10),),
    ),
    EndToEnd(
        "restore_s", "s", "lower", 0.15, CHECKPOINTED,
        "median over fresh engines of restore_checkpoint() + fetch_master_params()",
    ),
)
#: failed / attempted operations (a timed step, a checkpoint commit, a
#: restore, a final correctness check).  Must stay 0; any failure makes the
#: command exit non-zero, so it carries no proportional bound.
FAILED_OPS_SHARE = "failed_ops_share"

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}
#: BENCHMARK.json requires every end-to-end metric on every workload, so the
#: two partial ones are listed there with the layer metrics (no driver bound)
#: while ``run``/``compare``/``selfcheck`` keep treating them as end-to-end.
UNIVERSAL_END_TO_END = tuple(m.name for m in END_TO_END if m.workloads == ALL)
PARTIAL_END_TO_END = tuple(m.name for m in END_TO_END if m.workloads != ALL)


@dataclass(frozen=True)
class LayerMetric:
    """A metric of one module, and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str


def _layer(prefix: str, moves: str, *entries: Tuple[str, str, str]) -> Tuple[LayerMetric, ...]:
    return tuple(LayerMetric(f"{prefix}.{n}", unit, better, moves) for n, unit, better in entries)


#: Per step (median over the traced steps) unless the name says otherwise;
#: times on rank threads are averaged over ranks, I/O-thread times and
#: counts are summed over threads.  Prefix = module under ``repro.``.
LAYER_METRICS: Tuple[LayerMetric, ...] = (
    *_layer(
        "core.engine",
        "fetch_stall_s, prefetch_depth -> step_s, tier_bw_utilization on io_bound_2rank, "
        "cached_half; self_s, adam_s, convert_s -> step_s on cpu_bound; flat on ckpt_every_step",
        ("update_wall_s", "s", "lower"),
        ("backward_hook_s", "s", "lower"),
        ("fetch_stall_s", "s", "lower"),
        ("adam_s", "s", "lower"),
        ("convert_s", "s", "lower"),
        ("flush_s", "s", "lower"),
        ("self_s", "s", "lower"),
        ("prefetch_depth", "count", "higher"),
        ("skipped_flushes", "count", "higher"),
        ("fetch_bytes", "bytes", "lower"),
        ("flush_bytes", "bytes", "lower"),
    ),
    *_layer(
        "core.virtual_tier",
        "placement_skew -> tier_bw_utilization on io_bound_2rank, cached_half; "
        "*_call_s -> step_s on cpu_bound",
        ("prefetch_call_s", "s", "lower"),
        ("flush_call_s", "s", "lower"),
        ("striped_share", "ratio", "higher"),
        ("placement_skew", "ratio", "lower"),
        ("failovers", "count", "lower"),
    ),
    *_layer(
        "aio.locks",
        "-> step_s, step_p80_s on io_bound_2rank only; zero contention elsewhere",
        ("wait_s", "s", "lower"),
        ("hold_s", "s", "lower"),
        ("contended_share", "ratio", "lower"),
    ),
    *_layer(
        "aio.engine",
        "self_s, queue_wait_s -> step_s on cpu_bound; *_bps.* / throttle rate explains "
        "tier_bw_utilization per path",
        ("requests", "count", "lower"),
        ("queue_wait_s", "s", "lower"),
        ("busy_s", "s", "lower"),
        ("self_s", "s", "lower"),
        ("retries", "count", "lower"),
        ("failures", "count", "lower"),
        ("read_bps.nvme", "bytes/s", "higher"),
        ("read_bps.pfs", "bytes/s", "higher"),
        ("write_bps.nvme", "bytes/s", "higher"),
        ("write_bps.pfs", "bytes/s", "higher"),
    ),
    *_layer(
        "aio.throttle",
        "the floor under step_s on io_bound_2rank, cached_half; zero on cpu_bound, "
        "ckpt_every_step",
        ("sleep_s.nvme", "s", "lower"),
        ("sleep_s.pfs", "s", "lower"),
    ),
    *_layer(
        "aio.backends",
        "-> step_s, params_per_s on cpu_bound, ckpt_every_step (the buffered backend) and on "
        "io_bound_2rank, cached_half (auto -> odirect; a request sleeps, then does its I/O)",
        ("read_payload_s", "s", "lower"),
        ("write_blob_s", "s", "lower"),
        ("calls", "count", "lower"),
        ("bytes_per_call", "bytes", "higher"),
    ),
    *_layer(
        "tiers.file_store",
        "self_s -> step_s on cpu_bound; setup_s everywhere",
        ("load_into_s", "s", "lower"),
        ("save_from_s", "s", "lower"),
        ("self_s", "s", "lower"),
        ("bytes_read", "bytes", "lower"),
        ("bytes_written", "bytes", "lower"),
    ),
    *_layer(
        "tiers.striped_store",
        "-> step_s on cpu_bound (no sleeps under it); every workload's 2-4 MB fields stripe",
        ("plan_s", "s", "lower"),
        ("extents_per_op", "count", "lower"),
    ),
    *_layer(
        "tiers.host_cache",
        "-> step_s, tier_bw_utilization on cached_half; 0 hits on io_bound_2rank, cpu_bound",
        ("hit_rate", "ratio", "higher"),
        ("evictions", "count", "lower"),
        ("dirty_evictions", "count", "lower"),
    ),
    *_layer(
        "tiers.array_pool",
        "-> step_s on cpu_bound, peak_rss_mb everywhere",
        ("hit_rate", "ratio", "higher"),
        ("allocations", "count", "lower"),
        ("acquire_s", "s", "lower"),
    ),
    *_layer(
        "train.adam",
        "-> step_s on cpu_bound; a small share of the step elsewhere",
        ("update_s", "s", "lower"),
        ("params_per_s", "params/s", "higher"),
    ),
    *_layer(
        "train.gradients",
        "-> core.engine.backward_hook_s, convert_s -> step_s on cpu_bound",
        ("accumulate_s", "s", "lower"),
        ("upconvert_s", "s", "lower"),
    ),
    *_layer(
        "ckpt.writer",
        "drain_s -> step_s on ckpt_every_step; zero elsewhere (no checkpoint_dir)",
        ("snapshot_block_s", "s", "lower"),
        ("drain_s", "s", "lower"),
        ("staged_bytes", "bytes", "lower"),
        ("linked_bytes", "bytes", "higher"),
        ("stored_bytes_per_state_byte", "ratio", "lower"),
    ),
    *_layer(
        "codec",
        "-> ckpt.writer.drain_s -> step_s on ckpt_every_step",
        ("encode_s", "s", "lower"),
        ("encode_bps", "bytes/s", "higher"),
        ("ratio", "ratio", "higher"),
    ),
    *_layer(
        "ckpt.restore",
        "-> restore_s on ckpt_every_step",
        ("restore_call_s", "s", "lower"),
        ("first_fetch_s", "s", "lower"),
        ("linked_subgroups", "count", "higher"),
        ("lazy_subgroups", "count", "lower"),
    ),
    *_layer(
        "e2e_bench",
        "quality of the apparatus itself",
        ("trace_overhead_share", "ratio", "lower"),
        ("unattributed_share", "ratio", "lower"),
    ),
)

LAYER_METRICS_BY_NAME: Dict[str, LayerMetric] = {m.name: m for m in LAYER_METRICS}


def workload_named(name: str, *, toy: bool = False) -> Workload:
    workload: Optional[Workload] = WORKLOADS_BY_NAME.get(name)
    if workload is None:
        raise ValueError(f"unknown workload {name!r}; known: {list(ALL)}")
    return workload.toy() if toy else workload
