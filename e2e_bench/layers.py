"""Per-layer metrics of a traced run: public counters first, then spans.

Sources, in order of preference: the counters the program already keeps
(``UpdatePhaseStats``, ``AsyncIOEngine.tier_stats``/``retry_totals``,
``FileStore.stats``, cache, pool and lock-manager stats, the checkpoint
writer's byte totals), snapshotted between steps by :class:`Counters`; then
the spans :mod:`e2e_bench.trace` recorded around calls into each layer.

Conventions (also in README.md): per step, median over the traced steps,
unless a metric is a ratio over the whole traced run.  Time spent on a rank
thread is averaged over the ranks; time on I/O and drain threads, bytes and
counts are summed over all threads and ranks.  A layer that a workload never
enters reads 0.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from statistics import median
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from e2e_bench import spec
from e2e_bench.spec import Workload
from e2e_bench.trace import Span, Tracer

_STORE_READS = ("tiers.file_store.load_into", "tiers.file_store.read")
_STORE_WRITES = ("tiers.file_store.save_from",)


class Counters:
    """Cumulative public counters of a rig, snapshotted at step boundaries."""

    def __init__(self, rig: Any) -> None:
        self.rig = rig
        self.snaps: List[Dict[str, float]] = [self._read()]

    def snapshot(self) -> None:
        self.snaps.append(self._read())

    def _read(self) -> Dict[str, float]:
        c: Dict[str, float] = defaultdict(float)
        for engine in self.rig.engines:
            tier = engine.tier
            for name in tier.tier_names:
                stats = tier.engine.tier_stats(name)
                c[f"aio.bytes_read.{name}"] += stats.bytes_read
                c[f"aio.bytes_written.{name}"] += stats.bytes_written
                c[f"aio.read_seconds.{name}"] += stats.read_seconds
                c[f"aio.write_seconds.{name}"] += stats.write_seconds
                c["aio.retries"] += stats.retries
                c["aio.failures"] += stats.failures
            c["tier.failovers"] += tier.failover_count
            stores = list(tier.stores.values())
            writer = engine.checkpointer
            if writer is not None:
                stores += list(writer.stores.values())
                retries, failures, _ = writer.engine.retry_totals()
                c["aio.retries"] += retries
                c["aio.failures"] += failures
                c["ckpt.staged_bytes"] += writer.staged_bytes
                c["ckpt.linked_bytes"] += writer.linked_bytes
                c["ckpt.staged_stored_bytes"] += writer.staged_stored_bytes
            for store in stores:
                stats = store.stats()
                c["store.bytes_read"] += stats.bytes_read
                c["store.bytes_written"] += stats.bytes_written
            c["cache.hits"] += engine.cache.stats.hits
            c["cache.misses"] += engine.cache.stats.misses
            c["cache.evictions"] += engine.cache.stats.evictions
            c["cache.dirty_evictions"] += engine.cache.stats.dirty_evictions
            c["pool.hits"] += engine.pool.stats.hits
            c["pool.misses"] += engine.pool.stats.misses
        for name in self.rig.engines[0].tier.tier_names:
            stats = self.rig.lock_manager.stats(name)
            c["locks.acquisitions"] += stats.acquisitions
            c["locks.contended"] += stats.contended_acquisitions
            c["locks.wait_seconds"] += stats.wait_seconds
            c["locks.hold_seconds"] += stats.hold_seconds
        return dict(c)

    def per_step(self, key: str) -> List[float]:
        return [b.get(key, 0.0) - a.get(key, 0.0) for a, b in zip(self.snaps, self.snaps[1:])]

    def total(self, key: str) -> float:
        return self.snaps[-1].get(key, 0.0) - self.snaps[0].get(key, 0.0)


def striped_share(rig: Any) -> float:
    """Share of the subgroups whose state fields are stored striped."""
    flags = [
        engine.tier.is_striped_subgroup(sg.key) for engine in rig.engines for sg in engine.subgroups
    ]
    return sum(flags) / len(flags)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Spans:
    """The spans of the traced steps, bucketed by step."""

    def __init__(self, tracer: Tracer, windows: Sequence[Tuple[float, float]], ranks: int):
        self.starts = [start for start, _ in windows]
        self.last_end = windows[-1][1]
        self.steps = len(windows)
        self.ranks = ranks
        self.all = tracer.spans
        self.rank_threads = {s.thread for s in self.all if s.name == "core.engine.run_update"}
        self.children_seconds: Dict[int, float] = defaultdict(float)
        for span in self.all:
            if span.parent:
                self.children_seconds[span.parent] += span.seconds

    def step_of(self, moment: float) -> Optional[int]:
        index = bisect.bisect_right(self.starts, moment) - 1
        if index < 0 or (index == self.steps - 1 and moment > self.last_end):
            return None
        return index

    def self_seconds(self, span: Span) -> float:
        return span.seconds - self.children_seconds.get(span.id, 0.0)

    def per_step(
        self,
        names: Iterable[str],
        *,
        tag: Optional[str] = None,
        amount: Callable[[Span], float] = lambda span: span.seconds,
        where: Callable[[Span], bool] = lambda span: True,
    ) -> List[float]:
        """Per-step totals of ``amount`` over the matching spans (rank threads averaged)."""
        wanted = set(names)
        totals = [0.0] * self.steps
        for span in self.all:
            if span.name not in wanted or (tag is not None and span.tag != tag):
                continue
            step = self.step_of(span.start)
            if step is None or not where(span):
                continue
            weight = 1.0 / self.ranks if span.thread in self.rank_threads else 1.0
            totals[step] += amount(span) * weight
        return totals

    def named(self, names: Iterable[str]) -> List[Span]:
        wanted = set(names)
        return [s for s in self.all if s.name in wanted and self.step_of(s.start) is not None]


def _requests(spans: _Spans, tracer: Tracer) -> Dict[str, List[float]]:
    """Queue wait, busy and self time of every aio request, per step.

    A request is a ``submit`` span; the store call naming it as cause is its
    execution on an I/O thread.  Execution starts at the lock-manager
    ``acquire`` directly before that store call on the same thread (when the
    engine holds tier leases) and ends when the request's future completes.
    """
    executed = {s.cause: s for s in spans.all if s.cause}
    top_level: Dict[int, List[Span]] = defaultdict(list)
    for span in spans.all:
        if not span.parent:
            top_level[span.thread].append(span)
    position: Dict[int, int] = {}
    for thread_spans in top_level.values():
        thread_spans.sort(key=lambda s: s.start)
        for index, span in enumerate(thread_spans):
            position[span.id] = index
    out = {key: [0.0] * spans.steps for key in ("queue_wait_s", "busy_s", "self_s", "requests")}
    for submit in spans.named(["aio.engine.submit"]):
        step = spans.step_of(submit.start)
        assert step is not None
        out["requests"][step] += 1
        op = executed.get(submit.id)
        if op is None:
            continue
        begin, lock_seconds = op.start, 0.0
        index = position.get(op.id, 0)
        if index > 0:
            before = top_level[op.thread][index - 1]
            if (
                before.name == "aio.locks.acquire"
                and before.tag == op.tag
                and before.start >= submit.start
            ):
                begin, lock_seconds = before.start, before.seconds
        done = tracer.done_at.get(submit.id, op.end)
        out["queue_wait_s"][step] += max(0.0, begin - submit.start)
        out["busy_s"][step] += done - begin
        out["self_s"][step] += done - begin - op.seconds - lock_seconds
    return out


def _drains(spans: _Spans) -> List[float]:
    """Snapshot call -> that version's manifest commit, per checkpoint."""
    commits = sorted(spans.named(["ckpt.writer.manifest_commit"]), key=lambda s: s.start)
    commit_starts = [s.start for s in commits]
    drains = []
    for snap in spans.named(["ckpt.writer.snapshot"]):
        index = bisect.bisect_left(commit_starts, snap.start)
        if index < len(commits):
            drains.append(commits[index].end - snap.start)
    return drains


def caller_thread_breakdown(spans: _Spans) -> Dict[str, float]:
    """Where ``run_update``'s wall went on the rank thread: seconds per step.

    Direct children of the ``run_update`` spans by name, plus the self time
    no child covers.  Means over the traced steps (and ranks), not medians,
    so that the entries sum to ``run_update`` by construction.
    """
    updates = {s.id: s for s in spans.named(["core.engine.run_update"])}
    totals: Dict[str, float] = defaultdict(float)
    for span in spans.all:
        if span.parent in updates:
            totals[span.name] += span.seconds
    for update in updates.values():
        totals["(self)"] += spans.self_seconds(update)
        totals["run_update"] += update.seconds
    return {name: total / len(updates) for name, total in sorted(totals.items())}


def layer_metrics(
    workload: Workload,
    tracer: Tracer,
    counters: Counters,
    traced: Any,
    result: Dict[str, Any],
) -> Dict[str, Any]:
    """Every metric of ``spec.LAYER_METRICS`` for one traced repetition.

    ``traced`` is the :class:`e2e_bench.child.Steps` of the traced steps;
    ``result`` the child's result so far (untraced samples, restores).
    """
    ranks = workload.ranks
    windows, stats = traced.windows, traced.stats
    spans = _Spans(tracer, windows, ranks)
    steps = spans.steps
    values: Dict[str, float] = {}

    def put(name: str, value: float) -> None:
        values[name] = float(value)

    def rank_mean(field: str) -> float:
        return median(sum(getattr(s, field) for s in per_rank) / ranks for per_rank in stats)

    def rank_sum(field: str) -> float:
        return median(sum(getattr(s, field) for s in per_rank) for per_rank in stats)

    def span_seconds(*names: str, tag: Optional[str] = None) -> float:
        return median(spans.per_step(names, tag=tag))

    # core.engine: UpdatePhaseStats, plus spans for what it does not time.
    put("core.engine.update_wall_s", rank_mean("wall_seconds"))
    put(
        "core.engine.backward_hook_s",
        span_seconds("core.engine.on_backward_gradient", "core.engine.on_microbatch_complete"),
    )
    put("core.engine.fetch_stall_s", rank_mean("fetch_seconds"))
    put("core.engine.adam_s", rank_mean("compute_seconds"))
    put("core.engine.convert_s", rank_mean("conversion_seconds"))
    put("core.engine.flush_s", rank_mean("flush_seconds"))
    put(
        "core.engine.self_s",
        median(spans.per_step(["core.engine.run_update"], amount=spans.self_seconds)),
    )
    put("core.engine.prefetch_depth", rank_mean("prefetch_depth"))
    put("core.engine.skipped_flushes", rank_sum("skipped_flushes"))
    put("core.engine.fetch_bytes", rank_sum("fetch_bytes"))
    put("core.engine.flush_bytes", rank_sum("flush_bytes"))

    # core.virtual_tier
    put("core.virtual_tier.prefetch_call_s", span_seconds("core.virtual_tier.prefetch_subgroup"))
    put("core.virtual_tier.flush_call_s", span_seconds("core.virtual_tier.flush_subgroup"))
    put("core.virtual_tier.striped_share", result["striped_share"])
    rates = workload.tier_bandwidths
    read = {name: counters.total(f"aio.bytes_read.{name}") for name in rates}
    written = {name: counters.total(f"aio.bytes_written.{name}") for name in rates}
    moved = sum(read.values()) + sum(written.values())
    ideal = (
        sum(read.values()) * rates["nvme"][0] / sum(r for r, _ in rates.values())
        + sum(written.values()) * rates["nvme"][1] / sum(w for _, w in rates.values())
    )
    put(
        "core.virtual_tier.placement_skew",
        abs(_ratio(read["nvme"] + written["nvme"], moved) - _ratio(ideal, moved)),
    )
    put("core.virtual_tier.failovers", median(counters.per_step("tier.failovers")))

    # aio.locks
    put("aio.locks.wait_s", median(counters.per_step("locks.wait_seconds")))
    put("aio.locks.hold_s", median(counters.per_step("locks.hold_seconds")))
    put(
        "aio.locks.contended_share",
        _ratio(counters.total("locks.contended"), counters.total("locks.acquisitions")),
    )

    # aio.engine (the tier engine and, where configured, the checkpoint writer's)
    for key, per_step in _requests(spans, tracer).items():
        put(f"aio.engine.{key}", median(per_step))
    put("aio.engine.retries", median(counters.per_step("aio.retries")))
    put("aio.engine.failures", median(counters.per_step("aio.failures")))
    for name in rates:
        put(
            f"aio.engine.read_bps.{name}",
            _ratio(read[name], counters.total(f"aio.read_seconds.{name}")),
        )
        put(
            f"aio.engine.write_bps.{name}",
            _ratio(written[name], counters.total(f"aio.write_seconds.{name}")),
        )
        put(f"aio.throttle.sleep_s.{name}", span_seconds("aio.throttle.consume", tag=name))

    # aio.backends
    backend_calls = spans.named(["aio.backends.read_payload", "aio.backends.write_blob"])
    put("aio.backends.read_payload_s", span_seconds("aio.backends.read_payload"))
    put("aio.backends.write_blob_s", span_seconds("aio.backends.write_blob"))
    put("aio.backends.calls", len(backend_calls) / steps)
    put(
        "aio.backends.bytes_per_call",
        _ratio(sum(s.value for s in backend_calls), len(backend_calls)),
    )

    # tiers.file_store (tier stores and checkpoint stores)
    put("tiers.file_store.load_into_s", span_seconds(*_STORE_READS))
    put("tiers.file_store.save_from_s", span_seconds(*_STORE_WRITES))
    put(
        "tiers.file_store.self_s",
        median(spans.per_step(_STORE_READS + _STORE_WRITES, amount=spans.self_seconds)),
    )
    put("tiers.file_store.bytes_read", median(counters.per_step("store.bytes_read")))
    put("tiers.file_store.bytes_written", median(counters.per_step("store.bytes_written")))

    # tiers.striped_store
    plans = spans.named(["tiers.striped_store.plan_save", "tiers.striped_store.plan_load"])
    put(
        "tiers.striped_store.plan_s",
        span_seconds(
            "tiers.striped_store.plan_save",
            "tiers.striped_store.plan_load",
            "tiers.striped_store.commit_save",
        ),
    )
    put("tiers.striped_store.extents_per_op", _ratio(sum(s.value for s in plans), len(plans)))

    # tiers.host_cache, tiers.array_pool
    hits, misses = counters.total("cache.hits"), counters.total("cache.misses")
    put("tiers.host_cache.hit_rate", _ratio(hits, hits + misses))
    put("tiers.host_cache.evictions", median(counters.per_step("cache.evictions")))
    put("tiers.host_cache.dirty_evictions", median(counters.per_step("cache.dirty_evictions")))
    hits, misses = counters.total("pool.hits"), counters.total("pool.misses")
    put("tiers.array_pool.hit_rate", _ratio(hits, hits + misses))
    put("tiers.array_pool.allocations", misses)
    put("tiers.array_pool.acquire_s", span_seconds("tiers.array_pool.acquire"))

    # train.adam, train.gradients
    adam_seconds = span_seconds("train.adam.adam_update")
    put("train.adam.update_s", adam_seconds)
    put("train.adam.params_per_s", _ratio(workload.params_per_rank, adam_seconds))
    put("train.gradients.accumulate_s", span_seconds("train.gradients.accumulate"))
    put("train.gradients.upconvert_s", span_seconds("train.gradients.gradient_fp32"))

    # ckpt.writer, codec
    drains = _drains(spans)
    put("ckpt.writer.snapshot_block_s", span_seconds("core.engine.maybe_checkpoint"))
    put("ckpt.writer.drain_s", median(drains) if drains else 0.0)
    put("ckpt.writer.staged_bytes", median(counters.per_step("ckpt.staged_bytes")))
    put("ckpt.writer.linked_bytes", median(counters.per_step("ckpt.linked_bytes")))
    stored = counters.total("ckpt.staged_stored_bytes")
    put(
        "ckpt.writer.stored_bytes_per_state_byte",
        stored / (steps * workload.total_params * 14),  # FP32 state (12 B) + FP16 copy (2 B)
    )
    encodes = spans.named(["codec.encode_chunk"])
    put("codec.encode_s", span_seconds("codec.encode_chunk"))
    put(
        "codec.encode_bps",
        _ratio(sum(s.value for s in encodes), sum(s.seconds for s in encodes)),
    )
    put("codec.ratio", _ratio(counters.total("ckpt.staged_bytes"), stored))

    # ckpt.restore: the untraced fresh-engine restores the child timed itself.
    restores = result.get("restores", [])
    for key in ("restore_call_s", "first_fetch_s", "linked_subgroups", "lazy_subgroups"):
        put(f"ckpt.restore.{key}", median(r[key] for r in restores) if restores else 0.0)

    # e2e_bench: the apparatus itself.
    traced_step = median(end - start for start, end in windows)
    put(
        "e2e_bench.trace_overhead_share",
        traced_step / median(result["step_samples_s"]) - 1.0,
    )
    engine_calls = spans.per_step(
        [
            "core.engine.on_backward_gradient",
            "core.engine.on_microbatch_complete",
            "core.engine.run_update",
            "core.engine.maybe_checkpoint",
        ]
    )
    put(
        "e2e_bench.unattributed_share",
        median(
            1.0 - covered / (sum(per_rank) / ranks)
            for covered, per_rank in zip(engine_calls, traced.rank_seconds)
        ),
    )

    missing = set(spec.LAYER_METRICS_BY_NAME) - set(values)
    assert not missing and len(values) == len(spec.LAYER_METRICS), sorted(missing)
    return {
        "metrics": {
            name: {"value": values[name], "unit": spec.LAYER_METRICS_BY_NAME[name].unit}
            for name in spec.LAYER_METRICS_BY_NAME
        },
        "caller_thread_s": caller_thread_breakdown(spans),
        "traced_steps": steps,
        "spans": len(tracer.spans),
    }
