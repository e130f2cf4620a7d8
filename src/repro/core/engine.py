"""The functional offloading engine (paper Algorithm 1).

:class:`OffloadEngineBase` implements the complete subgroup life-cycle
against real file-backed tiers:

* **initialization** — create the FP32 optimizer state of every subgroup and
  flush it to the virtual tier according to the performance-model placement;
* **backward hook** — accumulate FP16 gradients on the host and, for the
  baseline gradient policy, up-convert and flush FP32 gradients to storage;
* **update phase** — walk the subgroups in the configured order, fetch each
  one from its tier (or hit the host cache), up-convert the gradients,
  run the vectorized CPU Adam, push the refreshed FP16 parameters to the
  rank's working copy, and lazily flush the updated state.

The update phase is one multi-level pipeline: asynchronous prefetches for
the next :data:`PREFETCH_DEPTH` subgroups the host cache does not hold are in
flight while Adam runs on the current one (cache hits take no window slot, so
a run of hits already overlaps the reads of the misses behind it), and every
write — post-update flushes and dirty host-cache evictions alike — is issued
asynchronously behind the compute, reaped by the loop and drained by the
phase-end barrier (a subgroup is never read while its own write is in
flight).  Evictions run at most :data:`PREFETCH_DEPTH` writes behind, as
reads run that far ahead.  The baseline policy's backward-phase FP32 gradient
flushes are asynchronous too, drained before the next phase fetches them.
Tier I/O thus overlaps the CPU compute (the paper's multi-level pipelining),
while the tier-exclusive lock manager keeps multi-path semantics intact —
async requests acquire the tier lease on the I/O threads, re-entrantly per
worker.  The schedule decides only *when* I/O is issued: the optimizer state
and parameters are bitwise those of an in-memory Adam.

All subgroup transfers are zero-copy: fetches deserialize straight into
scratch arrays leased from a per-engine :class:`~repro.tiers.array_pool.ArrayPool`
(``FileStore.load_into``), flushes stream from the same arrays
(``FileStore.save_from``), and buffers return to the pool when the host
cache evicts them or their flush completes.  After warm-up the update loop
therefore performs zero per-subgroup ndarray allocations on the I/O path —
the pool's hit rate measures exactly that.

Every design principle is an independent switch on
:class:`~repro.core.config.MLPOffloadConfig`, so the same code path serves
MLP-Offload, the DeepSpeed-ZeRO-3-style baseline and all ablation variants.
:class:`MLPOffloadEngine` is the fully-enabled configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import concurrent.futures
import functools
import itertools

import numpy as np

from repro.aio.locks import TierLockManager
from repro.ckpt import CheckpointCoordinator, CheckpointSession, RestoredCheckpoint
from repro.core.concurrency import NodeConcurrencyController
from repro.core.config import MLPOffloadConfig
from repro.core.gradient_policy import (
    GradientConversionPolicy,
    backward_flush_payload,
    update_time_gradient,
)
from repro.core.ordering import OrderingPolicy, update_order
from repro.core.stats import UpdatePhaseStats
from repro.core.virtual_tier import GRAD_FIELD, STATE_FIELDS, VirtualTier
from repro.tiers.array_pool import ArrayPool
from repro.tiers.host_cache import HostSubgroupCache
from repro.train.adam import AdamScratch, AdamState, adam_update
from repro.train.gradients import GradientAccumulator
from repro.train.sharding import ShardLayout, Subgroup, flat_views
from repro.util.logging import get_logger

_LOG = get_logger("core.engine")

#: Lookahead window of the update phase: subgroups prefetched beyond the one
#: being updated.
PREFETCH_DEPTH = 2

#: A prefetch in flight: per-field completion futures plus the pooled
#: destination arrays the reads deserialize into.
_PendingFetch = Tuple[Dict[str, "concurrent.futures.Future"], Dict[str, np.ndarray]]
#: A lazy flush in flight: the subgroup, its write futures, and the callback
#: that hands the written arrays back (to the pool, or the cache's ``on_evict``).
_PendingFlush = Tuple[int, List["concurrent.futures.Future"], Callable[[], object]]


@dataclass
class UpdateReport:
    """Result of one update phase: statistics plus the tier distribution."""

    stats: UpdatePhaseStats
    tier_distribution_bytes: Dict[str, float] = field(default_factory=dict)
    order: List[int] = field(default_factory=list)
    bandwidth_estimates: Dict[str, float] = field(default_factory=dict)


class OffloadEngineBase:
    """Shared functional offloading machinery (see module docstring)."""

    def __init__(
        self,
        config: MLPOffloadConfig,
        layout: ShardLayout,
        rank: int,
        *,
        lock_manager: Optional[TierLockManager] = None,
        throttles: Optional[Mapping[str, object]] = None,
        checkpoint_coordinator: Optional[CheckpointCoordinator] = None,
    ) -> None:
        self.config = config
        self.layout = layout
        self.rank = rank
        self.worker = f"rank{rank}"
        self.subgroups: List[Subgroup] = layout.subgroups_for_rank(rank)
        if not self.subgroups:
            raise ValueError(f"rank {rank} owns no subgroups")
        self._by_index: Dict[int, Subgroup] = {sg.index: sg for sg in self.subgroups}
        self._views = flat_views(None, layout, rank)

        self.concurrency = NodeConcurrencyController(
            lock_manager, enabled=config.enable_tier_locks
        )
        self.tier = VirtualTier(
            config,
            worker=self.worker,
            lock_manager=self.concurrency.lock_manager,
            # Size the submission queue to the largest prefetch window plus
            # the evictions written behind it, each request multiplied by the
            # stripe fan-out when striped reads are on: PREFETCH_DEPTH + 1
            # subgroups of up to four field reads at phase start, and while an
            # eviction is submitted PREFETCH_DEPTH such subgroups plus up to
            # PREFETCH_DEPTH evictions of three field writes (7 * 2 = 14 <= 16
            # per fan-out at the default depth), so neither blocks on queue
            # back-pressure.  Lazy flushes of updates the cache cannot hold
            # are bounded by this back-pressure.  An eviction's submit may
            # block inside ``cache.put`` (cache lock held, no tier lease)
            # without deadlock at any pool size: the I/O threads draining the
            # queue never take the cache lock — its ``on_evict`` runs on the
            # rank thread once the write is reaped.  The pool is two threads
            # per (path, direction) channel, so a throttled sleeper never
            # idles another.
            queue_depth=max(16, 4 * (PREFETCH_DEPTH + 2) * config.stripe_fanout()),
            throttles=throttles,
        )
        #: Pool of reusable fetch/flush scratch arrays (zero-copy tier I/O).
        #: Aligned to the resolved I/O backends' requirement so O_DIRECT-class
        #: reads can target pooled buffers directly (alignment 1 = no-op).
        self.pool = ArrayPool(
            alignment=max(
                getattr(store, "io_alignment", 1) for store in self.tier.stores.values()
            )
        )
        self.cache = HostSubgroupCache(
            capacity_bytes=config.host_cache_bytes,
            writeback=self._writeback,
            on_evict=self._release_evicted,
        )
        self.accumulator = GradientAccumulator(layout, rank)
        self.gradient_policy = (
            GradientConversionPolicy.DELAYED_FP16
            if config.enable_delayed_grad_conversion
            else GradientConversionPolicy.FLUSH_FP32
        )
        self.ordering_policy = (
            OrderingPolicy.ALTERNATING if config.enable_cache_reorder else OrderingPolicy.SEQUENTIAL
        )
        max_params = max(sg.num_params for sg in self.subgroups)
        #: Preallocated FP32 scratch for the gradient up-convert of the
        #: subgroup currently being updated.
        self._grad_scratch = np.empty(max_params, dtype=np.float32)
        #: Preallocated FP32 temporaries for the vectorized Adam math.
        self._adam_scratch = AdamScratch(max_params)
        self._steps: Dict[int, int] = {sg.index: 0 for sg in self.subgroups}
        self._initialized = False
        self._update_count = 0
        self.backward_flush_seconds = 0.0
        #: Async backward-phase gradient flushes in flight, by subgroup:
        #: the write futures plus the pooled FP32 payload to recycle.
        self._grad_flushes: Dict[int, Tuple[List["concurrent.futures.Future"], np.ndarray]] = {}
        #: Lazy flushes in flight (evictions join them); empty between phases.
        self._write_behind: List[_PendingFlush] = []
        #: Checkpoint save/restore (writer, coordinator, lazily restored
        #: subgroups); ``checkpointer`` is ``None`` without ``checkpoint_dir``.
        self.ckpt = CheckpointSession(
            config,
            layout,
            rank,
            tier=self.tier,
            pool=self.pool,
            cache=self.cache,
            throttles=throttles,
            coordinator=checkpoint_coordinator,
        )
        self.checkpointer = self.ckpt.writer
        self.ckpt_coordinator = self.ckpt.coordinator

    # -- initialization ----------------------------------------------------

    def initialize(self, initial_params_fp32: np.ndarray) -> None:
        """Create and offload the FP32 optimizer state of every subgroup.

        ``initial_params_fp32`` is the rank-local flat FP32 parameter vector;
        each subgroup's master copy is seeded from it, momentum and variance
        start at zero, and everything is flushed to the virtual tier per the
        initial performance-model placement (§3.4: "Initially, the subgroups
        are created on the host memory and flushed to either the NVMe or
        PFS").  The state arrays are leased from the engine's buffer pool so
        the very first update phase already recycles them.
        """
        if self._initialized:
            raise RuntimeError("engine already initialized")
        expected = self.layout.rank_params(self.rank)
        if initial_params_fp32.size != expected:
            raise ValueError(
                f"rank {self.rank} expects {expected} parameters, got {initial_params_fp32.size}"
            )
        self.tier.build_placement([sg.index for sg in self.subgroups])
        # No checkpoint can link the initial blobs: the first update
        # rewrites every subgroup before its boundary snapshots (the
        # run_update hashing rule).  A save_checkpoint before any update
        # falls back to one maintenance read per linked blob.
        self.tier.track_writes = False
        flat = initial_params_fp32.astype(np.float32, copy=False).reshape(-1)
        for sg in self.subgroups:
            view = flat[self._views[sg.index]]
            arrays: Dict[str, np.ndarray] = {
                name: self.pool.acquire(sg.num_params, np.float32) for name in STATE_FIELDS
            }
            np.copyto(arrays["params"], view)
            arrays["exp_avg"].fill(0.0)
            arrays["exp_avg_sq"].fill(0.0)
            self.tier.flush_subgroup(sg.key, sg.index, arrays, wait=True)
            # Populate the host cache with as many (clean) subgroups as fit,
            # so the very first update phase already benefits from caching;
            # subgroups that do not fit return their buffers to the pool.
            if not self.cache.put(sg.index, arrays, dirty=False):
                self.pool.release_all(arrays.values())
        self._initialized = True

    # -- backward-pass hook --------------------------------------------------

    def on_backward_gradient(self, subgroup_index: int, grad_fp16: np.ndarray) -> float:
        """Accept one subgroup's FP16 gradient produced by the backward pass.

        Returns the seconds spent on gradient handling that land in the
        *backward* phase (zero for the delayed policy; conversion + flush
        submission time for the baseline policy, whose write lands behind).
        """
        if not self._initialized:
            raise RuntimeError("engine not initialized")
        self.accumulator.accumulate(subgroup_index, grad_fp16)
        if self.gradient_policy is GradientConversionPolicy.DELAYED_FP16:
            return 0.0
        start = time.perf_counter()
        payload = backward_flush_payload(self.gradient_policy, self.accumulator, subgroup_index)
        assert payload is not None
        sg = self._by_index[subgroup_index]
        # Async drain (same treatment as the update phase's lazy flushes):
        # copy the payload into a pooled buffer, submit the write and return
        # — the backward pass never waits on the tier.  Writes to the same
        # subgroup are chained (the previous in-flight flush is awaited
        # first) so re-flushes across micro-batches land in accumulation
        # order; everything is drained before the next update phase fetches
        # gradients.  Await the previous in-flight flush of this subgroup
        # *before* leasing the staging buffer — if it failed, nothing newly
        # acquired is stranded by the re-raise.
        self._await_grad_flush(subgroup_index)
        staged = self.pool.acquire(sg.num_params, np.float32)
        np.copyto(staged, payload)
        futures = self.tier.flush_subgroup(sg.key, sg.index, {GRAD_FIELD: staged}, wait=False)
        self._grad_flushes[subgroup_index] = (list(futures), staged)
        elapsed = time.perf_counter() - start
        self.backward_flush_seconds += elapsed
        return elapsed

    def on_microbatch_complete(self) -> None:
        """Record that one micro-batch's gradients have been fully accumulated."""
        self.accumulator.mark_microbatch_done()

    def _await_grad_flush(self, subgroup_index: int) -> None:
        """Complete the in-flight backward gradient flush of one subgroup."""
        entry = self._grad_flushes.pop(subgroup_index, None)
        if entry is None:
            return
        futures, staged = entry
        try:
            for future in futures:
                result = future.result()
                if not result.ok:
                    raise result.error
        finally:
            self.pool.release(staged)

    def _drain_grad_flushes(self, *, swallow_errors: bool = False) -> None:
        """Barrier: every async backward gradient flush has landed."""
        for subgroup_index in list(self._grad_flushes):
            try:
                self._await_grad_flush(subgroup_index)
            except BaseException:  # noqa: BLE001 - teardown path only
                if not swallow_errors:
                    raise

    # -- update phase ----------------------------------------------------------

    def run_update(self, fp16_params_out: np.ndarray) -> UpdateReport:
        """Run one update phase over all of the rank's subgroups (Algorithm 1).

        ``fp16_params_out`` is the rank-local flat FP16 working copy; the
        refreshed parameters of every subgroup are written into it (the
        functional counterpart of the asynchronous H2D push in line 8 of
        Algorithm 1).  Fetches run :data:`PREFETCH_DEPTH` subgroups ahead
        of the Adam compute and flushes drain behind it.
        """
        if not self._initialized:
            raise RuntimeError("engine not initialized")
        if fp16_params_out.dtype != np.float16:
            raise TypeError("fp16_params_out must be float16")
        if fp16_params_out.size != self.layout.rank_params(self.rank):
            raise ValueError("fp16_params_out has the wrong size for this rank")

        stats = UpdatePhaseStats()
        wall_start = time.perf_counter()
        if self.checkpointer is not None:
            # Hash write payloads only when this phase's boundary will
            # snapshot on the configured interval; off-interval blobs are
            # overwritten before any checkpoint could link them.  A manual
            # off-interval save_checkpoint still works — its linked blobs
            # just fall back to one maintenance read each for the digest.
            self.tier.track_writes = (
                (self._update_count + 1) % self.config.checkpoint_interval == 0
            )
        if self._grad_flushes:
            # Correctness barrier for the async backward flush: every
            # FP32 gradient must be durable before this phase fetches it.
            drain_start = time.perf_counter()
            self._drain_grad_flushes()
            stats.grad_drain_seconds = time.perf_counter() - drain_start
        io_before = self.tier.io_summary()
        retries_before, _, _ = self.tier.engine.retry_totals()
        failovers_before = self.tier.failover_count

        indices = [sg.index for sg in self.subgroups]
        order_positions = update_order(len(indices), self._update_count, self.ordering_policy)
        order = [indices[p] for p in order_positions]

        fetch_fields = list(STATE_FIELDS)
        if self.gradient_policy is GradientConversionPolicy.FLUSH_FP32:
            fetch_fields.append(GRAD_FIELD)

        stats.prefetch_depth = PREFETCH_DEPTH
        pending: Dict[int, _PendingFetch] = {}
        try:
            self._run_update_loop(order, fetch_fields, pending, fp16_params_out, stats)
        except BaseException:
            # Leave no I/O in flight and no buffer stranded: a failed phase
            # must still restore pool/tier quiescence before propagating.
            self._quiesce_io(pending)
            raise

        # Every flush is asynchronous: account the phase's writes from the
        # tier counters (the loop timed only the phase-end barrier).
        io_after = self.tier.io_summary()
        stats.flush_bytes = int(
            sum(t["bytes_written"] for t in io_after.values())
            - sum(t["bytes_written"] for t in io_before.values())
        )
        extra_write_seconds = sum(t["write_seconds"] for t in io_after.values()) - sum(
            t["write_seconds"] for t in io_before.values()
        )
        if extra_write_seconds > stats.flush_seconds:
            stats.flush_seconds = extra_write_seconds

        retries_after, _, _ = self.tier.engine.retry_totals()
        stats.io_retries = int(retries_after - retries_before)
        stats.io_failovers = int(self.tier.failover_count - failovers_before)

        stats.wall_seconds = time.perf_counter() - wall_start
        self.accumulator.reset()
        self._update_count += 1

        estimates = self.tier.observe_iteration()
        report = UpdateReport(
            stats=stats,
            tier_distribution_bytes=self.tier_distribution(),
            order=order,
            bandwidth_estimates=estimates,
        )
        return report

    def _run_update_loop(
        self,
        order: List[int],
        fetch_fields: List[str],
        pending: Dict[int, _PendingFetch],
        fp16_params_out: np.ndarray,
        stats: UpdatePhaseStats,
    ) -> None:
        """The fetch → convert → Adam → flush walk over ``order``."""
        inflight_flushes = self._write_behind
        self._fill_prefetch_window(order, 0, PREFETCH_DEPTH + 1, pending, fetch_fields, stats)

        for position, subgroup_index in enumerate(order):
            sg = self._by_index[subgroup_index]
            arrays = self.cache.get(subgroup_index)
            if arrays is not None and self._has_required_fields(arrays, fetch_fields):
                stats.cache_hits += 1
            else:
                stats.cache_misses += 1
                fetch_start = time.perf_counter()
                arrays = self._complete_fetch(sg, pending, fetch_fields)
                stats.fetch_seconds += time.perf_counter() - fetch_start
                stats.fetch_bytes += int(sum(a.nbytes for a in arrays.values()))
            # Slide the lookahead window before computing this subgroup
            # (line 11 of Algorithm 1).
            self._fill_prefetch_window(
                order, position + 1, PREFETCH_DEPTH, pending, fetch_fields, stats
            )

            # Delayed (or stored) gradient conversion, into pooled scratch.
            conv_start = time.perf_counter()
            stored = arrays.get(GRAD_FIELD)
            grad = update_time_gradient(
                self.gradient_policy,
                self.accumulator,
                subgroup_index,
                stored_fp32=stored,  # type: ignore[arg-type]
                out=self._grad_scratch[: sg.num_params],
            )
            stats.conversion_seconds += time.perf_counter() - conv_start

            # CPU Adam update, in place on the fetched/cached arrays.
            compute_start = time.perf_counter()
            state = AdamState(
                params=np.asarray(arrays["params"], dtype=np.float32),
                exp_avg=np.asarray(arrays["exp_avg"], dtype=np.float32),
                exp_avg_sq=np.asarray(arrays["exp_avg_sq"], dtype=np.float32),
                step=self._steps[subgroup_index],
            )
            adam_update(state, grad, self.config.adam, scratch=self._adam_scratch)
            self._steps[subgroup_index] = state.step
            # Push the refreshed FP16 parameters to the working copy: a
            # direct casting copy, no intermediate FP16 allocation.
            view = fp16_params_out[self._views[subgroup_index]]
            np.copyto(view, state.params, casting="same_kind")
            stats.compute_seconds += time.perf_counter() - compute_start

            # The fetched FP32 gradient (baseline policy) is consumed; recycle it.
            if stored is not None:
                self.pool.release(stored)

            # Lazy flush: keep the updated subgroup in the host cache and let
            # eviction write it back; if the cache cannot hold it, flush.
            # Both kinds of write go on ``inflight_flushes``.
            updated = {
                "params": state.params,
                "exp_avg": state.exp_avg,
                "exp_avg_sq": state.exp_avg_sq,
            }
            if not self.cache.put(subgroup_index, updated, dirty=True):
                release = functools.partial(self.pool.release_all, list(updated.values()))
                inflight_flushes.append(self._flush_behind(sg, updated, release))
            else:
                stats.skipped_flushes += 1

            stats.subgroups_processed += 1
            stats.params_updated += sg.num_params
            if inflight_flushes:
                self._reap_flushes(inflight_flushes, block=False)

        # Correctness barrier: every lazy flush must land before the phase
        # (and therefore the iteration) completes.
        if inflight_flushes:
            flush_start = time.perf_counter()
            self._reap_flushes(inflight_flushes, block=True)
            stats.flush_seconds += time.perf_counter() - flush_start
        self._abandon_pending(pending)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _has_required_fields(arrays: Mapping[str, np.ndarray], fields: List[str]) -> bool:
        return all(f in arrays for f in fields if f != GRAD_FIELD)

    def _acquire_fetch_buffers(self, sg: Subgroup, fields: List[str]) -> Dict[str, np.ndarray]:
        """Lease one pooled FP32 destination per field for a subgroup fetch."""
        return {f: self.pool.acquire(sg.num_params, np.float32) for f in fields}

    def _fill_prefetch_window(
        self,
        order: List[int],
        position: int,
        depth: int,
        pending: Dict[int, _PendingFetch],
        fields: List[str],
        stats: UpdatePhaseStats,
    ) -> None:
        """Issue async prefetches for the next ``depth`` misses from ``position``.

        Subgroups the host cache holds need no read, so they take no slot:
        while Adam runs on a run of hits the window already reads the misses
        behind it.  A lazily restored subgroup still takes one (its state is
        read when its turn comes, not prefetched).
        """
        misses = (index for index in order[position:] if index not in self.cache)
        for subgroup_index in itertools.islice(misses, depth):
            self._maybe_prefetch(subgroup_index, pending, fields, stats)

    def _maybe_prefetch(
        self,
        subgroup_index: int,
        pending: Dict[int, _PendingFetch],
        fields: List[str],
        stats: UpdatePhaseStats,
    ) -> None:
        """Start the asynchronous prefetch of uncached ``subgroup_index``."""
        if subgroup_index in pending:
            return
        if self.ckpt.is_pending(subgroup_index):
            # Lazily restored subgroup: its authoritative state lives in the
            # checkpoint stores, not on the tiers — it is read when its turn
            # comes (no tier prefetch).
            return
        self._await_write_behind(subgroup_index)
        sg = self._by_index[subgroup_index]
        tier_name = self.tier.placement.tier_of(sg.index)
        lease = self.concurrency.try_exclusive(tier_name, self.worker)
        if lease is None:
            # The tier is busy with another worker; defer (the fetch will be
            # issued synchronously when the subgroup's turn comes).
            stats.deferred_prefetches += 1
            return
        # The probe above only checks the tier is currently available to this
        # worker; actual exclusion is enforced per request by the I/O engine's
        # own lease acquisition.  Release before submitting so a full
        # submission queue can never block while we hold the lease (which
        # could deadlock two workers waiting on each other's tiers).
        lease.release()
        outs = self._acquire_fetch_buffers(sg, fields)
        futures = self.tier.prefetch_subgroup(sg.key, sg.index, fields, out_arrays=outs)
        pending[subgroup_index] = (futures, outs)

    def _complete_fetch(
        self, sg: Subgroup, pending: Dict[int, _PendingFetch], fields: List[str]
    ) -> Dict[str, np.ndarray]:
        if not self.ckpt.is_pending(sg.index):
            return self._fetch_from_tier(sg, pending, fields)
        # First fetch of a lazily restored subgroup: its state comes out of
        # the checkpoint stores, an FP32 gradient (baseline policy) from the
        # tier like any other — the resumed run's backward pass wrote it.
        arrays = self._fetch_from_tier(sg, pending, [GRAD_FIELD]) if GRAD_FIELD in fields else {}
        try:
            arrays.update(self.ckpt.take_state(sg))
        except BaseException:
            self.pool.release_all(arrays.values())
            raise
        return arrays

    def _fetch_from_tier(
        self, sg: Subgroup, pending: Dict[int, _PendingFetch], fields: List[str]
    ) -> Dict[str, np.ndarray]:
        entry = pending.pop(sg.index, None)
        if entry is None:
            self._await_write_behind(sg.index)
            outs = self._acquire_fetch_buffers(sg, fields)
            if self.tier.is_striped_subgroup(sg.key):
                # Striped reads span every stripe path — submit without a
                # single tier's lease (deadlock note on flush_subgroup); the
                # engine's per-request leases still arbitrate each stripe.
                futures = self.tier.prefetch_subgroup(sg.key, sg.index, fields, out_arrays=outs)
            else:
                tier_name = self.tier.placement.tier_of(sg.index)
                with self.concurrency.exclusive(tier_name, self.worker):
                    futures = self.tier.prefetch_subgroup(sg.key, sg.index, fields, out_arrays=outs)
        else:
            futures, outs = entry
        arrays: Dict[str, np.ndarray] = {}
        try:
            for fieldname, future in futures.items():
                result = future.result()
                if not result.ok:
                    # A missing FP32 gradient blob simply means this is the first
                    # iteration for the baseline policy; fall back to the host
                    # accumulator.  Anything else is a genuine failure.
                    if fieldname == GRAD_FIELD:
                        self.pool.release(outs[fieldname])
                        continue
                    raise result.error
                arrays[fieldname] = result.array
        except BaseException:
            # Buffers may only return to the pool once no read can still
            # deserialize into them: await every sibling future first.
            for future in futures.values():
                try:
                    future.result()
                except BaseException:  # noqa: BLE001 - already failing
                    pass
            self.pool.release_all(outs.values())
            raise
        return arrays

    def _flush_behind(
        self, sg: Subgroup, arrays: Mapping[str, np.ndarray], on_landed: Callable[[], object]
    ) -> _PendingFlush:
        """Submit a lazy flush (no tier lease: ``flush_subgroup``'s deadlock note)."""
        futures = self.tier.flush_subgroup(
            sg.key, sg.index, arrays, tier=self._flush_target(sg, arrays), wait=False
        )
        return (sg.index, list(futures), on_landed)

    def _reap_flushes(self, inflight: List[_PendingFlush], *, block: bool) -> None:
        """Retire completed lazy flushes, recycling their buffers.

        With ``block=True`` every in-flight flush is awaited (the phase-end
        barrier); otherwise only flushes that already finished are reaped.
        Errors surface here, so a failed lazy write cannot be silently lost.
        """
        due = [block or all(f.done() for f in entry[1]) for entry in inflight]
        landed = [entry for entry, d in zip(inflight, due) if d]
        inflight[:] = [entry for entry, d in zip(inflight, due) if not d]
        self._land(landed)

    def _await_write_behind(self, subgroup_index: int) -> None:
        """Read-after-write: land this subgroup's in-flight write first (before
        its stripe commit, a striped read plans against the old manifest)."""
        inflight = self._write_behind
        mine = [entry for entry in inflight if entry[0] == subgroup_index]
        if mine:
            inflight[:] = [entry for entry in inflight if entry[0] != subgroup_index]
            self._land(mine)

    @staticmethod
    def _land(entries: List[_PendingFlush]) -> None:
        """Await ``entries``, hand back every entry's arrays, then raise the first failure."""
        error: Optional[BaseException] = None
        for _, futures, on_landed in entries:
            for future in futures:
                try:
                    failure = future.result().error
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failure = exc
                error = error or failure
            on_landed()
        if error is not None:
            raise error

    def _abandon_pending(self, pending: Dict[int, _PendingFetch]) -> None:
        """Drain and recycle prefetches that were never consumed (safety net)."""
        for futures, outs in pending.values():
            for future in futures.values():
                future.result()
            self.pool.release_all(outs.values())
        pending.clear()

    def _quiesce_io(self, pending: Dict[int, _PendingFetch]) -> None:
        """Best-effort teardown after a failed phase: await all in-flight I/O
        and recycle every buffer, swallowing secondary errors so the original
        exception propagates."""
        for futures, outs in pending.values():
            for future in futures.values():
                try:
                    future.result()
                except BaseException:  # noqa: BLE001 - already failing
                    pass
            self.pool.release_all(outs.values())
        pending.clear()
        try:
            self._land(self._write_behind)
        except BaseException:  # noqa: BLE001 - already failing
            pass
        self._write_behind.clear()

    def _flush_target(self, sg: Subgroup, arrays: Mapping[str, np.ndarray]) -> str:
        """Pick the tier the subgroup should be flushed to (line 9 of Algorithm 1).

        The performance-model placement is respected by default; only when
        the subgroup's assigned tier is currently driven by *another* worker
        (tier-exclusive concurrency control) is the flush redirected to an
        idle tier — the "natural interleaving" of §3.2.
        """
        current = self.tier.placement.tier_of(sg.index)
        if self.tier.will_stripe(arrays):
            # Striped fields live at fixed stripe homes spanning every path;
            # the idle-tier redirect only applies to whole-blob flushes.
            return current
        if not self.config.enable_multipath or len(self.tier.tier_names) == 1:
            return current
        if not self.config.enable_tier_locks:
            return current
        owner = self.concurrency.lock_manager.owner_of(current)
        if owner in (None, self.worker):
            return current
        idle = [
            name
            for name in self.tier.tier_names
            if self.concurrency.lock_manager.owner_of(name) in (None, self.worker)
        ]
        return idle[0] if idle else current

    def _writeback(
        self, subgroup_index: int, arrays: Mapping[str, np.ndarray]
    ) -> concurrent.futures.Future:
        """Cache-eviction callback: write a dirty subgroup back behind the
        update loop, returning the future that lands (releases) it.

        Only an update phase puts dirty entries; every put outside a phase is
        clean and goes into a fresh cache (``initialize``, checkpoint
        restore).  So a dirty eviction happens only inside a phase, whose
        loop and end barrier reap the write.  The rank thread waits here only
        for writes older than the newest ``PREFETCH_DEPTH - 1``, so Adam and
        the prefetch window keep moving while the write channel drains
        (``PREFETCH_DEPTH = 1`` writes one at a time).
        """
        sg = self._by_index[subgroup_index]
        # The bound caps the pool's footprint; the loop reaps the awaited
        # writes, raising their errors outside ``put``.
        older = self._write_behind[: max(0, len(self._write_behind) - (PREFETCH_DEPTH - 1))]
        concurrent.futures.wait([f for entry in older for f in entry[1]])
        landed: concurrent.futures.Future = concurrent.futures.Future()
        self._write_behind.append(
            self._flush_behind(sg, arrays, functools.partial(landed.set_result, None))
        )
        return landed

    def _release_evicted(self, subgroup_index: int, arrays: Mapping[str, np.ndarray]) -> None:
        """Cache-departure callback: recycle pooled buffers that left the cache."""
        self.pool.release_all(arrays.values())

    # -- introspection ------------------------------------------------------

    def tier_distribution(self) -> Dict[str, float]:
        """Bytes of optimizer state per location (host cache vs physical tiers).

        Striped subgroups are apportioned across their stripe paths according
        to the recorded extents (the bytes physically live there), not
        attributed whole to the placement map's tier.
        """
        distribution: Dict[str, float] = {name: 0.0 for name in self.tier.tier_names}
        distribution["host"] = 0.0
        for sg in self.subgroups:
            nbytes = float(sg.optimizer_state_bytes)
            if sg.index in self.cache:
                distribution["host"] += nbytes
                continue
            shares = self.tier.stripe_shares(sg.key)
            if shares:
                for name, fraction in shares.items():
                    distribution[name] = distribution.get(name, 0.0) + nbytes * fraction
            else:
                distribution[self.tier.placement.tier_of(sg.index)] += nbytes
        return distribution

    def fetch_master_params(self) -> np.ndarray:
        """Gather the rank's full FP32 master parameter vector (for tests/checkpointing)."""
        flat = np.zeros(self.layout.rank_params(self.rank), dtype=np.float32)
        for sg in self.subgroups:
            cached = self.cache.peek(sg.index)
            if cached is not None and "params" in cached:
                flat[self._views[sg.index]] = np.asarray(cached["params"], dtype=np.float32)
            elif self.ckpt.is_pending(sg.index):
                # Lazily restored subgroup not yet fetched: read its params
                # from the checkpoint stores; it stays pending for the update.
                self.ckpt.read_field(sg.index, "params", flat[self._views[sg.index]])
            else:
                arrays = self.tier.fetch_subgroup(sg.key, sg.index, ["params"])
                flat[self._views[sg.index]] = arrays["params"]
        return flat

    # -- checkpoint / restart (delegates to ``self.ckpt``) ---------------------

    def save_checkpoint(
        self,
        fp16_params: np.ndarray,
        *,
        user_data: Optional[Dict[str, object]] = None,
        wait: bool = False,
    ) -> int:
        """Snapshot the engine state (plus ``fp16_params``) as a new version.

        Must be called at an iteration boundary (right after
        :meth:`run_update` returned — every lazy flush has drained, so tier
        blobs are the authoritative copy of uncached subgroups).  Tier-
        resident subgroups are referenced by content (hard links, no data
        movement); dirty host-cached subgroups and the FP16 working copy are
        staged through pooled buffers and drained asynchronously, overlapped
        with whatever the caller does next — typically the next training
        iteration.  ``wait=True`` blocks until the version is committed.

        Returns the new checkpoint version number.
        """
        self.ckpt.require_writer()
        if not self._initialized:
            raise RuntimeError("engine not initialized")
        self._drain_grad_flushes()
        return self.ckpt.save(
            fp16_params,
            iteration=self._update_count,
            steps=self._steps,
            user_data=user_data,
            wait=wait,
        )

    def maybe_checkpoint(
        self,
        fp16_params: np.ndarray,
        *,
        user_data: Optional[Dict[str, object]] = None,
        wait: bool = False,
    ) -> Optional[int]:
        """Checkpoint every ``checkpoint_interval`` update phases (else no-op).

        Returns the new version number, or ``None`` when checkpointing is
        not configured or this iteration is off the interval.
        """
        if self.checkpointer is None:
            return None
        if self._update_count == 0 or self._update_count % self.config.checkpoint_interval:
            return None
        return self.save_checkpoint(fp16_params, user_data=user_data, wait=wait)

    def checkpoint_wait(self) -> Optional[int]:
        """Block until the in-flight checkpoint (if any) commits (and, under
        global coordination, stand for the promotion election)."""
        return self.ckpt.wait()

    def restore_checkpoint(
        self, version: Optional[int] = None, *, verify: bool = True
    ) -> RestoredCheckpoint:
        """Rebuild the engine from a committed checkpoint version.

        Must be called on a *fresh* (uninitialized) engine over the same
        storage configuration.  Loads the chosen (or latest) manifest,
        validates its layout echo, reads (and, with ``verify`` on,
        digest-verifies) the FP16 working copy, rebuilds the virtual-tier
        placement from the recorded assignments and restores the Adam step
        counters and iteration count.  The FP32 optimizer state is streamed:
        subgroups whose checkpoint refs are hard-linked tier blobs are
        *linked straight back* into the tier stores (a metadata operation
        per blob, zero payload bytes moved); staged subgroups — the dirty
        residue — stay *pending* and are read out of the checkpoint stores
        on their first fetch (decoded and digest-verified through pooled
        buffers).  Restart cost is O(dirty residue), not O(state).  With
        ``verify`` on, linked blobs get a header-only geometry check against
        the manifest; their payload *content* is not re-read (that is the
        point of the hard link) — use :meth:`CheckpointReader.verify_blobs`
        for a full content audit when the stores are suspect.  A failed
        restore leaves the engine fresh, so a retry against another version
        starts clean.

        Returns the restored FP16 working parameters and user data; training
        resumes exactly where the snapshot was taken — the crash-restart
        tests assert the resumed trajectory is bitwise identical to an
        uninterrupted run.

        With ``checkpoint_coordination`` on, ``version`` names a *global*
        version: the restore first rolls forward any fully-prepared version
        the crash left unpromoted, resolves the newest ``GLOBAL-<v>.json``
        commit record (or the requested one), discards torn per-rank
        manifests beyond it, and restores this rank's manifest of that cut —
        so every rank of the job resumes from one consistent version, never
        a mix.  When the cut was written at a *different*
        ``checkpoint_world_size`` than this engine's layout, the restore
        re-partitions the old world's blobs onto this rank's subgroups
        (elastic restart; see :mod:`repro.ckpt.elastic`) — the gathered FP32
        master state is bitwise-equal to the pre-crash gather.
        """
        self.ckpt.require_writer()
        if self._initialized:
            raise RuntimeError("restore_checkpoint requires a fresh engine")
        restored, self._steps = self.ckpt.restore(version, verify=verify)
        self._update_count = restored.iteration
        self._initialized = True
        return restored

    @property
    def update_count(self) -> int:
        return self._update_count

    def close(self) -> None:
        self._drain_grad_flushes(swallow_errors=True)
        try:
            self.ckpt.close()
        finally:
            self.tier.close()

    def __enter__(self) -> "OffloadEngineBase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MLPOffloadEngine(OffloadEngineBase):
    """The fully-enabled MLP-Offload engine (all four design principles on).

    This is a thin alias over :class:`OffloadEngineBase`: the behaviour is
    entirely driven by :class:`~repro.core.config.MLPOffloadConfig`, and this
    class exists to give the paper's engine a first-class name next to the
    :class:`~repro.zero.zero3_engine.ZeRO3OffloadEngine` baseline.
    """
