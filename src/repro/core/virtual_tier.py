"""The virtual third-level tier: multiple physical paths behind one interface.

A :class:`VirtualTier` owns one :class:`~repro.tiers.file_store.FileStore`
per configured physical path plus the shared asynchronous I/O engine, the
bandwidth estimator and the placement map.  The offloading engines interact
only with subgroup-level operations (``fetch``, ``flush``, ``prefetch``) and
never see individual files or tiers directly — exactly the "unified
multi-level, multi-path asynchronous offloading using virtual tiers" of §3.2.

With :attr:`StripeConfig.enabled <repro.core.config.StripeConfig.enabled>` on
(and at least two active paths), fields whose payload exceeds
``stripe.threshold_bytes`` are striped across the paths through a
:class:`~repro.tiers.striped_store.StripedStore`: flushes write one blob per
stripe (each write still single-path), and prefetches fan the stripes out
through :meth:`AsyncIOEngine.read_into_multi` so NVMe and PFS stream into
disjoint slices of the same pooled destination array *simultaneously* —
aggregating read bandwidth while preserving the zero-copy invariant.  The
stripe split follows the adaptive bandwidth estimates (Equation 1 applied
within a field); the per-key manifest makes reads self-describing, so the
split may drift between iterations.  Fields below the threshold keep the
whole-blob single-tier layout governed by the placement map.

Every path is watched by a :class:`~repro.core.path_health.PathHealth`:
quarantined paths are routed around, and flushes or striped reads that
die on a path recover through the rewrite and fallback read defined here.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aio.engine import AsyncIOEngine, IOResult, IORetryPolicy, chain_io_result
from repro.aio.locks import TierLockManager
from repro.aio.microbench import probe_tiers
from repro.core.config import MLPOffloadConfig
from repro.core.path_health import PathHealth, recover_on_path_fatal
from repro.core.performance_model import BandwidthEstimator, allocation_from_ratios
from repro.core.placement import PlacementMap
from repro.aio import backends as io_backends
from repro.tiers import faultstore
from repro.tiers.file_store import FileStore, StoreError, element_count
from repro.tiers.spec import BlobStore
from repro.tiers.striped_store import DegradedReadError, StripedStore
from repro.train.sharding import GRAD_FIELD, STATE_FIELDS
from repro.util.logging import get_logger

_LOG = get_logger("core.virtual_tier")


@dataclass(frozen=True)
class TierBlobRef:
    """One tier-resident blob segment of an offloaded field.

    The checkpoint planner consumes these to reference a field's bytes
    *where they already live* (one segment for a whole blob, one per stripe
    for striped fields) instead of copying them.  ``start``/``count`` locate
    the segment's elements within the flat field; ``checksum`` is the
    payload CRC-32 when the store recorded one at write time (``None``
    otherwise — the checkpoint writer then computes it lazily).
    """

    tier: str
    key: str
    start: int
    count: int
    nbytes: int
    checksum: Optional[int]


def _recovered(
    failed: IOResult,
    start: float,
    *,
    error: Optional[BaseException] = None,
    nbytes: int = 0,
    array: Optional[np.ndarray] = None,
) -> IOResult:
    """``failed`` rewritten with the outcome of the recovery begun at ``start``."""
    seconds = failed.seconds + (time.perf_counter() - start)
    if error is not None:
        return replace(failed, nbytes=0, seconds=seconds, array=None, error=error)
    return replace(
        failed,
        nbytes=nbytes,
        seconds=seconds,
        array=array,
        error=None,
        attempts=failed.attempts + 1,
        timed_out=False,
    )


class VirtualTier:
    """Aggregate of physical storage tiers presenting subgroup-level I/O.

    Parameters
    ----------
    config:
        The engine configuration (tier paths, multipath switch, bandwidth
        hints, smoothing factor).
    worker:
        Worker identity used for tier-exclusive locking.
    lock_manager:
        Node-level lock manager shared by all workers of the node (may be
        ``None`` to disable locking at the I/O layer).
    queue_depth:
        Passed through to the :class:`AsyncIOEngine`.  Its thread count is
        derived, not passed: two per (active path, direction) channel, i.e.
        ``4 * len(tier_names)`` — one request transfers while the next waits
        for its slot on that channel's throttle, so a sleeping write never
        holds the thread another channel's read needs.
    """

    def __init__(
        self,
        config: MLPOffloadConfig,
        *,
        worker: str = "worker0",
        lock_manager: Optional[TierLockManager] = None,
        queue_depth: int = 16,
        throttles: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.config = config
        self.worker = worker
        #: When checkpointing is configured, whether state-field writes
        #: record their payload digest.  The engine narrows this to the
        #: iterations whose boundary actually snapshots (with
        #: ``checkpoint_interval`` N, hashing the other N-1 iterations'
        #: blobs would be wasted — they are overwritten before any snapshot
        #: can link them); an untracked blob that does get exported falls
        #: back to one maintenance read (`FileStore.compute_checksum`).
        self.track_writes = config.checkpoint_enabled
        active_tiers = config.tiers if config.enable_multipath else (config.primary_tier,)
        self.tier_names: List[str] = [t.name for t in active_tiers]
        self.stores: Dict[str, BlobStore] = {}
        for tier in active_tiers:
            throttle = None
            if throttles is not None:
                throttle = throttles.get(tier.name)  # type: ignore[assignment]
            # Resolve the raw-I/O backend per tier: O_DIRECT availability is
            # a property of each path's filesystem, so one tier may run
            # odirect while another falls back to thread.
            tier_path = Path(tier.path)
            tier_path.mkdir(parents=True, exist_ok=True)
            backend = io_backends.resolve(
                config.io.backend, tier_path, alignment=config.io.alignment_bytes
            )
            self.stores[tier.name] = FileStore(
                tier_path,
                name=tier.name,
                throttle=throttle,
                backend=backend,
                # The checkpoint planner references tier-resident blobs by
                # content; recording the digest at write time keeps snapshots
                # from ever re-reading those blobs just to checksum them.
                # Gradient blobs are re-written every micro-batch and never
                # checkpointed, so they always skip the hashing cost.
                track_checksums=(
                    self._should_track_write if config.checkpoint_enabled else False
                ),
            )
        # Fault injection (tests / chaos drills): wrapping *before* the
        # engine and the striped store are built puts every downstream code
        # path — stripe writes, manifest reads, recovery probes — behind the
        # same injection point.  A no-op when no plan is armed.
        self.stores = faultstore.maybe_wrap(self.stores)
        self.engine = AsyncIOEngine(
            self.stores,
            num_threads=4 * len(self.tier_names),
            queue_depth=queue_depth,
            lock_manager=lock_manager if config.enable_tier_locks else None,
            retry_policy=IORetryPolicy(
                attempts=config.io.retry_attempts,
                backoff_seconds=config.io.retry_backoff_seconds,
                deadline_seconds=config.io.deadline_seconds,
            ),
        )
        self.health = PathHealth(
            self.tier_names,
            quarantine_after=config.path_quarantine_failures,
            probe_interval=config.path_probe_interval,
        )
        self.engine.observer = self.health
        self.estimator = self._build_estimator()
        self.placement: Optional[PlacementMap] = None
        self._pending: Dict[str, concurrent.futures.Future] = {}
        # Striped multi-path reads: fields above the threshold are striped
        # across the first ``stripe_fanout()`` active paths.
        fanout = config.stripe_fanout()
        self.striped: Optional[StripedStore] = None
        self.stripe_tier_names: List[str] = []
        if fanout >= 2 and len(self.tier_names) >= 2:
            self.stripe_tier_names = self.tier_names[: min(fanout, len(self.tier_names))]
            stripe_stores = [self.stores[name] for name in self.stripe_tier_names]
            self.striped = StripedStore(
                stripe_stores,
                threshold_bytes=config.stripe.threshold_bytes,
                # O_DIRECT-backed paths need every stripe start on an aligned
                # byte boundary; thread-backed paths report alignment 1 and
                # the plans stay byte-identical to the unaligned layout.
                align_bytes=max(
                    getattr(store, "io_alignment", 1) for store in stripe_stores
                ),
            )

    # -- construction helpers ---------------------------------------------

    def _should_track_write(self, key: str) -> bool:
        """Checksum-tracking predicate: state blobs, in tracked phases only."""
        return self.track_writes and GRAD_FIELD not in key

    def _build_estimator(self) -> BandwidthEstimator:
        configured = self.config.bandwidth_hints()
        hints = {name: configured[name] for name in self.tier_names if name in configured}
        missing = [name for name in self.tier_names if name not in hints]
        if missing:
            probed = probe_tiers({name: self.stores[name] for name in missing})
            hints.update(probed)
        return BandwidthEstimator(initial=hints, smoothing=self.config.bandwidth_smoothing)

    def initial_allocation(self, num_subgroups: int) -> Dict[str, int]:
        """Equation 1 allocation for ``num_subgroups`` (honouring explicit ratios)."""
        ratios = self.config.explicit_ratios()
        if ratios is not None and self.config.enable_multipath:
            active = {name: ratios[name] for name in self.tier_names}
            return allocation_from_ratios(num_subgroups, active)
        if not self.config.enable_multipath:
            primary = self.tier_names[0]
            allocation = {name: 0 for name in self.tier_names}
            allocation[primary] = num_subgroups
            return allocation
        return self.estimator.allocate(num_subgroups)

    def build_placement(self, subgroup_ids: Iterable[int]) -> PlacementMap:
        """Create (and remember) the initial placement for the given subgroups."""
        ids = list(subgroup_ids)
        allocation = self.initial_allocation(len(ids))
        self.placement = PlacementMap.from_allocation(ids, allocation)
        return self.placement

    # -- subgroup I/O -------------------------------------------------------

    @staticmethod
    def _field_key(subgroup_key: str, fieldname: str) -> str:
        return f"{subgroup_key}.{fieldname}"

    def flush_subgroup(
        self,
        subgroup_key: str,
        subgroup_id: int,
        arrays: Mapping[str, np.ndarray],
        *,
        tier: Optional[str] = None,
        wait: bool = True,
    ) -> List[concurrent.futures.Future]:
        """Write one subgroup's arrays to a physical tier (asynchronously).

        The target tier defaults to the placement map's current assignment;
        passing ``tier`` overrides it (lazy flush to an idle tier) and the
        placement map is updated accordingly.  The override governs *whole*
        (unstriped) fields only: striped fields always write to their fixed
        stripe paths, since their bytes span every path by construction.

        Deadlock note: a striped flush submits writes against multiple
        tiers.  Callers must therefore NOT invoke it while holding one
        tier's exclusive lease (two workers doing so from different tiers
        deadlock ABBA-style); use :meth:`will_stripe` to decide whether to
        take a lease first.  The I/O engine's per-request lease acquisition
        still serializes each stripe write per tier.
        """
        if self.placement is None:
            raise RuntimeError("placement not built; call build_placement() first")
        target = tier if tier is not None else self.placement.tier_of(subgroup_id)
        # Degraded routing: never aim a whole-blob write at a quarantined
        # path (striped writes mask dead paths out via the plan weights).
        target = self.health.healthy_target(target)
        # Record the placement BEFORE submitting: a failover rewrite may
        # re-route the write and reassign from its completion callback, and
        # that reassignment must not be overwritten by this thread.
        self.placement.assign(subgroup_id, target)
        futures = []
        for name, array in arrays.items():
            key = self._field_key(subgroup_key, name)
            if self._stripes(array):
                # Stripe the field across the paths; each stripe is written
                # through the engine as an ordinary single-path write.
                parts = self.striped.plan_save(key, array, weights=self._stripe_weights())
                # Commit-after-barrier: the new stripe generation is
                # published only once every stripe write has landed, chained
                # behind the aggregate future so whoever awaits the flush
                # also observes the commit.  A failed barrier abandons the
                # plan instead — the committed generation stays
                # authoritative and the next commit's orphan sweep is
                # re-armed for the partial stripes left behind.
                future = chain_io_result(
                    self.engine.write_multi(
                        [(p.tier, p.key, p.array) for p in parts], key=key, worker=self.worker
                    ),
                    lambda _result, k=key: self._commit_striped(k),
                    on_error=lambda _result, k=key: self.striped.abandon_save(k),
                )
            elif self.striped is not None and self.striped.is_striped(key):
                # The field shrank below the threshold (or striping policy
                # changed): downgrade striped → whole.  Land the whole blob
                # first; drop the stale striped layout only behind the
                # barrier.  Until the drop, the manifest stays authoritative
                # (readers see the complete old value), so a crash anywhere
                # in between never leaves the field without a complete
                # representation.
                future = chain_io_result(
                    self.engine.write(target, key, array, worker=self.worker),
                    lambda _result, k=key: self.striped.drop_stripes(k),
                )
            else:
                future = self.engine.write(target, key, array, worker=self.worker)
            futures.append(
                recover_on_path_fatal(
                    future,
                    lambda result, k=key, a=array: self._failover_rewrite(
                        result, k, a, subgroup_id
                    ),
                )
            )
        if wait:
            for future in futures:
                result = future.result()
                if not result.ok:
                    raise result.error  # type: ignore[misc]
        return futures

    def _commit_striped(self, key: str) -> None:
        """Commit a striped flush and finish the stale-blob sweep.

        Runs as the chained epilogue of the flush's aggregate write future.
        :meth:`StripedStore.commit_save` sweeps its own backends; whole
        blobs on tiers *outside* the stripe set (from an earlier unstriped
        placement) are swept here, after the manifest is durable, so a crash
        at any point leaves at least one complete representation readable.
        Both sweeps run only on the key's first commit (commit_save's
        return) — steady-state re-flushes skip the stat walk entirely.
        """
        assert self.striped is not None
        if not self.striped.commit_save(key):
            return
        for tier_name in self.tier_names:
            if tier_name not in self.stripe_tier_names and self.stores[tier_name].contains(key):
                self.stores[tier_name].delete(key)

    # -- degraded-mode recoveries (path_health.recover_on_path_fatal) -------

    def _failover_rewrite(
        self, result: IOResult, key: str, array: np.ndarray, subgroup_id: int
    ) -> IOResult:
        """Quarantine the failed path and rewrite ``key`` onto survivors.

        Runs on the I/O thread completing the failed flush; the rewrite
        goes through the stores *directly* — resubmitting into the engine
        from one of its own completion callbacks could deadlock on a full
        submission queue.  Success reports the flush as done, so training
        never observes the dead path.
        """
        assert self.placement is not None
        dead = self.health.quarantine_failed(result)
        start = time.perf_counter()
        try:
            if self._stripes(array):
                # Re-stripe over the survivors: the degraded weights give
                # the dead path zero extents, and save_from handles its own
                # commit (or abandon on failure).
                self.striped.save_from(key, array, weights=self._stripe_weights())
                routed = "surviving stripe paths"
            else:
                target = self.health.healthy_target(self.placement.tier_of(subgroup_id))
                self.stores[target].save_from(key, array)
                # Drop a stale striped layout only once the whole blob has
                # landed: if the rewrite fails, the committed stripes stay
                # the field's complete value.
                if self.striped is not None:
                    self.striped.drop_stripes(key)
                self.placement.assign(subgroup_id, target)
                routed = f"whole blob on {target!r}"
        except Exception as exc:
            exc.__cause__ = result.error
            return _recovered(result, start, error=exc)
        self.health.record_failover()
        _LOG.warning("flush of %r failed over off dead path %r to %s", key, dead, routed)
        return _recovered(result, start, nbytes=int(array.nbytes))

    def _degraded_read(self, result: IOResult, key: str, out: np.ndarray) -> IOResult:
        """Serve a failed striped read from a whole-blob copy on a survivor.

        Any complete whole-blob copy of the key on a surviving path (e.g.
        from an earlier unstriped placement or a degraded rewrite) satisfies
        the read; otherwise the failure surfaces as a typed
        :class:`DegradedReadError` naming the dead path, so callers can
        distinguish "the device died" from data corruption.
        """
        dead = self.health.quarantine_failed(result)
        start = time.perf_counter()
        for name in self.tier_names:
            if name == dead:
                continue
            store = self.stores[name]
            try:
                if not store.contains(key):
                    continue
                store.load_into(key, out)
            except Exception:
                continue
            self.health.record_degraded_read()
            _LOG.warning(
                "striped read of %r failed over to whole-blob copy on %r "
                "(path %r quarantined)",
                key,
                name,
                dead,
            )
            return _recovered(result, start, nbytes=int(out.nbytes), array=out)
        error: BaseException = DegradedReadError(key, [dead])
        error.__cause__ = result.error
        return _recovered(result, start, error=error)

    @property
    def failover_count(self) -> int:
        """Total transparent degraded-mode recoveries (writes + reads)."""
        return self.health.failover_count

    def prefetch_subgroup(
        self,
        subgroup_key: str,
        subgroup_id: int,
        fields: Iterable[str],
        *,
        out_arrays: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, concurrent.futures.Future]:
        """Start asynchronous reads of the subgroup's arrays; returns field→future.

        When ``out_arrays`` supplies a destination for a field, the read is
        zero-copy: the store deserializes directly into the caller's (pooled)
        array instead of allocating a fresh one.  Striped fields fan out as
        one concurrent read per stripe — all paths stream into disjoint
        slices of the destination simultaneously — behind a single
        per-field aggregate future.
        """
        if self.placement is None:
            raise RuntimeError("placement not built; call build_placement() first")
        tier = self.placement.tier_of(subgroup_id)
        futures: Dict[str, concurrent.futures.Future] = {}
        for fieldname in fields:
            key = self._field_key(subgroup_key, fieldname)
            out = out_arrays.get(fieldname) if out_arrays is not None else None
            if self.striped is not None and self.striped.is_striped(key):
                if out is None:
                    dtype, shape = self.striped.meta_of(key)
                    count = element_count(shape)
                    out = np.empty(count, dtype=dtype)
                parts = self.striped.plan_load(key, out)
                futures[fieldname] = recover_on_path_fatal(
                    self.engine.read_into_multi(
                        [(p.tier, p.key, p.array) for p in parts],
                        out,
                        key=key,
                        worker=self.worker,
                    ),
                    lambda result, k=key, o=out: self._degraded_read(result, k, o),
                )
            elif out is not None:
                futures[fieldname] = self.engine.read_into(tier, key, out, worker=self.worker)
            else:
                futures[fieldname] = self.engine.read(tier, key, worker=self.worker)
        return futures

    def fetch_subgroup(
        self, subgroup_key: str, subgroup_id: int, fields: Iterable[str]
    ) -> Dict[str, np.ndarray]:
        """Synchronously read the subgroup's arrays (prefetch + wait)."""
        futures = self.prefetch_subgroup(subgroup_key, subgroup_id, fields)
        return self.wait_fetch(futures)

    @staticmethod
    def wait_fetch(futures: Mapping[str, concurrent.futures.Future]) -> Dict[str, np.ndarray]:
        """Wait for a prefetch started via :meth:`prefetch_subgroup`."""
        arrays: Dict[str, np.ndarray] = {}
        for fieldname, future in futures.items():
            result: IOResult = future.result()
            if not result.ok:
                raise result.error  # type: ignore[misc]
            assert result.array is not None
            arrays[fieldname] = result.array
        return arrays

    def delete_subgroup_field(self, subgroup_key: str, subgroup_id: int, fieldname: str) -> None:
        """Remove one field of a subgroup from its tier (ignoring missing files)."""
        if self.placement is None:
            raise RuntimeError("placement not built")
        key = self._field_key(subgroup_key, fieldname)
        if self.striped is not None and self.striped.is_striped(key):
            self.striped.delete(key)
            # Whole blobs on tiers outside the stripe set are beyond the
            # striped store's reach; sweep them here too.
            for store in self.stores.values():
                if store.contains(key):
                    store.delete(key)
            return
        tier = self.placement.tier_of(subgroup_id)
        store = self.stores[tier]
        if store.contains(key):
            store.delete(key)

    def export_field_blobs(
        self, subgroup_key: str, subgroup_id: int, fieldname: str, *, dtype: np.dtype
    ) -> List[TierBlobRef]:
        """Reference one field's tier-resident bytes for the checkpoint planner.

        Returns one :class:`TierBlobRef` per physical blob holding the field
        — a single whole-blob segment, or one segment per stripe for striped
        fields — without touching the payload.  The caller must only invoke
        this at a quiescent iteration boundary (no flush of the subgroup in
        flight), which is when the referenced blobs are the authoritative
        copy of the field.
        """
        if self.placement is None:
            raise RuntimeError("placement not built")
        key = self._field_key(subgroup_key, fieldname)
        itemsize = int(np.dtype(dtype).itemsize)
        stripes = self.striped.stripe_keys(key) if self.striped is not None else None
        if stripes is not None:
            refs = []
            for ext, skey in stripes:
                if ext.path >= len(self.stripe_tier_names):
                    raise StoreError(
                        f"striped key {key!r} references path {ext.path} outside the "
                        "configured stripe set"
                    )
                tier = self.stripe_tier_names[ext.path]
                refs.append(
                    TierBlobRef(
                        tier=tier,
                        key=skey,
                        start=ext.start,
                        count=ext.count,
                        nbytes=ext.count * itemsize,
                        checksum=self.stores[tier].checksum_of(skey),
                    )
                )
            return refs
        tier = self.placement.tier_of(subgroup_id)
        store = self.stores[tier]
        if not store.contains(key):
            raise StoreError(f"subgroup field {key!r} is not resident on tier {tier!r}")
        dtype_meta, shape = store.meta_of(key)
        if dtype_meta != np.dtype(dtype):
            raise StoreError(
                f"field {key!r} on tier {tier!r} has dtype {dtype_meta.name}, "
                f"expected {np.dtype(dtype).name}"
            )
        count = element_count(shape)
        return [
            TierBlobRef(
                tier=tier,
                key=key,
                start=0,
                count=count,
                nbytes=count * itemsize,
                checksum=store.checksum_of(key),
            )
        ]

    def blob_path(self, tier: str, key: str) -> Path:
        """Filesystem path of a tier blob (for hard-link checkpoint references)."""
        return self.stores[tier].path_of(key)

    def adopt_field_blobs(
        self,
        subgroup_key: str,
        fieldname: str,
        segments: "Sequence[Tuple[str, Path, int, int, Optional[int]]]",
        *,
        dtype: "np.dtype | type" = np.float32,
    ) -> None:
        """Hard-link checkpoint blobs back as one field's tier representation.

        The exact reverse of :meth:`export_field_blobs` + ``FileStore.adopt``:
        ``segments`` is the ordered ``(tier, source_path, start, count,
        checksum)`` list of a *linked* checkpoint blob ref — one entry for a
        whole blob, one per stripe for striped fields.  Each source sits in
        that tier's checkpoint store (same filesystem), so adoption moves
        zero payload bytes.  Raises :class:`StoreError` when the recorded
        layout cannot be represented under the current configuration (tier
        gone, striping disabled, stripe set narrowed) — callers then fall
        back to a streamed lazy restore of the field.
        """
        key = self._field_key(subgroup_key, fieldname)
        if len(segments) == 1:
            tier, source, _, _, checksum = segments[0]
            store = self.stores.get(tier)
            if store is None:
                raise StoreError(f"cannot adopt {key!r}: tier {tier!r} is not configured")
            if self.striped is not None:
                self.striped.drop_stripes(key)  # stale striped layout, if any
            store.adopt(key, source, checksum=checksum)
            return
        if self.striped is None:
            raise StoreError(
                f"cannot adopt striped field {key!r}: striping is not enabled"
            )
        count = sum(int(seg[3]) for seg in segments)
        for tier_name in self.tier_names:
            # A stale whole blob (e.g. from a crashed run's divergent flush)
            # must not shadow the adopted striped representation.  Stripe-set
            # backends are swept by adopt_striped's own commit; only tiers
            # outside it need covering here.
            if tier_name in self.stripe_tier_names:
                continue
            if self.stores[tier_name].contains(key):
                self.stores[tier_name].delete(key)
        self.striped.adopt_striped(key, list(segments), dtype=dtype, count=count)

    def _stripes(self, array: np.ndarray) -> bool:
        """Whether a flush of ``array`` now is written striped.

        Fields at or above the stripe threshold stripe while path health
        allows a new striped write (two healthy stripe paths, healthy
        primary); everything else is written as a whole blob.
        """
        return (
            self.striped is not None
            and array.nbytes >= self.config.stripe.threshold_bytes
            and self.health.can_stripe(self.stripe_tier_names)
        )

    def will_stripe(self, arrays: Mapping[str, np.ndarray]) -> bool:
        """Whether flushing ``arrays`` would route any field through striping.

        Callers holding tier-exclusive leases use this to avoid wrapping a
        multi-path flush in a single tier's lease (see the deadlock note on
        :meth:`flush_subgroup`).
        """
        return any(self._stripes(array) for array in arrays.values())

    def is_striped_subgroup(self, subgroup_key: str) -> bool:
        """Whether the subgroup's state fields are currently stored striped."""
        return self.striped is not None and self.striped.is_striped(
            self._field_key(subgroup_key, STATE_FIELDS[0])
        )

    def stripe_shares(self, subgroup_key: str) -> Optional[Dict[str, float]]:
        """Fraction of a striped subgroup's bytes per physical path.

        Derived from the ``params`` field's manifest (all state fields of a
        subgroup share one geometry, so one manifest represents them all).
        Returns ``None`` when the subgroup is not striped — its bytes then
        live whole on the placement map's tier.
        """
        if self.striped is None:
            return None
        extents = self.striped.extents_of(self._field_key(subgroup_key, STATE_FIELDS[0]))
        if extents is None:
            return None
        total = sum(ext.count for ext in extents)
        if total <= 0:
            return None
        shares: Dict[str, float] = {}
        for ext in extents:
            if ext.path < len(self.stripe_tier_names):
                name = self.stripe_tier_names[ext.path]
                shares[name] = shares.get(name, 0.0) + ext.count / total
        return shares

    def _stripe_weights(self) -> "Optional[List[float]]":
        """Per-path stripe weights, sized by each path's *read* bandwidth.

        Reads and flushes both fan out concurrently across the stripes
        (``read_into_multi`` / ``write_multi``), but a read is on the update's
        critical path while a flush is written behind it, so the split
        equalizes per-path *read* time: a tier's declared ``read_bw`` hint is
        preferred over the estimator's min(read, write)-blended estimate
        (which undersizes asymmetric paths like an NVMe that reads much
        faster than it writes).  Once per-operation latency is counted, the
        read split also keeps the write channels close: at Testbed-1 rates
        ÷ 32, 48 MB in 24 operations per path puts 31.5 MB on nvme
        (31.5 MB / 166 MB/s + 24 × 0.5 ms ≈ 202 ms) and 16.5 MB on pfs
        (16.5 MB / 112 MB/s + 24 × 2 ms ≈ 195 ms), and a
        min(read_bw, write_bw) split measured slower end to end (two
        co-located ranks: 0.516 → 0.564 s per step).  Tiers
        without a read hint fall back to the adaptive estimate; an equal
        split (``None``) is used when no positive weight is available.
        Quarantined paths are masked to zero
        (:meth:`PathHealth.stripe_weights`).
        """
        bandwidths = self.estimator.bandwidths
        weights = []
        for name in self.stripe_tier_names:
            hint = self.config.tier(name).read_bw
            if hint is not None:
                weights.append(float(hint))
            else:
                weights.append(max(float(bandwidths.get(name, 0.0)), 0.0))
        return self.health.stripe_weights(weights, self.stripe_tier_names)

    # -- feedback & accounting ---------------------------------------------

    def observe_iteration(self) -> Dict[str, float]:
        """Feed observed per-tier I/O back into the bandwidth estimator.

        Returns the updated estimates.  Called once per update phase when
        ``adaptive_bandwidth`` is enabled (§3.3).  Also advances the
        path-health quarantine timers and runs any recovery probes that
        came due — a re-admitted path rejoins stripe planning on the next
        flush.
        """
        for name in self.health.tick():
            self.health.probe(name, self.stores[name], self.worker)
        if not self.config.adaptive_bandwidth:
            return self.estimator.bandwidths
        for name in self.tier_names:
            stats = self.engine.tier_stats(name)
            nbytes = stats.bytes_read + stats.bytes_written
            seconds = stats.read_seconds + stats.write_seconds
            if nbytes > 0 and seconds > 0:
                self.estimator.observe(name, nbytes, seconds)
        return self.estimator.bandwidths

    def io_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tier byte and time counters accumulated so far."""
        summary: Dict[str, Dict[str, float]] = {}
        for name in self.tier_names:
            stats = self.engine.tier_stats(name)
            summary[name] = {
                "bytes_read": float(stats.bytes_read),
                "bytes_written": float(stats.bytes_written),
                "read_seconds": stats.read_seconds,
                "write_seconds": stats.write_seconds,
                "read_ops": float(stats.read_ops),
                "write_ops": float(stats.write_ops),
            }
        return summary

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "VirtualTier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
