"""Asynchronous checkpoint snapshot planner and writer.

The writer turns one consistent iteration-boundary view of an offload
engine's state into a committed checkpoint version in two phases:

**Synchronous snapshot** (inside :meth:`CheckpointWriter.snapshot`, on the
caller's thread):

* *linked* fields — subgroups whose authoritative copy already sits on a
  storage tier — are referenced by content: their payload digest comes from
  the tier store's write-time registry (or one fallback read), and the blob
  file is hard-linked into the tier's content-addressed checkpoint store.
  No payload bytes move; cost is a metadata operation per blob.
* *staged* fields — subgroups whose newest state lives dirty in the host
  cache, plus the FP16 working parameters — have already been copied by the
  engine into private pooled scratch buffers; the writer only records them
  for the drain.

**Asynchronous drain** (a background thread per snapshot): staged buffers
are checksummed, striped across the checkpoint stores when large
(:func:`repro.tiers.spec.plan_stripes` — the same extent math the striped
tier reads use), encoded through the configured codec (:mod:`repro.codec`;
content addressing keys on the *uncompressed* digest, so an unchanged
payload is deduplicated before it is ever encoded), written through a
dedicated :class:`~repro.aio.engine.AsyncIOEngine` (multi-part payloads fan
out via ``write_multi``), and — once every write has landed — the versioned
manifest is committed atomically and retention GC sweeps manifests and
unreferenced blobs.  Training's next iteration runs concurrently with the
drain; the hard-linked inodes are immune to the tier overwrites it performs,
and the staged buffers are private copies.

The default codec, ``raw``, stores staged bytes as they are.
``shuffle-deflate`` shrinks optimizer state only ~1.17x, at ~25-30 MB/s of
encode per core, so it saves write time only on a store slower than
~4 MB/s.  Choose it where stored bytes cost more than drain CPU, e.g. when
a registry push uploads the stored frames (:meth:`CheckpointWriter._registry_push`).

One snapshot may be in flight at a time; starting the next one (or closing
the writer) waits for the previous commit and re-raises its error, so a
failed checkpoint can never be silently lost.
"""

from __future__ import annotations

import errno
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aio.engine import AsyncIOEngine, os_error_in_chain
from repro.ckpt.manifest import (
    BlobRef,
    BlobSegment,
    CheckpointError,
    CheckpointManifest,
    ManifestStore,
    cas_key,
    payload_digest,
    scan_manifest_dir,
)
from repro.ckpt.faults import fault_point
from repro.ckpt.store import CAS_PREFIX, build_blob_stores
from repro.codec import RAW_CODEC, encoded_frame, get_codec
from repro.tiers.array_pool import ArrayPool
from repro.tiers.file_store import StoreError, element_count
from repro.tiers.spec import plan_stripes
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - break the core <-> ckpt import cycle
    from repro.ckpt.coordinator import CheckpointCoordinator
    from repro.core.config import MLPOffloadConfig
    from repro.core.virtual_tier import TierBlobRef, VirtualTier

_LOG = get_logger("ckpt.writer")


def capacity_exhausted(error: BaseException) -> bool:
    """Whether ``error`` means a checkpoint store ran out of space.

    Covers a real ``ENOSPC`` anywhere in the cause chain (the async engine
    preserves it through its retry wrapper — ``ENOSPC`` is deliberately not
    in its transient set) and the :class:`FileStore` soft capacity limit.
    Out-of-space is an *availability* condition the writer degrades through
    (skip the version, keep training), unlike corruption or logic errors
    which must surface.
    """
    chained = os_error_in_chain(error)
    if chained is not None and chained.errno == errno.ENOSPC:
        return True
    current: Optional[BaseException] = error
    while current is not None:
        if isinstance(current, StoreError) and "capacity exceeded" in str(current):
            return True
        current = current.__cause__
    return False


@dataclass
class SubgroupSource:
    """One subgroup's contribution to a snapshot: staged, linked or carried."""

    index: int
    #: Field → private pooled copy of the newest state (dirty residue).
    staged: Optional[Dict[str, np.ndarray]] = None
    #: Field → tier-resident blob references (content, not bytes).
    linked: Optional[Dict[str, List[TierBlobRef]]] = None
    #: Field → blob refs of an earlier committed version, re-referenced
    #: verbatim.  Used for subgroups still awaiting their lazy restore: the
    #: checkpoint-store blobs already hold their exact state, so the new
    #: manifest references them directly — no bytes move, and the reference
    #: keeps the blobs alive across retention GC until the subgroup is
    #: actually restored and re-flushed.
    carried: Optional[Dict[str, BlobRef]] = None

    def __post_init__(self) -> None:
        given = sum(x is not None for x in (self.staged, self.linked, self.carried))
        if given != 1:
            raise CheckpointError(
                f"subgroup {self.index}: exactly one of staged/linked/carried must be given"
            )


class PendingCheckpoint:
    """Handle on one in-flight snapshot: its version plus a completion barrier."""

    def __init__(self, version: int) -> None:
        self.version = version
        #: True when the drain abandoned this version on an out-of-space
        #: condition instead of committing it (see ``capacity_exhausted``).
        #: ``wait()`` then returns normally — the skip is a degradation the
        #: caller can observe, not a failure it must handle.
        self.skipped = False
        self._done = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until the version is committed; re-raise any drain error."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"checkpoint version {self.version} still draining")
        if self._thread is not None:
            self._thread.join()
        if self._error is not None:
            raise self._error
        return self.version

    def _finish(self, error: Optional[BaseException] = None) -> None:
        self._error = error
        self._done.set()


@dataclass
class _StagedItem:
    """One staged array awaiting drain, addressed by its manifest slot."""

    slot: Tuple  # ("sg", index, field) or ("fp16",)
    array: np.ndarray


class CheckpointWriter:
    """Writes versioned checkpoints of one worker's engine state.

    Parameters
    ----------
    config:
        Engine configuration; ``checkpoint_dir`` must be set.  The striping
        switches govern whether large staged blobs are split across the
        checkpoint stores.
    worker:
        Worker identity — namespaces the manifest files.
    pool:
        The engine's :class:`ArrayPool`; staged buffers are returned to it
        once their writes complete.
    tier:
        The engine's :class:`VirtualTier` — source of hard-link paths and
        fallback checksums for linked blobs.
    throttles:
        Per-tier bandwidth throttles shared with the tier stores (checkpoint
        traffic contends with training I/O on the same device timelines).
    """

    def __init__(
        self,
        config: MLPOffloadConfig,
        *,
        worker: str,
        pool: ArrayPool,
        tier: VirtualTier,
        throttles: Optional[Mapping[str, object]] = None,
        coordinator: Optional[CheckpointCoordinator] = None,
    ) -> None:
        if not config.checkpoint_enabled:
            raise CheckpointError("checkpoint_dir is not configured")
        self.config = config
        self.worker = worker
        self.pool = pool
        self.tier = tier
        self.stores = build_blob_stores(config, throttles=throttles)
        self.store_names: List[str] = list(self.stores)
        # A fixed two-thread drain, apart from the tier engine's pool: the
        # drain shares the tiers' throttled devices, so a wider one buys no
        # bandwidth and only holds more buffers in flight (peak RSS).
        self.engine = AsyncIOEngine(self.stores, num_threads=2, queue_depth=32)
        self.manifests = ManifestStore(config.checkpoint_dir, worker)
        #: Global-commit coordinator (two-phase multi-rank protocol); ``None``
        #: keeps the PR 3/4 per-worker independent commits.
        self.coordinator = coordinator
        #: Codec applied to staged payloads on the drain thread ("raw" = none).
        self.codec_name = config.checkpoint_codec
        if self.codec_name != RAW_CODEC:
            get_codec(self.codec_name)  # fail fast on unknown codecs
        self._pending: Optional[PendingCheckpoint] = None
        # Version numbering resumes beyond anything this worker published —
        # committed, still-prepared, or part of a global commit — so a
        # restarted rank can never collide with torn-commit leftovers.
        snapshot = scan_manifest_dir(self.manifests.directory)
        self._last_version = max(
            [
                *snapshot.committed.get(worker, {}),
                *snapshot.prepared.get(worker, {}),
                *(snapshot.global_versions if coordinator is not None else ()),
            ],
            default=0,
        )
        self._closed = False
        #: Cumulative accounting across snapshots (introspection / benches).
        self.linked_blobs = 0
        self.linked_bytes = 0
        self.reused_blobs = 0
        self.staged_blobs = 0
        self.staged_bytes = 0
        #: On-store bytes of the staged blobs after encoding (== staged_bytes
        #: for the "raw" codec); staged_bytes / staged_stored_bytes is the
        #: checkpoint compression ratio.
        self.staged_stored_bytes = 0
        #: (tier, key) → encoded payload size.  Content-addressed blobs are
        #: immutable, so a reused blob's stored size never changes — caching
        #: it spares the drain thread a header read per reuse per snapshot.
        self._stored_sizes: Dict[Tuple[str, str], int] = {}
        #: Registry push accounting (``checkpoint_registry_url``): versions
        #: pushed, bytes actually uploaded vs deduped away, and pushes the
        #: registry failed to take (training continues regardless).
        self.registry_pushes = 0
        self.registry_uploaded_bytes = 0
        self.registry_skipped_bytes = 0
        self.registry_push_failures = 0
        self._registry = None  # lazy RegistryClient, drain-thread only
        #: Checkpoint versions abandoned because a store ran out of space
        #: mid-drain (training continued; the previous version stands).
        self.skipped_versions = 0

    # -- public API --------------------------------------------------------

    def wait(self) -> Optional[int]:
        """Block until the in-flight snapshot (if any) commits; return its version."""
        pending, self._pending = self._pending, None
        if pending is None:
            return None
        return pending.wait()

    def snapshot(
        self,
        *,
        iteration: int,
        layout: Dict[str, int],
        steps: Dict[int, int],
        placement: Dict[int, str],
        subgroups: Sequence[SubgroupSource],
        fp16_params: np.ndarray,
        user_data: Optional[Dict[str, Any]] = None,
    ) -> PendingCheckpoint:
        """Capture one snapshot and start its asynchronous drain.

        ``fp16_params`` and every ``staged`` array in ``subgroups`` must be
        private copies owned by the writer from this call on (typically
        pooled buffers); they are released back to the pool when the drain
        finishes, successfully or not — including when this call itself
        fails (e.g. a previous drain's error re-raised by the pre-snapshot
        wait).  Linked references must describe quiescent tier blobs (no
        flush of those subgroups in flight).
        """
        staged_items: List[_StagedItem] = [_StagedItem(("fp16",), fp16_params)]
        linked_refs: Dict[int, Dict[str, BlobRef]] = {}
        in_drain_window = False
        try:
            # Take ownership of every staged buffer first, so any failure
            # below — including a re-raised previous drain error — releases
            # all of them, not just the ones already walked.
            for source in subgroups:
                if source.staged is not None:
                    for name, array in source.staged.items():
                        staged_items.append(_StagedItem(("sg", source.index, name), array))
            if self._closed:
                raise CheckpointError("checkpoint writer is closed")
            self.wait()
            if self.coordinator is not None:
                # Open the drain window BEFORE any content reuse below: the
                # carry checks and hard-link adoptions re-reference blobs that
                # no manifest protects until this version's prepared manifest
                # lands, and only the published drain-intent lease makes a
                # foreign rank's concurrent blob sweep stand down.  The window
                # stays open across the handoff to the drain thread, which
                # closes it when the manifest publishes (or the drain fails).
                self.coordinator.drain_begin(self.worker)
                in_drain_window = True
            for source in subgroups:
                if source.staged is not None:
                    continue
                if source.carried is not None:
                    linked_refs[source.index] = self._carry_fields(
                        source.index, source.carried
                    )
                    continue
                assert source.linked is not None
                fields: Dict[str, BlobRef] = {}
                for name, refs in source.linked.items():
                    fields[name] = self._link_field(refs)
                linked_refs[source.index] = fields
        except BaseException:
            if in_drain_window:
                self.coordinator.drain_end(self.worker)
            self._release([item.array for item in staged_items])
            raise
        version = self._last_version + 1
        self._last_version = version

        pending = PendingCheckpoint(version)
        manifest_base = dict(
            version=version,
            worker=self.worker,
            iteration=iteration,
            layout=dict(layout),
            steps=dict(steps),
            placement=dict(placement),
            created_unix=time.time(),
            user_data=dict(user_data or {}),
        )
        thread = threading.Thread(
            target=self._drain,
            args=(pending, manifest_base, linked_refs, staged_items),
            name=f"repro-ckpt-{self.worker}-v{version}",
            daemon=True,
        )
        pending._thread = thread
        self._pending = pending
        thread.start()
        return pending

    def close(self) -> None:
        """Wait for the in-flight snapshot and shut the blob I/O engine down."""
        if self._closed:
            return
        try:
            self.wait()
        finally:
            self._closed = True
            self.engine.close()
            if self._registry is not None:
                self._registry.close()
                self._registry = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- synchronous phase: content references ------------------------------

    def _link_field(self, refs: Sequence[TierBlobRef]) -> BlobRef:
        """Bring one linked field into the checkpoint store (links, no copies)."""
        if not refs:
            raise CheckpointError("linked field has no tier blob references")
        segments: List[BlobSegment] = []
        for ref in refs:
            store = self.stores.get(ref.tier)
            tier_store = self.tier.stores.get(ref.tier)
            if store is None or tier_store is None:
                raise CheckpointError(f"no checkpoint store for tier {ref.tier!r}")
            checksum = ref.checksum
            if checksum is None:
                # Blob written before checksum tracking (e.g. by a previous
                # process): one maintenance read fills the registry.
                checksum = tier_store.compute_checksum(ref.key)
            key = cas_key(checksum, ref.nbytes)
            if store.contains(key):
                self.reused_blobs += 1
            else:
                store.adopt(key, self.tier.blob_path(ref.tier, ref.key), checksum=checksum)
                self.linked_blobs += 1
                self.linked_bytes += ref.nbytes
            segments.append(
                BlobSegment(
                    tier=ref.tier,
                    key=key,
                    start=ref.start,
                    count=ref.count,
                    nbytes=ref.nbytes,
                    digest=checksum,
                )
            )
        total = sum(seg.count for seg in segments)
        return BlobRef(
            dtype="float32", count=total, source="linked", segments=tuple(segments)
        )

    def _carry_fields(self, index: int, fields: Mapping[str, BlobRef]) -> Dict[str, BlobRef]:
        """Re-reference an earlier version's blobs verbatim (lazy-restore carry).

        The caller asserts the subgroup's state is exactly what those blobs
        hold (it has not been touched since the restore that produced them);
        every referenced blob must still exist in the checkpoint stores.
        """
        for name, ref in fields.items():
            for seg in ref.segments:
                store = self.stores.get(seg.tier)
                if store is None or not store.contains(seg.key):
                    raise CheckpointError(
                        f"carried blob {seg.key!r} of subgroup {index} field {name!r} "
                        f"is missing on tier {seg.tier!r}"
                    )
                self.reused_blobs += 1
        return dict(fields)

    # -- asynchronous phase: staged drain + commit + GC ----------------------

    def _stage_weights(self, targets: Sequence[str]) -> Optional[List[float]]:
        """Write-bandwidth weights for striping staged blobs (None = equal)."""
        weights = []
        for name in targets:
            hint = self.config.tier(name).write_bw
            if hint is None:
                return None
            weights.append(float(hint))
        return weights if sum(weights) > 0 else None

    def _stored_payload_nbytes(self, tier: str, key: str) -> int:
        """On-store payload size of an existing encoded blob.

        One header read on first sight; cached afterwards (content-addressed
        blobs never change size), so steady-state delta reuse stays free of
        per-snapshot file opens.
        """
        cached = self._stored_sizes.get((tier, key))
        if cached is not None:
            return cached
        dtype, shape = self.stores[tier].meta_of(key)
        nbytes = element_count(shape) * dtype.itemsize
        self._remember_stored_size(tier, key, nbytes)
        return nbytes

    def _remember_stored_size(self, tier: str, key: str, nbytes: int) -> None:
        if len(self._stored_sizes) > 65536:  # bound a very long run's footprint
            self._stored_sizes.clear()
        self._stored_sizes[(tier, key)] = nbytes

    def _plan_staged(
        self,
        item: _StagedItem,
        queued: Dict[Tuple[str, str], Optional[int]],
        encoded: List[np.ndarray],
    ) -> Tuple[BlobRef, List[Tuple[str, str, np.ndarray]]]:
        """Checksum, stripe and encode one staged array; ref plus write parts.

        ``queued`` tracks CAS keys already scheduled earlier in the same
        drain (mapping each to its stored payload size), so identical
        payloads (e.g. several all-zero fields) are written exactly once per
        snapshot — and, since content addressing keys on the *uncompressed*
        digest, a payload already in the store (an earlier version's delta)
        skips encoding entirely.  Encoding runs here, on the drain thread,
        overlapped with the caller's next iteration; frame buffers are
        pooled and appended to ``encoded`` for release once their writes
        land.
        """
        flat = np.ascontiguousarray(item.array).reshape(-1)
        # Stripe across the first ``stripe_fanout()`` checkpoint stores only,
        # with weights trimmed to the same set (mirrors the virtual tier's
        # stripe_tier_names handling for ``stripe.paths`` < tier count).
        fanout = max(1, min(self.config.stripe_fanout(), len(self.store_names)))
        targets = self.store_names[:fanout]
        extents = plan_stripes(
            int(flat.size),
            int(flat.itemsize),
            num_paths=len(targets),
            threshold_bytes=self.config.stripe.threshold_bytes,
            weights=self._stage_weights(targets) if len(targets) >= 2 else None,
        )
        codec = None if self.codec_name == RAW_CODEC else get_codec(self.codec_name)
        segments: List[BlobSegment] = []
        parts: List[Tuple[str, str, np.ndarray]] = []
        for ext in extents:
            view = flat[ext.start : ext.stop]
            checksum = payload_digest(view)
            key = cas_key(checksum, view.nbytes, self.codec_name)
            tier = targets[ext.path]
            stored_nbytes: Optional[int] = None
            if (tier, key) in queued:
                self.reused_blobs += 1
                stored_nbytes = queued[(tier, key)]
            elif self.stores[tier].contains(key):
                self.reused_blobs += 1
                if codec is not None:
                    stored_nbytes = self._stored_payload_nbytes(tier, key)
            else:
                if codec is None:
                    payload: np.ndarray = view
                else:
                    payload = encoded_frame(view, codec, pool=self.pool)
                    encoded.append(payload)
                    stored_nbytes = int(payload.nbytes)
                queued[(tier, key)] = stored_nbytes
                if stored_nbytes is not None:
                    self._remember_stored_size(tier, key, stored_nbytes)
                parts.append((tier, key, payload))
                self.staged_blobs += 1
                self.staged_bytes += int(view.nbytes)
                self.staged_stored_bytes += int(payload.nbytes)
            segments.append(
                BlobSegment(
                    tier=tier,
                    key=key,
                    start=int(ext.start),
                    count=int(ext.count),
                    nbytes=int(view.nbytes),
                    digest=checksum,
                    codec=self.codec_name,
                    stored_nbytes=stored_nbytes,
                )
            )
        ref = BlobRef(
            dtype=flat.dtype.name,
            count=int(flat.size),
            source="staged",
            segments=tuple(segments),
        )
        return ref, parts

    def _drain(
        self,
        pending: PendingCheckpoint,
        manifest_base: Dict[str, Any],
        linked_refs: Dict[int, Dict[str, BlobRef]],
        staged_items: List[_StagedItem],
    ) -> None:
        encoded: List[np.ndarray] = []
        # ``snapshot()`` opened the drain window before adopting any linked
        # or carried blobs; this thread inherits it.  While the window is
        # open the coordinator's blob sweep stands down: the plan below may
        # dedup-reuse a blob that no manifest references until this
        # version's prepared manifest lands (the commit below, still inside
        # the drain window).
        in_drain_window = self.coordinator is not None
        try:
            staged_refs: Dict[Tuple, BlobRef] = {}
            futures = []
            queued: Dict[Tuple[str, str], Optional[int]] = {}
            try:
                for item in staged_items:
                    ref, parts = self._plan_staged(item, queued, encoded)
                    staged_refs[item.slot] = ref
                    if len(parts) > 1:
                        futures.append(
                            self.engine.write_multi(
                                parts, key=ref.segments[0].key, worker=self.worker
                            )
                        )
                    elif parts:
                        tier, key, payload = parts[0]
                        futures.append(self.engine.write(tier, key, payload, worker=self.worker))
            except BaseException:
                # A later item's planning (e.g. its encode) failed while
                # earlier writes are already streaming pooled buffers: await
                # them before the finally below recycles anything.
                for future in futures:
                    try:
                        future.result()
                    except BaseException:  # noqa: BLE001 - already failing
                        pass
                raise
            fault_point("mid-drain", version=pending.version)
            # Await EVERY write before judging any: a buffer may only go back
            # to the pool (the finally below) once no write can still be
            # streaming it, and an early raise on the first failure would
            # release siblings mid-serialization — committing torn bytes
            # under a content-addressed key.
            first_error: Optional[BaseException] = None
            for future in futures:
                result = future.result()
                if not result.ok and first_error is None:
                    first_error = result.error
            if first_error is not None:
                raise first_error
            if self.coordinator is not None:
                # The drain's writes landed but the manifest has not: renew
                # the drain-intent lease so a long encode+write phase cannot
                # be mistaken for an abandoned one.
                self.coordinator.renew_drain_lease(self.worker)

            subgroups: Dict[int, Dict[str, BlobRef]] = {k: dict(v) for k, v in linked_refs.items()}
            fp16_ref: Optional[BlobRef] = None
            for slot, ref in staged_refs.items():
                if slot[0] == "fp16":
                    fp16_ref = ref
                else:
                    _, index, name = slot
                    subgroups.setdefault(index, {})[name] = ref
            assert fp16_ref is not None
            manifest = CheckpointManifest(
                subgroups=subgroups, fp16_params=fp16_ref, **manifest_base
            )
            if self.coordinator is not None:
                # Phase one of the global commit: publish the prepared
                # manifest, leave the drain window, then stand for election —
                # whichever rank lands last promotes the version to a global
                # commit record and runs the global-retention GC under the
                # coordinator lock.
                # Serialized per writer, so no commit of this worker is in
                # flight: a crashed predecessor's manifest temp files are
                # safe to sweep (the uncoordinated path does this in its
                # per-drain GC, which coordinated drains never run).
                self.manifests.sweep_stale_tmp()
                fault_point("pre-publish", version=pending.version)
                self.manifests.commit(manifest, prepared=True)
                self.coordinator.drain_end(self.worker)
                in_drain_window = False
                fault_point("post-publish", version=pending.version)
                try:
                    self.coordinator.try_promote()
                except Exception as exc:  # noqa: BLE001 - promotion is retried
                    # The *local* commit is already durable (the prepared
                    # manifest landed); a promotion hiccup — say a transient
                    # I/O error renaming another rank's manifest — must not
                    # report this rank's checkpoint as failed.  A later
                    # drain's (or checkpoint_wait's) election retries it.
                    _LOG.warning(
                        "promotion attempt after checkpoint v%d prepared failed "
                        "(will be retried): %s",
                        pending.version,
                        exc,
                    )
                # Push only once the election committed this version locally:
                # a still-prepared manifest may yet be discarded by the global
                # cut, and the registry must never serve a version that never
                # globally existed.
                if self.manifests.path_for(pending.version).exists():
                    self._registry_push(manifest)
            else:
                self.manifests.commit(manifest)
                self._registry_push(manifest)
                self._collect_garbage()
            pending._finish(None)
        except BaseException as exc:  # noqa: BLE001 - surfaced via wait()
            if in_drain_window:
                self.coordinator.drain_end(self.worker)
            if isinstance(exc, Exception) and capacity_exhausted(exc):
                # Out of space mid-drain: abandon THIS version, not training.
                # No manifest was committed, so the previous version stays
                # authoritative; the partial staged blobs this drain already
                # landed are content-addressed orphans a later successful
                # drain's GC sweeps.  wait() reports success with the handle
                # flagged skipped — a missed snapshot is a wider recovery
                # window, never a correctness problem.
                self.skipped_versions += 1
                pending.skipped = True
                _LOG.warning(
                    "checkpoint v%d skipped: store out of space during drain (%s)",
                    pending.version,
                    exc,
                )
                pending._finish(None)
            else:
                _LOG.error("checkpoint v%d drain failed: %s", pending.version, exc)
                pending._finish(exc)
        finally:
            self._release([item.array for item in staged_items] + encoded)

    def _registry_push(self, manifest: CheckpointManifest) -> None:
        """Push one freshly committed version to the checkpoint registry.

        Runs on the drain thread, after the local commit is durable.  The
        dedup negotiation means a steady-state job uploads only the blobs
        this version newly introduced.  A registry outage is an availability
        problem, never a correctness one: failures are counted and logged,
        and the local checkpoint stands regardless.
        """
        url = self.config.checkpoint_registry_url
        if not url:
            return
        try:
            if self._registry is None:
                from repro.registry.client import RegistryClient

                self._registry = RegistryClient(
                    url, tenant=self.config.checkpoint_registry_tenant
                )
            stats = self._registry.push_manifest(manifest, self.stores)
        except Exception as exc:  # noqa: BLE001 - registry outage != ckpt failure
            self.registry_push_failures += 1
            _LOG.warning(
                "registry push of checkpoint v%d failed (local checkpoint stands): %s",
                manifest.version,
                exc,
            )
            if self._registry is not None:
                self._registry.close()
                self._registry = None
            return
        self.registry_pushes += 1
        self.registry_uploaded_bytes += stats.uploaded_bytes
        self.registry_skipped_bytes += stats.skipped_bytes

    def _collect_garbage(self) -> None:
        """Drop versions beyond the retention window and sweep orphans.

        Runs on the drain thread right after a commit, so no commit of this
        worker is in flight — its stale manifest temp files (from a crashed
        predecessor) are safe to remove.  Blob stores sweep their own dead
        writers' temp files at construction (`FileStore._sweep_stale_tmp`).

        All decisions derive from ONE ``os.listdir`` snapshot (``.tmp`` and
        lock files skipped at classification): interleaving several listings
        let a manifest land *between* the workers-present check and the
        reference scan — visible to neither — and its blobs were swept out
        from under its commit.  Prepared (phase-one) manifests count both as
        worker presence and as blob references for the same reason.
        """
        self.manifests.sweep_stale_tmp()
        snapshot = scan_manifest_dir(self.manifests.directory)
        committed = sorted(snapshot.committed.get(self.worker, {}))
        for version in committed[: -self.config.checkpoint_retention]:
            self.manifests.delete(version)
        if snapshot.workers() - {self.worker}:
            # Another worker shares these blob stores and may be mid-drain:
            # its staged blobs are referenced by no *committed* manifest yet,
            # so an unreferenced-key sweep here could delete them out from
            # under its commit.  Global blob GC is the coordinator's job
            # (``checkpoint_coordination``); per-worker manifest retention
            # above is always safe.
            _LOG.debug("skipping blob sweep: multiple workers share %s", self.manifests.directory)
            return
        try:
            referenced = self.manifests.all_referenced_blobs()
        except CheckpointError as exc:
            # A damaged/foreign manifest in the directory: skip the sweep
            # rather than risk deleting blobs it might still reference.
            _LOG.warning("skipping checkpoint blob GC: %s", exc)
            return
        for tier, store in self.stores.items():
            for key in list(store.keys()):
                if key.startswith(CAS_PREFIX) and (tier, key) not in referenced:
                    store.delete(key)
                    self._stored_sizes.pop((tier, key), None)

    def _release(self, arrays) -> None:
        self.pool.release_all(arrays)
