"""Checkpoint restart path: manifest selection, blob reads, integrity checks.

Restoring is the writer's mirror image: pick a committed manifest (the
latest, or an explicit version) and read referenced blob segments back into
caller-supplied arrays.  Raw segments stream straight into the destination
(the same zero-copy ``load_into`` discipline as tier fetches) with their
digest computed chunk by chunk *while* reading; encoded segments
(:mod:`repro.codec`) are fetched into a pooled scratch buffer and decoded
chunk by chunk, each chunk's recorded digest verified as it lands.  Either
way a mismatch against the manifest digest (bit rot, truncated drain, manual
tampering) raises :class:`CheckpointError` — corrupt state is never silently
restored, and nothing is ever materialized whole beyond the destination
buffer itself.

The engine's :class:`~repro.ckpt.session.CheckpointSession` restores on top
of this reader: it hard-links clean tier-resident blobs straight back into
the tier stores and reads staged residue lazily on first fetch; only an
elastic restart (a different world size) reads and re-flushes every
subgroup up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

import numpy as np

from repro.ckpt.manifest import (
    BlobRef,
    BlobSegment,
    CheckpointError,
    CheckpointManifest,
    ManifestStore,
)
from repro.ckpt.store import build_blob_stores
from repro.codec import CodecError, decode_frame_into
from repro.tiers.array_pool import ArrayPool
from repro.tiers.file_store import StoreError, finish_digest, streaming_digest

if TYPE_CHECKING:  # pragma: no cover - break the core <-> ckpt import cycle
    from repro.core.config import MLPOffloadConfig


@dataclass
class RestoredCheckpoint:
    """What a successful restore hands back to the caller."""

    version: int
    #: Engine ``update_count`` the checkpoint was taken at.
    iteration: int
    #: The model's FP16 working parameters at the snapshot.
    fp16_params: np.ndarray
    user_data: Dict[str, Any] = field(default_factory=dict)
    #: How the engine brought the state back: ``"streaming"`` (hard links +
    #: lazy residue) or ``"eager"`` (an elastic restart's re-partitioned
    #: state, read and re-flushed up front).
    mode: str = "eager"
    #: Subgroups whose blobs were hard-linked back into the tier stores.
    linked_subgroups: int = 0
    #: Subgroups left pending for lazy restore on first fetch.
    lazy_subgroups: int = 0
    #: The job-wide global commit version the restore resolved (equals
    #: ``version`` once global coordination picked the cut); ``None`` for an
    #: uncoordinated per-worker restore.
    global_version: Optional[int] = None


class CheckpointReader:
    """Reads committed checkpoints of one worker back into memory.

    ``throttles`` (per-tier, the same objects driving the tier stores) make
    restore traffic contend with whatever else is using the paths — the
    engine passes its own so restore timings are honest.
    """

    def __init__(
        self,
        config: Optional[MLPOffloadConfig] = None,
        *,
        worker: str = "rank0",
        throttles: Optional[Mapping[str, object]] = None,
        stores: Optional[Mapping[str, object]] = None,
        manifest_dir: Optional[str] = None,
    ) -> None:
        """Build a reader over an engine ``config`` — or over injected stores.

        The engine path passes ``config`` (stores are built per active tier,
        manifests live in ``checkpoint_dir``).  Services that are not an
        engine — the registry's idle-time scrubber audits every tenant's
        manifests against one global blob vault — inject ``stores`` (any
        mapping of tier name → store; a mapping that answers every name with
        the same store flattens all tiers onto one vault) plus the
        ``manifest_dir`` holding that worker's manifests.
        """
        if stores is None or manifest_dir is None:
            if config is None or not config.checkpoint_enabled:
                raise CheckpointError("checkpoint_dir is not configured")
        self.config = config
        self.worker = worker
        self.stores = (
            stores if stores is not None else build_blob_stores(config, throttles=throttles)
        )
        self.manifests = ManifestStore(
            manifest_dir if manifest_dir is not None else config.checkpoint_dir, worker
        )

    # -- manifest selection ------------------------------------------------

    def versions(self) -> List[int]:
        """Committed versions available for this worker, ascending."""
        return self.manifests.committed_versions()

    def load_manifest(self, version: Optional[int] = None) -> CheckpointManifest:
        """The chosen (or latest) committed manifest; raises if none exists."""
        if version is not None:
            return self.manifests.load(version)
        manifest = self.manifests.latest()
        if manifest is None:
            raise CheckpointError(
                f"no committed checkpoints for worker {self.worker!r} in "
                f"{str(self.manifests.directory)!r}"
            )
        return manifest

    # -- blob reads --------------------------------------------------------

    def _store_for(self, seg: BlobSegment):
        store = self.stores.get(seg.tier)
        if store is None:
            raise CheckpointError(f"no checkpoint store for tier {seg.tier!r}")
        return store

    def _read_segment(
        self,
        seg: BlobSegment,
        view: np.ndarray,
        *,
        verify: bool,
        pool: Optional[ArrayPool],
    ) -> None:
        """Fill ``view`` (flat, the segment's extent) from one stored segment."""
        store = self._store_for(seg)
        try:
            if seg.codec == "raw":
                hasher = streaming_digest() if verify else None
                store.load_into_chunks(seg.key, view, hasher=hasher)
                observed = finish_digest(hasher) if hasher is not None else None
            else:
                frame = (
                    pool.acquire(seg.on_store_nbytes, np.uint8)
                    if pool is not None
                    else np.empty(seg.on_store_nbytes, np.uint8)
                )
                try:
                    store.load_into(seg.key, frame)
                    # Decode verifies every chunk's recorded digest as it
                    # streams; the aggregate digest comes back for the
                    # manifest comparison below.
                    observed = decode_frame_into(frame, view)
                finally:
                    if pool is not None:
                        pool.release(frame)
        except StoreError as exc:
            # Missing file, bad permissions, truncated blob: an I/O problem,
            # not (necessarily) corruption — keep the triage distinction.
            raise CheckpointError(
                f"checkpoint blob {seg.key!r} on tier {seg.tier!r} is unreadable: {exc}"
            ) from exc
        except CodecError as exc:
            raise CheckpointError(
                f"checkpoint blob {seg.key!r} on tier {seg.tier!r} failed its "
                f"integrity check: {exc}"
            ) from exc
        if verify and observed is not None and observed != seg.digest:
            raise CheckpointError(
                f"checkpoint blob {seg.key!r} on tier {seg.tier!r} failed its "
                f"integrity check (digest {observed:#018x} != manifest "
                f"{seg.digest:#018x})"
            )

    def read_blob(
        self,
        ref: BlobRef,
        out: np.ndarray,
        *,
        verify: bool = True,
        pool: Optional[ArrayPool] = None,
    ) -> np.ndarray:
        """Read one logical blob into ``out`` (flat, segment by segment).

        ``out`` must be 1-D C-contiguous with the ref's dtype and element
        count.  Raw segments stream with a chunked read (digest computed on
        the fly when ``verify`` is on); encoded segments are fetched into a
        ``pool``-leased frame buffer (a plain allocation when no pool is
        given) and decoded chunk by chunk into the destination, with
        per-chunk digests always enforced.  A digest mismatch raises
        :class:`CheckpointError` — corrupt state is never silently restored.
        """
        dtype = ref.numpy_dtype
        if out.dtype != dtype:
            raise CheckpointError(
                f"restore dtype mismatch: blob is {dtype.name}, destination is {out.dtype.name}"
            )
        flat = out.reshape(-1)
        if int(flat.size) != ref.count:
            raise CheckpointError(
                f"restore size mismatch: blob has {ref.count} elements, destination has "
                f"{flat.size}"
            )
        for seg in ref.segments:
            self._read_segment(
                seg, flat[seg.start : seg.start + seg.count], verify=verify, pool=pool
            )
        return out

    def check_blobs(self, manifest: CheckpointManifest) -> None:
        """Cheap existence/size audit of every blob a manifest references."""
        for ref in self._all_refs(manifest):
            for seg in ref.segments:
                store = self.stores.get(seg.tier)
                if store is None or not store.contains(seg.key):
                    raise CheckpointError(
                        f"checkpoint v{manifest.version} references missing blob "
                        f"{seg.key!r} on tier {seg.tier!r}"
                    )

    def verify_blobs(
        self,
        manifest: CheckpointManifest,
        *,
        pool: Optional[ArrayPool] = None,
        on_error=None,
    ) -> int:
        """Full streamed digest audit of every blob a manifest references.

        The deep counterpart of :meth:`check_blobs` — reads every segment
        through the same chunked paths a restore uses (scratch destinations
        leased from ``pool``) and verifies every digest, without keeping any
        state.  Returns the number of segments verified.  Use it to vet a
        checkpoint *before* trusting a zero-copy hard-link restore, which by
        design never touches the linked payloads.

        ``on_error`` — when given, a failed segment does not abort the audit:
        the callback receives ``(segment, error)`` and the walk continues, so
        a background scrubber can quarantine every bad blob of a manifest in
        one pass instead of stopping at the first.  Failed segments do not
        count as verified.
        """
        own_pool = pool if pool is not None else ArrayPool()
        verified = 0
        for ref in self._all_refs(manifest):
            dtype = ref.numpy_dtype
            for seg in ref.segments:
                scratch = own_pool.acquire(seg.count, dtype)
                try:
                    self._read_segment(seg, scratch, verify=True, pool=own_pool)
                except CheckpointError as exc:
                    if on_error is None:
                        raise
                    on_error(seg, exc)
                    continue
                finally:
                    own_pool.release(scratch)
                verified += 1
        return verified

    @staticmethod
    def _all_refs(manifest: CheckpointManifest) -> List[BlobRef]:
        refs: List[BlobRef] = [manifest.fp16_params]
        for fields in manifest.subgroups.values():
            refs.extend(fields.values())
        return refs
