"""One engine's checkpoint session: save, wait and restore behind one object.

:class:`CheckpointSession` owns everything checkpoint-related an offload
engine carries — the :class:`~repro.ckpt.writer.CheckpointWriter`, the
global-commit :class:`~repro.ckpt.coordinator.CheckpointCoordinator`, the
snapshot staging pass, the restore (coordinated roll-forward, registry pull,
elastic re-partition, hard-link adopt) and the lazily restored subgroups
still waiting for their first fetch.  It works on the engine's collaborators
(virtual tier, buffer pool, host cache), never on the engine itself: the
engine calls :meth:`save`, :meth:`wait` and :meth:`restore`, and its update
loop asks only :meth:`is_pending` and :meth:`take_state`.

Restore is streaming: subgroups checkpointed by reference are hard-linked
straight back into the tier stores, and staged residue stays *pending* until
its first fetch streams it out of the checkpoint stores.  Only a restore that
completes installs its pending set, so a failed attempt leaves the session as
it found it and a retry against another version starts clean.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ckpt.coordinator import CheckpointCoordinator, shared_coordinator
from repro.ckpt.manifest import BlobRef, CheckpointError
from repro.ckpt.restore import CheckpointReader, RestoredCheckpoint
from repro.ckpt.writer import CheckpointWriter, SubgroupSource
from repro.tiers.file_store import StoreError, element_count
from repro.train.sharding import GRAD_FIELD, STATE_FIELDS
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ckpt.coordinator import GlobalCommitRecord
    from repro.core.config import MLPOffloadConfig
    from repro.core.virtual_tier import VirtualTier
    from repro.tiers.array_pool import ArrayPool
    from repro.tiers.host_cache import HostSubgroupCache
    from repro.train.sharding import ShardLayout, Subgroup

_LOG = get_logger("ckpt.session")


class CheckpointSession:
    """Checkpoint save/restore state of one rank's offload engine."""

    def __init__(
        self,
        config: MLPOffloadConfig,
        layout: ShardLayout,
        rank: int,
        *,
        tier: VirtualTier,
        pool: ArrayPool,
        cache: HostSubgroupCache,
        throttles: Optional[Mapping[str, object]] = None,
        coordinator: Optional[CheckpointCoordinator] = None,
    ) -> None:
        self.config = config
        self.layout = layout
        self.rank = rank
        self.worker = f"rank{rank}"
        self.subgroups: List[Subgroup] = layout.subgroups_for_rank(rank)
        self.tier = tier
        self.pool = pool
        self.cache = cache
        #: Tier throttles, shared by restore readers so restore traffic
        #: contends with training I/O on the same device timelines.
        self._throttles = throttles
        #: Global-commit coordinator (two-phase multi-rank checkpoint
        #: protocol).  In-process data-parallel workers should share one
        #: instance (the same way they share a lock manager) so the blob
        #: sweep sees every rank's in-flight drain; separate processes
        #: coordinate purely through the filesystem protocol.
        self.coordinator: Optional[CheckpointCoordinator] = None
        if config.checkpoint_coordinated:
            # Without an injected instance, converge on one per checkpoint
            # directory: drain tracking (which suspends the blob sweep) only
            # protects ranks that share the coordinator object.
            self.coordinator = coordinator or shared_coordinator(
                config, workers=config.checkpoint_workers(layout.num_ranks), throttles=throttles
            )
        #: Checkpoint writer, when ``config.checkpoint_dir`` is set.
        self.writer: Optional[CheckpointWriter] = None
        if config.checkpoint_enabled:
            self.writer = CheckpointWriter(
                config,
                worker=self.worker,
                pool=pool,
                tier=tier,
                throttles=throttles,
                coordinator=self.coordinator,
            )
        #: Lazily restored subgroups: index → field → checkpoint blob ref,
        #: until the subgroup's first fetch.
        self._pending: Dict[int, Dict[str, BlobRef]] = {}
        self._reader: Optional[CheckpointReader] = None
        self._verify = True

    def require_writer(self) -> CheckpointWriter:
        if self.writer is None:
            raise CheckpointError(
                "checkpointing is not configured (set MLPOffloadConfig.checkpoint_dir)"
            )
        return self.writer

    # -- lazily restored subgroups -------------------------------------------

    def is_pending(self, index: int) -> bool:
        """Whether subgroup ``index`` still awaits its lazy restore."""
        return index in self._pending

    def pending_subgroups(self) -> List[int]:
        """Indices still awaiting their lazy restore, ascending."""
        return sorted(self._pending)

    def read_field(self, index: int, name: str, out: np.ndarray) -> None:
        """Read one field of a pending subgroup into ``out``; it stays pending."""
        assert self._reader is not None
        self._reader.read_blob(self._pending[index][name], out, verify=self._verify, pool=self.pool)

    def take_state(self, sg: Subgroup) -> Dict[str, np.ndarray]:
        """The three state fields of a pending subgroup, in pooled buffers.

        Streams them out of the checkpoint stores (digest-verified, decoded
        through pooled buffers).  Once they are read the subgroup is no
        longer pending: it flows through the ordinary update path and the
        tiers become its home again.
        """
        arrays: Dict[str, np.ndarray] = {}
        try:
            for name in STATE_FIELDS:
                arrays[name] = self.pool.acquire(sg.num_params, np.float32)
                self.read_field(sg.index, name, arrays[name])
        except BaseException:
            self.pool.release_all(arrays.values())
            raise
        del self._pending[sg.index]
        return arrays

    # -- save ----------------------------------------------------------------

    def _layout_echo(self) -> Dict[str, int]:
        return {
            "total_params": int(self.layout.total_params),
            "num_ranks": int(self.layout.num_ranks),
            "subgroup_size": int(self.layout.subgroup_size),
            "rank": int(self.rank),
            "num_subgroups": len(self.subgroups),
        }

    def save(
        self,
        fp16_params: np.ndarray,
        *,
        iteration: int,
        steps: Mapping[int, int],
        user_data: Optional[Dict[str, object]] = None,
        wait: bool = False,
    ) -> int:
        """Stage one iteration-boundary snapshot and hand it to the writer.

        Pending subgroups carry the previous version's refs, dirty cached
        subgroups and ``fp16_params`` are copied into pooled buffers, and
        every other subgroup is referenced by its tier blobs.  Returns the
        new version number.
        """
        writer = self.require_writer()
        sources: List[SubgroupSource] = []
        fp16_staged: Optional[np.ndarray] = None
        try:
            for sg in self.subgroups:
                entry = self.cache.entry(sg.index)
                if sg.index in self._pending:
                    # Still awaiting its lazy restore: the subgroup's exact
                    # state already sits in the checkpoint stores — carry the
                    # previous version's refs forward verbatim (zero bytes
                    # moved, and the reference keeps the blobs alive across
                    # retention GC until the subgroup is actually restored).
                    sources.append(
                        SubgroupSource(index=sg.index, carried=dict(self._pending[sg.index]))
                    )
                elif entry is not None and entry.dirty:
                    # Dirty residue: the newest state lives only in the host
                    # cache — stage a private copy so the drain (and the next
                    # iteration's updates) cannot race it.
                    staged = {}
                    for name in STATE_FIELDS:
                        buf = self.pool.acquire(sg.num_params, np.float32)
                        np.copyto(buf, np.asarray(entry.arrays[name]).reshape(-1))
                        staged[name] = buf
                    sources.append(SubgroupSource(index=sg.index, staged=staged))
                else:
                    linked = {
                        name: self.tier.export_field_blobs(
                            sg.key, sg.index, name, dtype=np.float32
                        )
                        for name in STATE_FIELDS
                    }
                    sources.append(SubgroupSource(index=sg.index, linked=linked))
            fp16_flat = np.ascontiguousarray(fp16_params, dtype=np.float16).reshape(-1)
            fp16_staged = self.pool.acquire(fp16_flat.size, np.float16)
            np.copyto(fp16_staged, fp16_flat)
            placement = {
                sg.index: self.tier.placement.tier_of(sg.index) for sg in self.subgroups
            }
        except BaseException:
            # Strand no pooled buffer: a failed staging pass hands nothing
            # to the writer, so everything staged so far goes back now.
            for source in sources:
                if source.staged is not None:
                    self.pool.release_all(source.staged.values())
            if fp16_staged is not None:
                self.pool.release(fp16_staged)
            raise
        pending = writer.snapshot(
            iteration=iteration,
            layout=self._layout_echo(),
            steps=dict(steps),
            placement=placement,
            subgroups=sources,
            fp16_params=fp16_staged,
            user_data=dict(user_data or {}),
        )
        if wait:
            pending.wait()
        return pending.version

    def wait(self) -> Optional[int]:
        """Block until the in-flight checkpoint (if any) commits.

        Under global coordination this also stands for election once the
        local drain has landed: if this rank's drain lost a contended
        promotion race (another rank held ``GLOBAL.lock`` while our prepared
        manifest was still in flight), the quiesced job's final version is
        promoted here rather than waiting for a next drain that may never
        come.
        """
        if self.writer is None:
            return None
        version = self.writer.wait()
        if self.coordinator is not None:
            self.coordinator.promote_pending()
        return version

    # -- restore -------------------------------------------------------------

    def restore(
        self, version: Optional[int] = None, *, verify: bool = True
    ) -> Tuple[RestoredCheckpoint, Dict[int, int]]:
        """Bring a committed version back onto the tiers.

        Returns the restored checkpoint and the per-subgroup Adam step
        counters; the caller resumes at ``RestoredCheckpoint.iteration``.
        See :meth:`repro.core.engine.OffloadEngineBase.restore_checkpoint`.
        """
        self.require_writer()
        global_version: Optional[int] = None
        if self.coordinator is not None:
            record = self._resolve_global(version)
            new_world = tuple(f"rank{r}" for r in range(self.layout.num_ranks))
            if tuple(record.workers) != new_world:
                # The cut was written by a different world size — elastic
                # restart re-partitions the old blobs onto this layout.
                return self._restore_elastic(record, verify=verify)
            if self.worker not in record.workers:
                raise CheckpointError(
                    f"global checkpoint v{record.version} covers workers "
                    f"{list(record.workers)}, not {self.worker!r}"
                )
            global_version = version = record.version
        reader = CheckpointReader(self.config, worker=self.worker, throttles=self._throttles)
        if self.coordinator is None and self.config.checkpoint_registry_url:
            local_versions = reader.versions()
            if (version not in local_versions) if version is not None else not local_versions:
                # Cold restart against a registry: nothing (or not the
                # requested version) in the local checkpoint dir — pull the
                # manifest and the missing blobs down into the local tiers
                # first, then restore through the unchanged local machinery
                # (hard links included), so a remote restore is bitwise
                # identical to a local one.  Coordinated restarts stay local:
                # the global cut protocol owns cross-rank consistency.
                from repro.registry.client import pull_checkpoint

                pull_checkpoint(self.config, worker=self.worker, version=version)
        manifest = reader.load_manifest(version)
        echo = self._layout_echo()
        if manifest.layout != echo:
            raise CheckpointError(
                f"checkpoint v{manifest.version} was taken with layout {manifest.layout}, "
                f"this engine has {echo}"
            )
        missing = [sg.index for sg in self.subgroups if sg.index not in manifest.subgroups]
        if missing:
            raise CheckpointError(f"checkpoint v{manifest.version} lacks subgroups {missing}")
        for sg in self.subgroups:
            for name in STATE_FIELDS:
                if name not in manifest.subgroups[sg.index]:
                    raise CheckpointError(
                        f"checkpoint v{manifest.version} lacks field {name!r} of "
                        f"subgroup {sg.index}"
                    )
        # Read (and verify) the FP16 working copy before touching the tiers,
        # so a corrupt blob fails while the engine is still fresh and a retry
        # against an older version remains possible.
        fp16 = np.empty(self.layout.rank_params(self.rank), dtype=np.float16)
        reader.read_blob(manifest.fp16_params, fp16, verify=verify, pool=self.pool)
        self.tier.build_placement([sg.index for sg in self.subgroups])
        pending: Dict[int, Dict[str, BlobRef]] = {}
        linked_subgroups = 0
        for sg in self.subgroups:
            fields = manifest.subgroups[sg.index]
            target = manifest.placement.get(sg.index)
            if target in self.tier.tier_names:  # else the tier set changed since
                self.tier.placement.assign(sg.index, target)
            if self._restore_by_hardlink(sg, fields, reader, verify=verify):
                linked_subgroups += 1
            else:
                pending[sg.index] = {name: fields[name] for name in STATE_FIELDS}
            # A crashed run may have left a newer FP32 gradient blob behind;
            # it belongs to a discarded iteration, so drop it.
            self.tier.delete_subgroup_field(sg.key, sg.index, GRAD_FIELD)
        # Only a restore that got this far installs its pending set: a failed
        # attempt must not leave refs behind for a retry to serve.
        self._pending = pending
        self._reader = reader
        self._verify = verify
        if verify and linked_subgroups:
            _LOG.info(
                "restore v%d: %d subgroups hard-linked (geometry-checked, payload "
                "content not re-read); run CheckpointReader.verify_blobs for a "
                "full digest audit",
                manifest.version,
                linked_subgroups,
            )
        restored = RestoredCheckpoint(
            version=manifest.version,
            iteration=int(manifest.iteration),
            fp16_params=fp16,
            user_data=manifest.user_data,
            mode="streaming",
            linked_subgroups=linked_subgroups,
            lazy_subgroups=len(pending),
            global_version=global_version,
        )
        steps = {sg.index: int(manifest.steps.get(sg.index, 0)) for sg in self.subgroups}
        return restored, steps

    def _resolve_global(self, version: Optional[int]) -> GlobalCommitRecord:
        """The global commit record a coordinated restart resumes from.

        The cut is a *global* version — one every registered rank committed
        — never this worker's newest private manifest.  First roll forward:
        a version every rank fully prepared before the crash but that no
        promoter recorded is promoted now (strictly more progress retained
        than rolling back past it).  Then per-rank manifests beyond the
        newest global (committed or prepared) are torn-commit debris and are
        discarded before any rank reads, so a half-promoted version cannot
        resurface later.
        """
        coordinator = self.coordinator
        assert coordinator is not None
        coordinator.roll_forward()
        if version is not None:
            record = coordinator.load_global(version)
        else:
            record = coordinator.latest_global()
            if record is None:
                raise CheckpointError(
                    f"no globally committed checkpoints in {str(coordinator.directory)!r}"
                )
        # Torn debris lives beyond the NEWEST global version — restoring an
        # explicitly older global cut must not (and could not) discard
        # relative to itself.
        coordinator.discard_torn(coordinator.global_versions()[-1])
        return record

    def _restore_elastic(
        self, record: GlobalCommitRecord, *, verify: bool
    ) -> Tuple[RestoredCheckpoint, Dict[int, int]]:
        """Restore a global cut written at a different world size.

        Opens every old rank's manifest of the cut, rebuilds the writing
        job's :class:`ShardLayout` from the manifests' layout echo, and
        re-partitions the old blobs onto this rank's subgroups
        (:mod:`repro.ckpt.elastic`).  Always eager: the old blob geometry
        does not line up with the new subgroup boundaries, so there is
        nothing to hard-link or stream lazily — every overlapping old blob
        is read once and scattered through pooled buffers, then flushed to
        this rank's tiers.
        """
        from repro.ckpt.elastic import interval_step, open_elastic_source, repartition

        source = open_elastic_source(self.config, record, throttles=self._throttles)
        if source.old_layout.total_params != self.layout.total_params:
            raise CheckpointError(
                f"global v{record.version} holds {source.old_layout.total_params} "
                f"parameters, this engine's layout has {self.layout.total_params}"
            )
        rank_start, rank_stop = self.layout.rank_intervals[self.rank]
        fp16 = np.empty(self.layout.rank_params(self.rank), dtype=np.float16)
        requests = [("fp16", rank_start, rank_stop, fp16)]
        arrays_by_index: Dict[int, Dict[str, np.ndarray]] = {}
        try:
            for sg in self.subgroups:
                arrays = {
                    name: self.pool.acquire(sg.num_params, np.float32) for name in STATE_FIELDS
                }
                arrays_by_index[sg.index] = arrays
                for name in STATE_FIELDS:
                    requests.append((name, sg.global_start, sg.global_stop, arrays[name]))
            repartition(source, requests, pool=self.pool, verify=verify)
        except BaseException:
            for arrays in arrays_by_index.values():
                self.pool.release_all(arrays.values())
            raise
        self.tier.build_placement([sg.index for sg in self.subgroups])
        for sg in self.subgroups:
            arrays = arrays_by_index[sg.index]
            self.tier.flush_subgroup(sg.key, sg.index, arrays, tier=None, wait=True)
            if not self.cache.put(sg.index, arrays, dirty=False):
                self.pool.release_all(arrays.values())
            self.tier.delete_subgroup_field(sg.key, sg.index, GRAD_FIELD)
        restored = RestoredCheckpoint(
            version=record.version,
            iteration=int(source.iteration),
            fp16_params=fp16,
            user_data=source.user_data,
            mode="eager",
            global_version=record.version,
        )
        steps = {
            sg.index: interval_step(source, sg.global_start, sg.global_stop)
            for sg in self.subgroups
        }
        return restored, steps

    def _restore_by_hardlink(
        self,
        sg: Subgroup,
        fields: Mapping[str, BlobRef],
        reader: CheckpointReader,
        *,
        verify: bool,
    ) -> bool:
        """Link one subgroup's checkpoint blobs back into the tier stores.

        Only *linked* raw refs whose tiers are still configured qualify — a
        hard link can neither decode a frame stream nor cross filesystems.
        Blobs referenced by the manifest must exist (a missing one raises
        :class:`CheckpointError`: the checkpoint is damaged), and with
        ``verify`` on each blob's stored geometry (dtype, element count) is
        checked against the manifest — a header-only read that catches
        truncation and file swaps while still moving zero payload bytes.
        Payload *content* is deliberately not digest-checked here (that
        would read everything the hard link exists to avoid; see
        :meth:`CheckpointReader.verify_blobs` for the deep audit).  Returns
        ``False`` when the subgroup does not qualify or the recorded layout
        no longer fits the current striping configuration; the caller then
        falls back to the lazy streamed restore (a partially adopted
        subgroup is harmless — the adopted blobs hold exactly the checkpoint
        content and are overwritten by the subgroup's next flush).
        """
        for name in STATE_FIELDS:
            ref = fields[name]
            if ref.source != "linked":
                return False
            for seg in ref.segments:
                if seg.codec != "raw" or seg.tier not in self.tier.tier_names:
                    return False
        # Single-segment refs adopt as whole blobs on their recorded tier,
        # and whole-blob reads route through the placement map — so every
        # single-segment field must live on one common tier (a single-extent
        # *striped* layout can sit on a stripe path that differs from the
        # recorded placement).  Disagreement falls back to the lazy restore.
        whole_tiers = {
            fields[name].segments[0].tier
            for name in STATE_FIELDS
            if len(fields[name].segments) == 1
        }
        if len(whole_tiers) > 1:
            return False
        try:
            for name in STATE_FIELDS:
                ref = fields[name]
                segments = []
                for seg in ref.segments:
                    store = reader.stores.get(seg.tier)
                    if store is None or not store.contains(seg.key):
                        raise CheckpointError(
                            f"checkpoint references missing blob {seg.key!r} on tier "
                            f"{seg.tier!r}"
                        )
                    if verify:
                        dtype, shape = store.meta_of(seg.key)
                        count = element_count(shape)
                        if dtype != ref.numpy_dtype or count != seg.count:
                            raise CheckpointError(
                                f"checkpoint blob {seg.key!r} on tier {seg.tier!r} "
                                "failed its integrity check (stored geometry "
                                f"{dtype.name}[{count}] != manifest "
                                f"{ref.dtype}[{seg.count}])"
                            )
                    segments.append(
                        (seg.tier, store.path_of(seg.key), seg.start, seg.count, seg.digest)
                    )
                self.tier.adopt_field_blobs(sg.key, name, segments)
        except StoreError:
            # Layout no longer representable (striping off, stripe set
            # narrowed, ...): restore this subgroup lazily instead.
            return False
        if whole_tiers:
            # Reads of whole blobs follow the placement map; make it agree
            # with where the adopted blobs actually live (the manifest's
            # recorded placement can differ, e.g. a single-extent striped
            # layout on a stripe path).
            self.tier.placement.assign(sg.index, next(iter(whole_tiers)))
        return True

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
