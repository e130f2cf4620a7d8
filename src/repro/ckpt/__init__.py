"""Asynchronous multi-tier checkpoint/restart subsystem.

The offload engine keeps the authoritative FP32 optimizer state on the
storage tiers already, so a checkpoint costs little more than a manifest
plus the dirty residue: tier-resident subgroup blobs are *referenced by
content* (hard-linked into per-tier content-addressed stores — no data
movement), only dirty host-cached subgroups and the FP16 working parameters
are staged through pooled scratch buffers, and the staged writes drain
asynchronously, overlapped with the next training iteration.

Layout on disk::

    <checkpoint_dir>/ckpt-<worker>-<version>.json            committed manifests
    <checkpoint_dir>/ckpt-<worker>-<version>.prepared.json   phase-one (pre-global-commit)
    <checkpoint_dir>/GLOBAL-<version>.json                   global commit records
    <checkpoint_dir>/GLOBAL.lock                             coordinator election lock
    <checkpoint_dir>/DRAIN-<worker>.lease                    drain-intent leases
    <tier.path>/_ckpt/cas<digest>-<nbytes>.bin               content-addressed blobs

With ``checkpoint_coordination`` on, a job-level two-phase commit
(:class:`CheckpointCoordinator`) promotes a version to a global commit
record only once *every* registered rank's manifest landed, and restart
first rolls forward any fully-prepared-but-unpromoted version, then
resolves the newest global version — one consistent cut across all
data-parallel workers — discarding torn-commit debris beyond it.  Ranks
may live in separate OS processes: each publishes a liveness-checked
``DRAIN-<worker>.lease`` for the duration of its drain so the elected
sweeper never retires a blob a foreign rank is dedup-reusing, restart
under a different world size re-partitions the cut onto the new layout
(:mod:`repro.ckpt.elastic`), and :mod:`repro.ckpt.procrank` drives real
subprocess ranks through SIGKILL crash matrices to prove all of it.

Public surface: :class:`CheckpointWriter` / :class:`CheckpointReader` for
direct use, :class:`CheckpointManifest` for the metadata model, and the
engine-level hooks ``save_checkpoint`` / ``maybe_checkpoint`` /
``restore_checkpoint`` on :class:`repro.core.engine.OffloadEngineBase`,
which most callers should prefer.  Those hooks delegate to the engine's
:class:`CheckpointSession` (:mod:`repro.ckpt.session`), the one object that
holds an engine's checkpoint state.
"""

from repro.ckpt.coordinator import (
    CheckpointCoordinator,
    GlobalCommitRecord,
    drain_lease_name,
)
from repro.ckpt.elastic import ElasticSource, open_elastic_source, repartition
from repro.ckpt.faults import clear_faults, fault_point, install_fault
from repro.ckpt.manifest import (
    BlobRef,
    BlobSegment,
    CheckpointError,
    CheckpointManifest,
    ManifestDirSnapshot,
    ManifestStore,
    cas_key,
    payload_digest,
    scan_manifest_dir,
)
from repro.ckpt.restore import CheckpointReader, RestoredCheckpoint
from repro.ckpt.session import CheckpointSession
from repro.ckpt.store import build_blob_stores, blob_store_roots
from repro.ckpt.writer import CheckpointWriter, PendingCheckpoint, SubgroupSource

__all__ = [
    "BlobRef",
    "BlobSegment",
    "CheckpointCoordinator",
    "CheckpointError",
    "CheckpointManifest",
    "CheckpointReader",
    "CheckpointSession",
    "CheckpointWriter",
    "ElasticSource",
    "GlobalCommitRecord",
    "ManifestDirSnapshot",
    "ManifestStore",
    "PendingCheckpoint",
    "RestoredCheckpoint",
    "SubgroupSource",
    "blob_store_roots",
    "build_blob_stores",
    "cas_key",
    "clear_faults",
    "drain_lease_name",
    "fault_point",
    "install_fault",
    "open_elastic_source",
    "payload_digest",
    "repartition",
    "scan_manifest_dir",
]
