"""Versioned checkpoint manifests (the `repro.ckpt` metadata model).

A checkpoint is a *manifest* — one small JSON document — plus the
content-addressed blobs it references.  The manifest records, per subgroup
and per optimizer-state field, an ordered list of blob segments (one for a
whole blob, one per stripe for striped fields), each with its payload digest,
together with the engine bookkeeping needed to resume: per-subgroup Adam step
counts, the placement map, the iteration number and caller-supplied user
data.

Manifests are committed atomically (written to a temp file and
``os.replace``\\ d into place), so a manifest either exists completely or not
at all; a crash mid-drain leaves at most ``*.tmp`` files and orphan blobs,
all of which restart ignores.  The next commit's garbage collection sweeps
the orphan blobs and this worker's stale manifest temps, and each blob
store removes dead writers' temp files when it is (re)constructed.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.tiers.file_store import payload_digest as _buffer_digest

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_FORMAT = 1


class CheckpointError(RuntimeError):
    """Raised for malformed manifests, missing or corrupt blobs, and misuse."""


def payload_digest(array: np.ndarray) -> int:
    """64-bit digest of an array's payload bytes (the on-store convention).

    Delegates to :func:`repro.tiers.file_store.payload_digest` so manifests,
    the write-time registry and the restore-time verification all agree on
    one hash.
    """
    contiguous = np.ascontiguousarray(array)
    return _buffer_digest(memoryview(contiguous.reshape(-1)))


def cas_key(digest: int, nbytes: int, codec: str = "raw") -> str:
    """Content-addressed blob key: 64-bit payload digest plus size.

    ``digest`` and ``nbytes`` always describe the *uncompressed* payload —
    that is what deduplication keys on, so a delta checkpoint pays nothing
    for unchanged subgroups no matter how they were encoded.  Non-``"raw"``
    codecs are suffixed into the key because their on-store bytes differ:
    the same content stored raw and stored framed must not collide.
    """
    base = f"cas{digest & 0xFFFFFFFFFFFFFFFF:016x}-{int(nbytes)}"
    return base if codec == "raw" else f"{base}-{codec}"


#: The exact shape :func:`cas_key` produces (anchored; parse, don't guess).
_CAS_KEY_RE = re.compile(r"^cas(?P<digest>[0-9a-f]{16})-(?P<nbytes>\d+)(?:-(?P<codec>.+))?$")


def parse_cas_key(key: str) -> Optional[Tuple[int, int, str]]:
    """Invert :func:`cas_key`: ``(digest, nbytes, codec)``, or ``None``.

    The digest and byte count always describe the *uncompressed* payload the
    key promises — what the registry service verifies uploads against, and
    what a store can derive lazily without re-reading a blob whose key it
    already trusts (see :meth:`repro.tiers.file_store.FileStore.digest_of`).
    Returns ``None`` for keys that are not content-addressed (e.g. plain
    subgroup field keys), never raises.
    """
    match = _CAS_KEY_RE.match(key)
    if match is None:
        return None
    return (
        int(match.group("digest"), 16),
        int(match.group("nbytes")),
        match.group("codec") or "raw",
    )


@dataclass(frozen=True)
class BlobSegment:
    """One stored blob covering ``[start, start + count)`` elements of a field.

    ``nbytes`` and ``digest`` always describe the segment's *raw*
    (uncompressed) payload — the bytes that land back in memory on restore.
    ``codec`` records how the payload is stored (``"raw"`` = a plain tier
    blob, anything else = a :mod:`repro.codec` frame stream), and
    ``stored_nbytes`` the on-store payload size of that encoding (``None``
    means "same as raw", which is what ``"raw"`` segments and manifests
    written before compression existed carry).
    """

    tier: str
    key: str
    start: int
    count: int
    nbytes: int
    digest: int
    codec: str = "raw"
    stored_nbytes: Optional[int] = None

    @property
    def on_store_nbytes(self) -> int:
        """Payload bytes the segment occupies on its store (post-codec)."""
        return self.nbytes if self.stored_nbytes is None else self.stored_nbytes

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "tier": self.tier,
            "key": self.key,
            "start": self.start,
            "count": self.count,
            "nbytes": self.nbytes,
            "digest": self.digest,
        }
        if self.codec != "raw":
            payload["codec"] = self.codec
            payload["stored_nbytes"] = self.on_store_nbytes
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BlobSegment":
        try:
            stored = data.get("stored_nbytes")
            return cls(
                tier=str(data["tier"]),
                key=str(data["key"]),
                start=int(data["start"]),
                count=int(data["count"]),
                nbytes=int(data["nbytes"]),
                digest=int(data["digest"]),
                codec=str(data.get("codec", "raw")),
                stored_nbytes=None if stored is None else int(stored),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed blob segment: {data!r}") from exc


@dataclass(frozen=True)
class BlobRef:
    """One logical field blob: its geometry plus the segments storing it.

    ``source`` records how the blob entered the checkpoint — ``"linked"``
    (hard-linked tier-resident bytes, no data movement) or ``"staged"``
    (copied through a pooled scratch buffer and drained asynchronously) —
    which the writer's accounting and the docs surface.
    """

    dtype: str
    count: int
    source: str
    segments: Tuple[BlobSegment, ...]

    def __post_init__(self) -> None:
        if self.source not in ("linked", "staged"):
            raise CheckpointError(f"unknown blob source {self.source!r}")
        covered = sum(seg.count for seg in self.segments)
        if covered != self.count:
            raise CheckpointError(
                f"blob segments cover {covered} elements, expected {self.count}"
            )

    @property
    def numpy_dtype(self) -> np.dtype:
        try:
            return np.dtype(self.dtype)
        except TypeError as exc:
            raise CheckpointError(f"unknown blob dtype {self.dtype!r}") from exc

    @property
    def nbytes(self) -> int:
        return sum(seg.nbytes for seg in self.segments)

    @property
    def stored_nbytes(self) -> int:
        """On-store payload bytes across segments (post-codec; == raw for raw)."""
        return sum(seg.on_store_nbytes for seg in self.segments)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dtype": self.dtype,
            "count": self.count,
            "source": self.source,
            "segments": [seg.to_dict() for seg in self.segments],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BlobRef":
        try:
            segments = tuple(BlobSegment.from_dict(seg) for seg in data["segments"])
            return cls(
                dtype=str(data["dtype"]),
                count=int(data["count"]),
                source=str(data["source"]),
                segments=segments,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed blob ref: {data!r}") from exc


@dataclass(frozen=True)
class CheckpointManifest:
    """One committed checkpoint version of one worker."""

    version: int
    worker: str
    #: Engine ``update_count`` at the snapshot (the iteration boundary).
    iteration: int
    #: Shard-layout echo used to reject restores into mismatched engines.
    layout: Dict[str, int]
    #: Per-subgroup Adam step counters.
    steps: Dict[int, int]
    #: Subgroup → tier assignment recorded at snapshot time.
    placement: Dict[int, str]
    #: Subgroup → field → blob reference for the FP32 optimizer state.
    subgroups: Dict[int, Dict[str, BlobRef]]
    #: The model's FP16 working parameters.
    fp16_params: BlobRef
    created_unix: float = 0.0
    user_data: Dict[str, Any] = field(default_factory=dict)

    def blob_keys(self) -> Set[Tuple[str, str]]:
        """Every ``(tier, key)`` this manifest references (for GC refcounting)."""
        keys: Set[Tuple[str, str]] = set()
        for fields in self.subgroups.values():
            for ref in fields.values():
                for seg in ref.segments:
                    keys.add((seg.tier, seg.key))
        for seg in self.fp16_params.segments:
            keys.add((seg.tier, seg.key))
        return keys

    def to_json(self) -> str:
        payload = {
            "format": MANIFEST_FORMAT,
            "version": self.version,
            "worker": self.worker,
            "iteration": self.iteration,
            "created_unix": self.created_unix,
            "layout": dict(self.layout),
            "steps": {str(k): v for k, v in self.steps.items()},
            "placement": {str(k): v for k, v in self.placement.items()},
            "subgroups": {
                str(index): {name: ref.to_dict() for name, ref in fields.items()}
                for index, fields in self.subgroups.items()
            },
            "fp16_params": self.fp16_params.to_dict(),
            "user_data": self.user_data,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CheckpointManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError("manifest must be a JSON object")
        fmt = payload.get("format")
        if fmt != MANIFEST_FORMAT:
            raise CheckpointError(f"unsupported manifest format {fmt!r}")
        try:
            return cls(
                version=int(payload["version"]),
                worker=str(payload["worker"]),
                iteration=int(payload["iteration"]),
                created_unix=float(payload.get("created_unix", 0.0)),
                layout={str(k): int(v) for k, v in payload["layout"].items()},
                steps={int(k): int(v) for k, v in payload["steps"].items()},
                placement={int(k): str(v) for k, v in payload["placement"].items()},
                subgroups={
                    int(index): {
                        str(name): BlobRef.from_dict(ref) for name, ref in fields.items()
                    }
                    for index, fields in payload["subgroups"].items()
                },
                fp16_params=BlobRef.from_dict(payload["fp16_params"]),
                user_data=dict(payload.get("user_data", {})),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(f"malformed manifest: {exc}") from exc


#: Committed manifest filename pattern: ``ckpt-<worker>-<version>.json``.
_MANIFEST_RE = re.compile(r"^ckpt-(?P<worker>.+)-(?P<version>\d{6})\.json$")
#: Prepared (phase-one) manifest pattern: ``ckpt-<worker>-<version>.prepared.json``.
_PREPARED_RE = re.compile(r"^ckpt-(?P<worker>.+)-(?P<version>\d{6})\.prepared\.json$")
#: Global commit record pattern: ``GLOBAL-<version>.json`` (see
#: :mod:`repro.ckpt.coordinator`).
_GLOBAL_RE = re.compile(r"^GLOBAL-(?P<version>\d{6})\.json$")


@dataclass(frozen=True)
class ManifestDirSnapshot:
    """One *atomic* classified listing of a checkpoint directory.

    Garbage collection and global-commit promotion must never interleave
    several directory listings: a manifest landing between two ``glob`` calls
    would be visible to one decision (which blobs exist) but not the other
    (which blobs are referenced).  Every consumer therefore takes exactly one
    ``os.listdir`` snapshot via :func:`scan_manifest_dir` and derives all of
    its views — committed versions per worker, prepared (phase-one) versions
    per worker, global commit records — from that single listing.  Temp files
    (``*.tmp``) and lock files are skipped at classification time.
    """

    directory: Path
    #: worker → version → committed manifest path.
    committed: Dict[str, Dict[int, Path]]
    #: worker → version → prepared (not yet globally committed) manifest path.
    prepared: Dict[str, Dict[int, Path]]
    #: global version → ``GLOBAL-<version>.json`` path.
    global_versions: Dict[int, Path]

    def workers(self) -> Set[str]:
        """Every worker with a committed *or* prepared manifest present."""
        return set(self.committed) | set(self.prepared)

    def manifest_paths(self, *, include_prepared: bool = True) -> List[Path]:
        """Every per-worker manifest path in the snapshot, sorted."""
        paths: List[Path] = []
        for per_worker in self.committed.values():
            paths.extend(per_worker.values())
        if include_prepared:
            for per_worker in self.prepared.values():
                paths.extend(per_worker.values())
        return sorted(paths)


def scan_manifest_dir(directory: "str | os.PathLike[str]") -> ManifestDirSnapshot:
    """Classify a checkpoint directory from a single ``os.listdir`` call."""
    directory = Path(directory)
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        names = []
    committed: Dict[str, Dict[int, Path]] = {}
    prepared: Dict[str, Dict[int, Path]] = {}
    global_versions: Dict[int, Path] = {}
    for name in sorted(names):
        match = _PREPARED_RE.match(name)
        if match:
            prepared.setdefault(match.group("worker"), {})[
                int(match.group("version"))
            ] = directory / name
            continue
        match = _MANIFEST_RE.match(name)
        if match:
            committed.setdefault(match.group("worker"), {})[
                int(match.group("version"))
            ] = directory / name
            continue
        match = _GLOBAL_RE.match(name)
        if match:
            global_versions[int(match.group("version"))] = directory / name
    return ManifestDirSnapshot(
        directory=directory,
        committed=committed,
        prepared=prepared,
        global_versions=global_versions,
    )


def referenced_blobs(paths: "Sequence[Path]") -> Set[Tuple[str, str]]:
    """Union of blob keys referenced by the manifests at ``paths``.

    A path deleted between the snapshot and the read (a concurrent retention
    sweep won its race) is skipped — its references died with it.  A manifest
    that exists but cannot be parsed raises :class:`CheckpointError`: callers
    doing blob GC must treat that as "reference set unknown" and skip the
    sweep rather than delete blobs the unreadable manifest might reference.
    """
    referenced: Set[Tuple[str, str]] = set()
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            continue
        referenced |= CheckpointManifest.from_json(text).blob_keys()
    return referenced


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's entries (making a rename durable); best-effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(fd)


class ManifestStore:
    """The manifest directory: committed versions of every worker.

    One directory may hold manifests of several workers (sharing one set of
    blob stores); versions are tracked per worker, while garbage collection
    considers every worker's references.
    """

    def __init__(self, directory: "str | os.PathLike[str]", worker: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if not worker or "/" in worker:
            raise CheckpointError(f"invalid worker name {worker!r}")
        self.worker = worker

    def path_for(self, version: int) -> Path:
        return self.directory / f"ckpt-{self.worker}-{version:06d}.json"

    def prepared_path_for(self, version: int) -> Path:
        """Phase-one path: published by the drain, awaiting the global commit."""
        return self.directory / f"ckpt-{self.worker}-{version:06d}.prepared.json"

    def committed_versions(self) -> List[int]:
        """This worker's committed versions, ascending."""
        return sorted(scan_manifest_dir(self.directory).committed.get(self.worker, {}))

    def load(self, version: int) -> CheckpointManifest:
        path = self.path_for(version)
        if not path.exists():
            raise CheckpointError(
                f"no committed checkpoint version {version} for worker {self.worker!r} "
                f"in {str(self.directory)!r}"
            )
        manifest = CheckpointManifest.from_json(path.read_text(encoding="utf-8"))
        if manifest.version != version or manifest.worker != self.worker:
            raise CheckpointError(
                f"manifest {path.name} claims version {manifest.version} / worker "
                f"{manifest.worker!r}"
            )
        return manifest

    def latest(self) -> Optional[CheckpointManifest]:
        versions = self.committed_versions()
        return self.load(versions[-1]) if versions else None

    def commit(self, manifest: CheckpointManifest, *, prepared: bool = False) -> Path:
        """Atomically and durably publish ``manifest``.

        The temp file's data is fsynced before the rename and the directory
        entry after it, so a power failure cannot leave a torn manifest
        under a committed name — the commit point is the rename itself.
        With ``prepared`` the manifest lands under the phase-one
        ``*.prepared.json`` name instead: complete and durable, but not yet
        part of a global commit (see :mod:`repro.ckpt.coordinator`).
        """
        path = self.prepared_path_for(manifest.version) if prepared else self.path_for(
            manifest.version
        )
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(manifest.to_json() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_directory(self.directory)
        return path

    def delete(self, version: int) -> None:
        path = self.path_for(version)
        if path.exists():
            path.unlink()

    def workers_present(self) -> Set[str]:
        """Every worker with a committed *or* prepared manifest in this directory."""
        return scan_manifest_dir(self.directory).workers()

    def sweep_stale_tmp(self) -> None:
        """Remove *this worker's* uncommitted manifest temp files.

        Safe whenever no commit of this worker is in flight (commits are
        serialized per writer); other workers' temp files are left alone.
        """
        for tmp in self.directory.glob(f"ckpt-{self.worker}-*.json.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - lost a race with another sweep
                pass

    def all_referenced_blobs(self, *, include_prepared: bool = True) -> Set[Tuple[str, str]]:
        """Blob keys referenced by *any* worker's manifests (one atomic listing).

        Prepared manifests are counted by default: their blobs are fully
        written (a prepared manifest is only published after its drain's
        write barrier), so a blob sweep that missed them would delete
        payloads a global commit is about to reference.  A damaged manifest
        raises :class:`CheckpointError` — callers doing blob GC must treat
        that as "reference set unknown" and skip the sweep (see
        ``CheckpointWriter._collect_garbage``) rather than delete blobs the
        unreadable manifest might still reference.
        """
        snapshot = scan_manifest_dir(self.directory)
        return referenced_blobs(snapshot.manifest_paths(include_prepared=include_prepared))
