"""The multi-tenant checkpoint registry service (asyncio, stdlib only).

One standing process that a fleet of training jobs pushes checkpoints to and
restores from.  Storage layout under the service root::

    <root>/blobs/              one global content-addressed FileStore vault
    <root>/tenants/<tenant>/   that tenant's manifest catalog (the exact
                               ``repro.ckpt.manifest`` directory format, so
                               ``scan_manifest_dir`` / ``ManifestStore`` work
                               unchanged on the server side)
    <root>/quarantine/         blobs the scrubber failed and pulled aside
    <root>/leases/             push-intent leases (crash-visible GC guards)

**Cross-job dedup** falls out of the vault being global while catalogs are
per tenant: blob keys are the PR 4 uncompressed-digest CAS keys, so N
fine-tunes of one base model reference the same master blobs and the push
protocol (client sends its digest list, server answers with the missing
subset) uploads each payload once, fleet-wide.

**GC safety** reuses the drain-lease liveness scheme: every push session
publishes an on-disk ``PUSH-<pid>-<n>.lease`` before any blob lands and
retires it when the manifest commits.  The blob sweep derives its reference
set from the on-disk manifests alone (no persistent refcounts — a server
killed mid-GC recovers by pure recomputation), excludes keys of live push
sessions, and stands down entirely while a *foreign* live lease exists
(another process sharing the root mid-push); dead owners' leases are broken
exactly like dead drain leases.

**Scrubbing**: the PR 4 ``CheckpointReader.verify_blobs`` deep audit runs as
an idle-time coroutine — only while no push is in flight — walking every
tenant's manifests round-robin with all tier names flattened onto the vault.
A segment that fails its digest is quarantined (moved out of the vault, so
dedup can never vouch for corrupt bytes again) and surfaced in ``/healthz``;
a fresh upload of the same key clears it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.ckpt.faults import fault_point
from repro.ckpt.manifest import (
    CheckpointError,
    CheckpointManifest,
    ManifestStore,
    parse_cas_key,
    referenced_blobs,
    scan_manifest_dir,
)
from repro.ckpt.restore import CheckpointReader
from repro.ckpt.store import CAS_PREFIX
from repro.registry.protocol import (
    NAME_RE,
    ProtocolError,
    Request,
    format_response,
    parse_range,
    read_request,
    verify_blob_file,
)
from repro.tiers.file_store import FileStore, StoreError
from repro.util.logging import get_logger

_LOG = get_logger("registry.server")

#: Push sessions idle longer than this are expired and their leases broken.
DEFAULT_LEASE_TIMEOUT = 30.0
#: Unique temp/lease suffix counter (same discipline as FileStore temps).
_COUNTER = itertools.count()


class _VaultMap:
    """A store mapping answering *every* tier name with the one global vault.

    Client manifests carry their job's tier names (``nvme``, ``pfs``, …);
    on the server all payloads live in the single blob vault.  Injecting
    this mapping into :class:`CheckpointReader` flattens the tier dimension
    away so ``verify_blobs`` audits registry checkpoints unchanged.
    """

    def __init__(self, store: FileStore) -> None:
        self._store = store

    def get(self, name: str, default=None):
        return self._store

    def __getitem__(self, name: str):
        return self._store


@dataclass
class _PushSession:
    """One in-flight push: its declared keys protect the blobs from GC."""

    session_id: str
    tenant: str
    keys: Set[str]
    lease_path: Path
    deadline: float = 0.0


@dataclass
class _Stats:
    pushes: int = 0
    blobs_ingested: int = 0
    bytes_ingested: int = 0
    blobs_deduped: int = 0
    manifests_committed: int = 0
    gc_runs: int = 0
    gc_swept_blobs: int = 0
    gc_retired_manifests: int = 0
    gc_standdowns: int = 0
    scrubbed_segments: int = 0
    scrub_errors: int = 0
    expired_sessions: int = 0
    requests: int = 0
    errors: Dict[str, int] = field(default_factory=dict)


class RegistryServer:
    """The asyncio registry service over one storage root.

    Parameters
    ----------
    root:
        Service storage root (created if missing).
    host / port:
        Listen address; ``port=0`` binds an ephemeral port (``self.port``
        holds the real one once :meth:`start` returns).
    retention:
        Default per-worker manifest retention; tenants may override it via
        ``PUT /v1/<tenant>/retention`` (persisted in the tenant catalog).
    scrub_interval:
        Idle-time scrubber cadence in seconds (``0`` disables the scrubber).
    lease_timeout:
        Seconds of inactivity after which a push session is abandoned and
        its lease broken (a SIGKILLed client mid-push).
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        retention: int = 2,
        scrub_interval: float = 0.2,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.root = Path(root)
        self.host = host
        self.port = port
        self.retention = retention
        self.scrub_interval = scrub_interval
        self.lease_timeout = lease_timeout
        self.tenants_dir = self.root / "tenants"
        self.quarantine_dir = self.root / "quarantine"
        self.leases_dir = self.root / "leases"
        self.incoming_dir = self.root / "incoming"
        for directory in (
            self.tenants_dir,
            self.quarantine_dir,
            self.leases_dir,
            self.incoming_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self.vault = FileStore(self.root / "blobs", name="registry")
        self.stats = _Stats()
        #: key → reason, for every blob the scrubber pulled out of the vault.
        self.quarantined: Dict[str, str] = {}
        self._sessions: Dict[str, _PushSession] = {}
        self._session_counter = itertools.count(1)
        self._retentions: Dict[str, int] = {}
        self._scrub_queue: List[Tuple[str, str, int]] = []
        self._maintenance = asyncio.Lock()
        self._server: Optional[asyncio.base_events.Server] = None
        self._scrub_task: Optional[asyncio.Task] = None
        self._connections: Set[asyncio.Task] = set()
        self._break_dead_leases()
        self._sweep_stale_incoming()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the idle-time scrubber."""
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.scrub_interval > 0:
            self._scrub_task = asyncio.ensure_future(self._scrub_loop())
        _LOG.info("registry listening on %s:%d root=%s", self.host, self.port, self.root)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._scrub_task is not None:
            self._scrub_task.cancel()
            try:
                await self._scrub_task
            except asyncio.CancelledError:
                pass
            self._scrub_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(format_response(400, _err(str(exc)), keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                self.stats.requests += 1
                try:
                    status, body, headers = await self._route(request)
                except ProtocolError as exc:
                    status, body, headers = 400, _err(str(exc)), None
                except CheckpointError as exc:
                    status, body, headers = 409, _err(str(exc)), None
                except StoreError as exc:
                    status, body, headers = 404, _err(str(exc)), None
                except Exception as exc:  # noqa: BLE001 - must answer something
                    _LOG.error("registry 500 on %s %s: %s", request.method, request.path, exc)
                    status, body, headers = 500, _err(f"internal error: {exc}"), None
                if status >= 400:
                    label = f"{status}"
                    self.stats.errors[label] = self.stats.errors.get(label, 0) + 1
                writer.write(
                    format_response(status, body, headers=headers, keep_alive=request.keep_alive)
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished mid-exchange; nothing half-applied survives
        except asyncio.CancelledError:
            pass  # server close cancelled this connection; exit quietly
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _route(self, request: Request) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        parts = [p for p in request.path.split("?", 1)[0].split("/") if p]
        method = request.method
        if parts == ["healthz"] and method == "GET":
            return 200, _json(self.healthz()), None
        if len(parts) == 3 and parts[:2] == ["v1", "blobs"]:
            if method == "PUT":
                return await self._put_blob(parts[2], request)
            if method == "GET":
                return await self._get_blob(parts[2], request)
        if len(parts) >= 2 and parts[0] == "v1":
            tenant = parts[1]
            if not NAME_RE.match(tenant):
                raise ProtocolError(f"invalid tenant name {tenant!r}")
            rest = parts[2:]
            if rest == ["missing"] and method == "POST":
                return self._post_missing(tenant, request)
            if rest == ["gc"] and method == "POST":
                return await self._post_gc(tenant, request)
            if rest == ["retention"] and method == "PUT":
                return self._put_retention(tenant, request)
            if len(rest) == 2 and rest[0] == "manifests" and method == "GET":
                return self._get_versions(tenant, rest[1])
            if len(rest) == 3 and rest[0] == "manifests":
                if method == "GET":
                    return self._get_manifest(tenant, rest[1], rest[2])
                if method == "PUT":
                    return await self._put_manifest(tenant, rest[1], rest[2], request)
        return 404, _err(f"no route for {method} {request.path}"), None

    # -- push protocol ------------------------------------------------------

    def _post_missing(self, tenant: str, request: Request):
        payload = _json_body(request)
        keys = payload.get("keys")
        if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
            raise ProtocolError("missing-set request needs a 'keys' list")
        for key in keys:
            if parse_cas_key(key) is None:
                raise ProtocolError(f"{key!r} is not a content-addressed blob key")
        missing = sorted(
            k for k in set(keys) if not self.vault.contains(k) or k in self.quarantined
        )
        session = self._open_session(tenant, set(keys))
        self.stats.pushes += 1
        return 200, _json({"missing": missing, "session": session.session_id}), None

    async def _put_blob(self, key: str, request: Request):
        session = self._touch_session(request)
        if parse_cas_key(key) is None:
            raise ProtocolError(f"{key!r} is not a content-addressed blob key")
        if session is not None:
            session.keys.add(key)
        nbytes, deduped = await asyncio.to_thread(self._ingest_blob, key, request.body)
        if deduped:
            self.stats.blobs_deduped += 1
        else:
            self.stats.blobs_ingested += 1
            self.stats.bytes_ingested += len(request.body)
        self.quarantined.pop(key, None)  # a verified re-upload clears the quarantine
        return 200, _json({"key": key, "nbytes": nbytes, "deduped": deduped}), None

    def _ingest_blob(self, key: str, body: bytes) -> Tuple[int, bool]:
        """Verify and adopt one uploaded blob file; never visible if torn.

        The body lands in a private temp file, is verified against the CAS
        key it claims (digest re-derived from the actual bytes, frames
        decoded), and only then hard-linked into the vault under the key —
        the same publish-by-rename discipline every store write uses, so a
        client SIGKILLed mid-upload leaves at most an unreferenced temp.
        """
        if self.vault.contains(key) and key not in self.quarantined:
            return parse_cas_key(key)[1], True
        tmp = self.incoming_dir / f"{key}.{os.getpid()}.{next(_COUNTER)}.tmp"
        try:
            tmp.write_bytes(body)
            nbytes = verify_blob_file(tmp, key)
            self.vault.adopt(key, tmp)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        return nbytes, False

    async def _get_blob(self, key: str, request: Request):
        try:
            path = self.vault.path_of(key)
        except StoreError:
            if key in self.quarantined:
                raise ProtocolError(f"blob {key!r} is quarantined: {self.quarantined[key]}")
            raise
        total = path.stat().st_size
        try:
            window = parse_range(request.headers.get("range"), total)
        except ProtocolError as exc:
            return 416, _err(str(exc)), None
        start, stop = window if window is not None else (0, total)
        data = await asyncio.to_thread(_read_window, path, start, stop)
        headers = {"x-blob-total": str(total)}
        if window is None:
            return 200, data, headers
        headers["content-range"] = f"bytes {start}-{stop - 1}/{total}"
        return 206, data, headers

    async def _put_manifest(self, tenant: str, worker: str, version_str: str, request: Request):
        if not NAME_RE.match(worker):
            raise ProtocolError(f"invalid worker name {worker!r}")
        try:
            version = int(version_str)
        except ValueError as exc:
            raise ProtocolError(f"invalid version {version_str!r}") from exc
        manifest = CheckpointManifest.from_json(request.body.decode("utf-8"))
        if manifest.worker != worker or manifest.version != version:
            raise ProtocolError(
                f"manifest claims worker {manifest.worker!r} v{manifest.version}, "
                f"request names {worker!r} v{version}"
            )
        missing = sorted(
            {key for _tier, key in manifest.blob_keys() if not self.vault.contains(key)}
        )
        if missing:
            # The manifest must never become visible before every payload it
            # references is durable — a restore that raced it would fail.
            raise CheckpointError(f"manifest v{version} references unuploaded blobs: {missing}")
        catalog = ManifestStore(self._tenant_dir(tenant), worker)
        catalog.commit(manifest)
        self.stats.manifests_committed += 1
        self._close_session(request)
        retired = self._retire_manifests(tenant)
        return 200, _json({"version": version, "retired": retired}), None

    def _get_versions(self, tenant: str, worker: str):
        snapshot = scan_manifest_dir(self._tenant_dir(tenant, create=False))
        versions = sorted(snapshot.committed.get(worker, {}))
        return 200, _json({"worker": worker, "versions": versions}), None

    def _get_manifest(self, tenant: str, worker: str, version_str: str):
        snapshot = scan_manifest_dir(self._tenant_dir(tenant, create=False))
        versions = sorted(snapshot.committed.get(worker, {}))
        if not versions:
            return 404, _err(f"tenant {tenant!r} has no manifests for {worker!r}"), None
        if version_str == "latest":
            version = versions[-1]
        else:
            try:
                version = int(version_str)
            except ValueError as exc:
                raise ProtocolError(f"invalid version {version_str!r}") from exc
            if version not in versions:
                return 404, _err(f"no version {version} for {worker!r}"), None
        path = snapshot.committed[worker][version]
        try:
            return 200, path.read_bytes(), None
        except FileNotFoundError:
            return 404, _err(f"version {version} was retired concurrently"), None

    # -- sessions & leases ---------------------------------------------------

    def _open_session(self, tenant: str, keys: Set[str]) -> _PushSession:
        session_id = f"p{next(self._session_counter)}"
        lease = self.leases_dir / f"PUSH-{os.getpid()}-{next(_COUNTER)}.lease"
        lease.write_text(
            json.dumps({"tenant": tenant, "session": session_id, "created": time.time()}),
            encoding="utf-8",
        )
        session = _PushSession(
            session_id=session_id,
            tenant=tenant,
            keys=set(keys),
            lease_path=lease,
            deadline=time.monotonic() + self.lease_timeout,
        )
        self._sessions[session_id] = session
        return session

    def _touch_session(self, request: Request) -> Optional[_PushSession]:
        session_id = request.headers.get("x-session")
        if not session_id:
            return None
        session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown or expired push session {session_id!r}")
        session.deadline = time.monotonic() + self.lease_timeout
        return session

    def _close_session(self, request: Request) -> None:
        session_id = request.headers.get("x-session")
        session = self._sessions.pop(session_id, None) if session_id else None
        if session is not None:
            try:
                session.lease_path.unlink()
            except OSError:  # pragma: no cover - lease already broken
                pass

    def _expire_sessions(self) -> None:
        now = time.monotonic()
        for session_id in [s for s, sess in self._sessions.items() if sess.deadline < now]:
            session = self._sessions.pop(session_id)
            self.stats.expired_sessions += 1
            _LOG.warning(
                "expiring push session %s of tenant %s (client gone mid-push)",
                session_id,
                session.tenant,
            )
            try:
                session.lease_path.unlink()
            except OSError:  # pragma: no cover - lease already broken
                pass

    def _break_dead_leases(self) -> None:
        """Break leases whose owning process is gone (crash hygiene at start).

        Mirrors the drain-lease scheme: a lease names its writer's pid; a
        dead pid can never commit its manifest, so its blobs are orphans the
        next GC may sweep.  Live foreign owners are left alone — the sweep
        stands down for them instead.
        """
        for lease in self.leases_dir.glob("PUSH-*.lease"):
            pid = _lease_pid(lease)
            if pid is None or pid == os.getpid() or not _pid_alive(pid):
                try:
                    lease.unlink()
                except OSError:  # pragma: no cover - lost a race
                    pass

    def _sweep_stale_incoming(self) -> None:
        for tmp in self.incoming_dir.glob("*.tmp"):
            try:
                pid = int(tmp.name.split(".")[-3])
            except (ValueError, IndexError):
                pid = None
            if pid is None or pid == os.getpid() or not _pid_alive(pid):
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - lost a race
                    pass

    def _foreign_live_lease(self) -> Optional[Path]:
        for lease in self.leases_dir.glob("PUSH-*.lease"):
            pid = _lease_pid(lease)
            if pid is None:
                continue
            if pid != os.getpid() and _pid_alive(pid):
                return lease
            if pid != os.getpid():
                try:
                    lease.unlink()
                except OSError:  # pragma: no cover - lost a race
                    pass
        return None

    # -- retention & GC ------------------------------------------------------

    def _put_retention(self, tenant: str, request: Request):
        payload = _json_body(request)
        retention = payload.get("retention")
        if not isinstance(retention, int) or retention < 1:
            raise ProtocolError("'retention' must be an integer >= 1")
        self._retentions[tenant] = retention
        policy = self._tenant_dir(tenant) / "retention.json"
        policy.write_text(json.dumps({"retention": retention}) + "\n", encoding="utf-8")
        return 200, _json({"tenant": tenant, "retention": retention}), None

    def _tenant_retention(self, tenant: str) -> int:
        cached = self._retentions.get(tenant)
        if cached is not None:
            return cached
        policy = self.tenants_dir / tenant / "retention.json"
        retention = self.retention
        if policy.is_file():
            try:
                retention = max(1, int(json.loads(policy.read_text(encoding="utf-8"))["retention"]))
            except (ValueError, KeyError, json.JSONDecodeError):
                pass  # damaged policy file: fall back to the server default
        self._retentions[tenant] = retention
        return retention

    def _retire_manifests(self, tenant: str) -> int:
        """Drop committed versions beyond the tenant's retention window."""
        directory = self._tenant_dir(tenant, create=False)
        snapshot = scan_manifest_dir(directory)
        retention = self._tenant_retention(tenant)
        retired = 0
        for worker, versions in snapshot.committed.items():
            for version in sorted(versions)[:-retention]:
                try:
                    versions[version].unlink()
                    retired += 1
                except OSError:  # pragma: no cover - lost a race
                    pass
        self.stats.gc_retired_manifests += retired
        return retired

    async def _post_gc(self, tenant: str, request: Request):
        async with self._maintenance:
            report = self._collect_garbage(tenant)
        return 200, _json(report), None

    def _collect_garbage(self, tenant: Optional[str] = None) -> Dict[str, Any]:
        """Retention retire + cross-tenant blob sweep (recomputed refcounts).

        Reference counts are *never* persisted: the sweep re-derives the full
        reference set from the on-disk manifests of every tenant, so a server
        killed between the manifest retire and the blob sweep merely leaves
        unreferenced blobs for the next run — no orphaned counters, no
        double-free.  Keys declared by live push sessions are protected (the
        uploaded-but-not-yet-committed window), and the sweep stands down
        while a foreign process's live push lease exists.
        """
        self.stats.gc_runs += 1
        tenants = [tenant] if tenant else self._tenant_names()
        retired = sum(self._retire_manifests(name) for name in tenants)
        fault_point("registry-mid-gc")
        lease = self._foreign_live_lease()
        if lease is not None:
            self.stats.gc_standdowns += 1
            return {"retired": retired, "swept": 0, "standdown": lease.name}
        protected: Set[str] = set()
        for session in self._sessions.values():
            protected |= session.keys
        try:
            referenced = self._referenced_keys()
        except CheckpointError as exc:
            # A damaged manifest means "reference set unknown" — skip the
            # sweep rather than risk deleting blobs it may still reference.
            _LOG.warning("skipping registry blob sweep: %s", exc)
            return {"retired": retired, "swept": 0, "skipped": str(exc)}
        swept = 0
        for key in list(self.vault.keys()):
            if not key.startswith(CAS_PREFIX):
                continue
            if key in referenced or key in protected:
                continue
            try:
                self.vault.delete(key)
                swept += 1
            except StoreError:  # pragma: no cover - deleted concurrently
                pass
        self.stats.gc_swept_blobs += swept
        return {"retired": retired, "swept": swept}

    def _referenced_keys(self) -> Set[str]:
        referenced: Set[str] = set()
        for name in self._tenant_names():
            snapshot = scan_manifest_dir(self.tenants_dir / name)
            for _tier, key in referenced_blobs(snapshot.manifest_paths()):
                referenced.add(key)
        return referenced

    def _tenant_names(self) -> List[str]:
        try:
            return sorted(
                entry for entry in os.listdir(self.tenants_dir)
                if (self.tenants_dir / entry).is_dir()
            )
        except FileNotFoundError:  # pragma: no cover - root vanished
            return []

    def _tenant_dir(self, tenant: str, *, create: bool = True) -> Path:
        directory = self.tenants_dir / tenant
        if create:
            directory.mkdir(parents=True, exist_ok=True)
        return directory

    # -- scrubber ------------------------------------------------------------

    async def _scrub_loop(self) -> None:
        """Idle-time deep audit: verify one manifest per quiet tick."""
        while True:
            await asyncio.sleep(self.scrub_interval)
            try:
                self._expire_sessions()
                if self._sessions:
                    continue  # idle-time only: pushes in flight own the vault
                target = self._next_scrub_target()
                if target is None:
                    continue
                async with self._maintenance:
                    fault_point("registry-mid-scrub")
                    await asyncio.to_thread(self._scrub_one, *target)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - scrubbing must outlive hiccups
                _LOG.warning("scrub pass failed (continuing): %s", exc)

    def _next_scrub_target(self) -> Optional[Tuple[str, str, int]]:
        if not self._scrub_queue:
            for name in self._tenant_names():
                snapshot = scan_manifest_dir(self.tenants_dir / name)
                for worker, versions in sorted(snapshot.committed.items()):
                    for version in sorted(versions):
                        self._scrub_queue.append((name, worker, version))
        return self._scrub_queue.pop(0) if self._scrub_queue else None

    def _scrub_one(self, tenant: str, worker: str, version: int) -> None:
        reader = CheckpointReader(
            stores=_VaultMap(self.vault),
            manifest_dir=str(self.tenants_dir / tenant),
            worker=worker,
        )
        try:
            manifest = reader.manifests.load(version)
        except CheckpointError:
            return  # retired (or damaged) since the queue was built
        failures: List[Tuple[str, str]] = []
        verified = reader.verify_blobs(
            manifest, on_error=lambda seg, exc: failures.append((seg.key, str(exc)))
        )
        self.stats.scrubbed_segments += verified
        for key, reason in failures:
            self._quarantine(key, reason)

    def _quarantine(self, key: str, reason: str) -> None:
        """Pull a corrupt blob out of the vault (kept aside for forensics)."""
        self.stats.scrub_errors += 1
        self.quarantined[key] = reason
        try:
            path = self.vault.path_of(key)
        except StoreError:
            return  # already gone (GC won the race); the record stands
        target = self.quarantine_dir / f"{key}.bin"
        # Link the inode into quarantine first, then drop the vault's name:
        # the bytes stay reachable for forensics and the key is gone from the
        # dedup namespace in one ordered pair of metadata operations.
        try:
            if not target.exists():
                os.link(path, target)
            self.vault.delete(key)
        except (OSError, StoreError):  # pragma: no cover - lost a race
            pass
        _LOG.warning("quarantined blob %s: %s", key, reason)

    # -- health --------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The `/healthz` document: liveness plus scrub/GC/dedup vitals."""
        manifests = 0
        for name in self._tenant_names():
            snapshot = scan_manifest_dir(self.tenants_dir / name)
            manifests += sum(len(v) for v in snapshot.committed.values())
        blobs = sum(1 for key in self.vault.keys() if key.startswith(CAS_PREFIX))
        stats = self.stats
        return {
            "status": "degraded" if self.quarantined else "ok",
            "tenants": len(self._tenant_names()),
            "manifests": manifests,
            "blobs": blobs,
            "blob_bytes": self.vault.used_bytes,
            "active_pushes": len(self._sessions),
            "quarantined": sorted(self.quarantined),
            "stats": {
                "pushes": stats.pushes,
                "blobs_ingested": stats.blobs_ingested,
                "bytes_ingested": stats.bytes_ingested,
                "blobs_deduped": stats.blobs_deduped,
                "manifests_committed": stats.manifests_committed,
                "gc_runs": stats.gc_runs,
                "gc_swept_blobs": stats.gc_swept_blobs,
                "gc_retired_manifests": stats.gc_retired_manifests,
                "gc_standdowns": stats.gc_standdowns,
                "scrubbed_segments": stats.scrubbed_segments,
                "scrub_errors": stats.scrub_errors,
                "expired_sessions": stats.expired_sessions,
                "requests": stats.requests,
                "errors": dict(stats.errors),
            },
        }


# -- helpers -----------------------------------------------------------------


def _json(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _err(message: str) -> bytes:
    return _json({"error": message})


def _json_body(request: Request) -> Dict[str, Any]:
    try:
        payload = json.loads(request.body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


def _read_window(path: Path, start: int, stop: int) -> bytes:
    with open(path, "rb") as handle:
        handle.seek(start)
        return handle.read(stop - start)


def _lease_pid(lease: Path) -> Optional[int]:
    parts = lease.name.split("-")
    try:
        return int(parts[1])
    except (IndexError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, other user
        return True
    return True


class RegistryServerThread:
    """Run a :class:`RegistryServer` on a private loop in a daemon thread.

    The in-process harness the example and the tests use:
    ``with RegistryServerThread(root) as srv: client = RegistryClient(srv.url)``.
    The server object is reachable as ``.server`` for white-box assertions.
    """

    def __init__(self, root: "str | os.PathLike[str]", **kwargs: Any) -> None:
        self._root = root
        self._kwargs = kwargs
        self.server: Optional[RegistryServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        assert self.server is not None, "server thread not started"
        return f"http://{self.server.host}:{self.server.port}"

    def __enter__(self) -> "RegistryServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-registry", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("registry server thread did not start in time")
        if self._error is not None:
            raise RuntimeError(f"registry server failed to start: {self._error}")
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.server = RegistryServer(self._root, **self._kwargs)
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to __enter__
            self._error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.close())
            loop.close()
