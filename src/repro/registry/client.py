"""Clients of the checkpoint registry: sync (trainer-side) and asyncio.

The sync :class:`RegistryClient` is what the checkpoint writer and the
restore path embed — plain blocking sockets, keep-alive with one transparent
reconnect, no threads of its own, so it slots into the writer's existing
drain thread without ceremony.  The :class:`AsyncRegistryClient` drives the
same wire format from an event loop; it exists for fleet-scale simulation
(hundreds of concurrent pushing clients in one process).

The push protocol is dedup-first: ``missing(keys)`` declares the full blob
set of a manifest and opens a push session (the server publishes a
crash-visible lease for it); only the server's *missing* subset is uploaded;
``commit`` publishes the manifest and retires the lease.  Every upload is
re-verified server-side against its content-addressed key, so the client
never has to be trusted.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.ckpt.faults import fault_point
from repro.ckpt.manifest import CheckpointError, CheckpointManifest, ManifestStore
from repro.ckpt.store import build_blob_stores
from repro.registry.protocol import (
    MAX_HEAD_BYTES,
    ProtocolError,
    body_length,
    format_request,
    parse_head,
    split_head,
    verify_blob_file,
)
from repro.util.logging import get_logger

_LOG = get_logger("registry.client")
_COUNTER = itertools.count()

#: Default ranged-GET window for streaming blob downloads.
DEFAULT_CHUNK_BYTES = 1 << 20


class RegistryError(RuntimeError):
    """A registry request that came back non-2xx (or not at all)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"registry returned {status}: {message}")
        self.status = status


@dataclass
class PushStats:
    """What one manifest push cost: dedup hits vs bytes actually moved."""

    version: int
    uploaded_blobs: int = 0
    uploaded_bytes: int = 0
    skipped_blobs: int = 0
    skipped_bytes: int = 0


def _parse_url(url: str) -> Tuple[str, int]:
    parts = urlsplit(url)
    if parts.scheme != "http" or not parts.hostname:
        raise ValueError(f"registry url must be http://host:port, got {url!r}")
    return parts.hostname, parts.port or 80


def _decode_error(status: int, body: bytes) -> RegistryError:
    try:
        message = json.loads(body.decode("utf-8")).get("error", "")
    except (UnicodeDecodeError, json.JSONDecodeError):
        message = body[:200].decode("utf-8", "replace")
    return RegistryError(status, message or "(no detail)")


class RegistryClient:
    """Blocking keep-alive client of one registry service, for one tenant."""

    def __init__(self, url: str, *, tenant: str = "default", timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        self._host, self._port = _parse_url(self.url)
        self._sock: Optional[socket.socket] = None

    # -- transport ---------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection((self._host, self._port), timeout=self.timeout)
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "RegistryClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response exchange; reconnects once on a dead socket.

        Every registry operation is idempotent (uploads are content-addressed,
        commits replay byte-identically), so the blanket single retry after a
        connection-level failure is safe.
        """
        payload = format_request(method, path, body, headers=headers)
        last: Optional[Exception] = None
        for attempt in range(2):
            try:
                sock = self._connect()
                sock.sendall(payload)
                return self._read_response(sock)
            except (ConnectionError, socket.timeout, OSError, ProtocolError) as exc:
                self.close()
                last = exc
                if attempt:
                    break
        raise RegistryError(0, f"transport failure talking to {self.url}: {last}")

    def _read_response(self, sock: socket.socket) -> Tuple[int, Dict[str, str], bytes]:
        buffer = b""
        head = None
        while head is None:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("registry closed the connection mid-response")
            buffer += chunk
            if len(buffer) > MAX_HEAD_BYTES and b"\r\n\r\n" not in buffer:
                raise ProtocolError("response head exceeds the size limit")
            parts = split_head(buffer)
            if parts is not None:
                head, buffer = parts
        status_str, _reason, headers = parse_head(head, response=True)
        length = body_length(headers)
        while len(buffer) < length:
            chunk = sock.recv(min(1 << 20, length - len(buffer)))
            if not chunk:
                raise ConnectionError("registry closed the connection mid-body")
            buffer += chunk
        if headers.get("connection", "").lower() == "close":
            self.close()
        return int(status_str), headers, buffer[:length]

    def _call(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        headers: Optional[Dict[str, str]] = None,
        allow: Tuple[int, ...] = (200,),
    ) -> Tuple[int, Dict[str, str], bytes]:
        status, rheaders, rbody = self._request(method, path, body, headers=headers)
        if status not in allow:
            raise _decode_error(status, rbody)
        return status, rheaders, rbody

    # -- registry operations ----------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        _status, _headers, body = self._call("GET", "/healthz")
        return json.loads(body.decode("utf-8"))

    def missing(self, keys: List[str]) -> Tuple[List[str], str]:
        """Open a push session: returns (keys the server lacks, session id)."""
        _s, _h, body = self._call(
            "POST", f"/v1/{self.tenant}/missing", json.dumps({"keys": sorted(keys)}).encode()
        )
        payload = json.loads(body.decode("utf-8"))
        return list(payload["missing"]), str(payload["session"])

    def upload_blob(self, key: str, data: bytes, *, session: Optional[str] = None) -> bool:
        """Upload one raw blob file; returns True if the server deduped it."""
        headers = {"x-session": session} if session else None
        _s, _h, body = self._call("PUT", f"/v1/blobs/{key}", data, headers=headers)
        return bool(json.loads(body.decode("utf-8")).get("deduped", False))

    def commit_manifest(
        self, manifest: CheckpointManifest, *, session: Optional[str] = None
    ) -> None:
        headers = {"x-session": session} if session else None
        self._call(
            "PUT",
            f"/v1/{self.tenant}/manifests/{manifest.worker}/{manifest.version}",
            manifest.to_json().encode("utf-8"),
            headers=headers,
        )

    def push_manifest(self, manifest: CheckpointManifest, stores) -> PushStats:
        """Push one committed checkpoint: dedup negotiation, uploads, commit.

        ``stores`` maps tier name → local store (the writer's own mapping);
        only the server's missing subset is read back off the local tiers and
        uploaded.  Fault points ``registry-mid-push`` (after each upload) and
        ``registry-pre-commit`` (after all uploads, before the manifest PUT)
        arm the torn-push crash tests.
        """
        tier_of: Dict[str, str] = {}
        for tier, key in sorted(manifest.blob_keys()):
            tier_of.setdefault(key, tier)
        missing, session = self.missing(list(tier_of))
        stats = PushStats(version=manifest.version)
        missing_set = set(missing)
        for key, tier in tier_of.items():
            store = stores.get(tier)
            if store is None:
                raise CheckpointError(f"no local store for tier {tier!r} while pushing {key!r}")
            if key not in missing_set:
                stats.skipped_blobs += 1
                stats.skipped_bytes += store.size_of(key)
                continue
            data = store.path_of(key).read_bytes()
            self.upload_blob(key, data, session=session)
            stats.uploaded_blobs += 1
            stats.uploaded_bytes += len(data)
            fault_point("registry-mid-push", version=manifest.version, key=key)
        fault_point("registry-pre-commit", version=manifest.version)
        self.commit_manifest(manifest, session=session)
        return stats

    def versions(self, worker: str) -> List[int]:
        _s, _h, body = self._call("GET", f"/v1/{self.tenant}/manifests/{worker}")
        return [int(v) for v in json.loads(body.decode("utf-8"))["versions"]]

    def fetch_manifest(
        self, worker: str, version: Optional[int] = None
    ) -> Optional[CheckpointManifest]:
        """The chosen (or latest) manifest, or ``None`` if the tenant has none."""
        target = "latest" if version is None else str(version)
        status, _h, body = self._call(
            "GET", f"/v1/{self.tenant}/manifests/{worker}/{target}", allow=(200, 404)
        )
        if status == 404:
            return None
        return CheckpointManifest.from_json(body.decode("utf-8"))

    def fetch_blob(
        self,
        key: str,
        dest_path: "str | os.PathLike[str]",
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> int:
        """Stream one blob file down in bounded ranged GETs; verify; publish.

        The file accumulates in a private temp next to ``dest_path``, is
        verified against the content-addressed ``key`` (digest re-derived,
        frames decoded) and only then renamed into place — the same
        torn-download discipline as every store write.  Returns the file size.
        """
        dest = Path(dest_path)
        tmp = dest.with_name(f"{dest.name}.{os.getpid()}.{next(_COUNTER)}.tmp")
        offset = 0
        total: Optional[int] = None
        try:
            with open(tmp, "wb") as handle:
                while total is None or offset < total:
                    stop = offset + chunk_bytes - 1
                    status, headers, body = self._call(
                        "GET",
                        f"/v1/blobs/{key}",
                        headers={"range": f"bytes={offset}-{stop}"},
                        allow=(200, 206),
                    )
                    total = int(headers.get("x-blob-total", len(body)))
                    if status == 200:  # server ignored the range: whole body
                        handle.write(body)
                        offset = total
                        break
                    if not body:
                        raise ProtocolError(f"empty range response for {key!r}")
                    handle.write(body)
                    offset += len(body)
            verify_blob_file(tmp, key)
            os.replace(tmp, dest)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        return offset

    def fetch_blob_into_store(self, key: str, store) -> int:
        """Download one blob straight into a local tier store under ``key``."""
        tmp = Path(store.root) / f"{key}.dl.{os.getpid()}.{next(_COUNTER)}.tmp"
        nbytes = self.fetch_blob(key, tmp)
        try:
            store.adopt(key, tmp)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        return nbytes

    def collect_garbage(self) -> Dict[str, Any]:
        _s, _h, body = self._call("POST", f"/v1/{self.tenant}/gc", b"{}")
        return json.loads(body.decode("utf-8"))

    def set_retention(self, retention: int) -> None:
        self._call(
            "PUT", f"/v1/{self.tenant}/retention", json.dumps({"retention": retention}).encode()
        )


def pull_checkpoint(
    config, *, worker: str = "rank0", version: Optional[int] = None
) -> Optional[int]:
    """Materialize a registry checkpoint into this job's local tiers.

    The cold-restore path: fetch the (latest or requested) manifest for
    ``worker`` from ``config.checkpoint_registry_url``, stream every blob the
    local tier stores are missing down into them (verified against its CAS
    key before adoption), then commit the manifest locally.  From there the
    ordinary local restore machinery — including the zero-copy hard-link
    streaming path — runs unchanged, so a registry restore is bitwise
    identical to a local one.  Returns the restored version, or ``None`` when
    the registry has nothing for this worker/tenant.
    """
    if not config.checkpoint_registry_url:
        return None
    with RegistryClient(
        config.checkpoint_registry_url, tenant=config.checkpoint_registry_tenant
    ) as client:
        manifest = client.fetch_manifest(worker, version)
        if manifest is None:
            return None
        stores = build_blob_stores(config)
        fetched = 0
        for tier, key in sorted(manifest.blob_keys()):
            store = stores.get(tier)
            if store is None:
                raise CheckpointError(
                    f"registry checkpoint v{manifest.version} references tier {tier!r}, "
                    f"which this job does not configure"
                )
            if store.contains(key):
                continue
            client.fetch_blob_into_store(key, store)
            fetched += 1
        ManifestStore(config.checkpoint_dir, worker).commit(manifest)
        _LOG.info(
            "pulled checkpoint v%d for %s from %s (%d blobs fetched)",
            manifest.version,
            worker,
            config.checkpoint_registry_url,
            fetched,
        )
        return manifest.version


class AsyncRegistryClient:
    """The same wire protocol over asyncio streams (fleet simulation)."""

    def __init__(self, url: str, *, tenant: str = "default") -> None:
        self.url = url.rstrip("/")
        self.tenant = tenant
        self._host, self._port = _parse_url(self.url)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
            self._reader = None
            self._writer = None

    async def _call(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        headers: Optional[Dict[str, str]] = None,
        allow: Tuple[int, ...] = (200,),
    ) -> Tuple[int, Dict[str, str], bytes]:
        last: Optional[Exception] = None
        for attempt in range(2):
            try:
                if self._writer is None:
                    self._reader, self._writer = await asyncio.open_connection(
                        self._host, self._port
                    )
                self._writer.write(format_request(method, path, body, headers=headers))
                await self._writer.drain()
                head = await self._reader.readuntil(b"\r\n\r\n")
                status_str, _reason, rheaders = parse_head(head[:-4], response=True)
                length = body_length(rheaders)
                rbody = await self._reader.readexactly(length) if length else b""
                status = int(status_str)
                if status not in allow:
                    raise _decode_error(status, rbody)
                return status, rheaders, rbody
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                await self.close()
                last = exc
                if attempt:
                    break
        raise RegistryError(0, f"transport failure talking to {self.url}: {last}")

    async def healthz(self) -> Dict[str, Any]:
        _s, _h, body = await self._call("GET", "/healthz")
        return json.loads(body.decode("utf-8"))

    async def missing(self, keys: List[str]) -> Tuple[List[str], str]:
        _s, _h, body = await self._call(
            "POST", f"/v1/{self.tenant}/missing", json.dumps({"keys": sorted(keys)}).encode()
        )
        payload = json.loads(body.decode("utf-8"))
        return list(payload["missing"]), str(payload["session"])

    async def upload_blob(self, key: str, data: bytes, *, session: Optional[str] = None) -> bool:
        headers = {"x-session": session} if session else None
        _s, _h, body = await self._call("PUT", f"/v1/blobs/{key}", data, headers=headers)
        return bool(json.loads(body.decode("utf-8")).get("deduped", False))

    async def commit_manifest(
        self, manifest: CheckpointManifest, *, session: Optional[str] = None
    ) -> None:
        headers = {"x-session": session} if session else None
        await self._call(
            "PUT",
            f"/v1/{self.tenant}/manifests/{manifest.worker}/{manifest.version}",
            manifest.to_json().encode("utf-8"),
            headers=headers,
        )

    async def fetch_manifest(
        self, worker: str, version: Optional[int] = None
    ) -> Optional[CheckpointManifest]:
        target = "latest" if version is None else str(version)
        status, _h, body = await self._call(
            "GET", f"/v1/{self.tenant}/manifests/{worker}/{target}", allow=(200, 404)
        )
        if status == 404:
            return None
        return CheckpointManifest.from_json(body.decode("utf-8"))

    async def versions(self, worker: str) -> List[int]:
        _s, _h, body = await self._call("GET", f"/v1/{self.tenant}/manifests/{worker}")
        return [int(v) for v in json.loads(body.decode("utf-8"))["versions"]]

    async def fetch_blob_bytes(self, key: str, *, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> bytes:
        """The whole blob file, streamed down in bounded ranged GETs."""
        pieces: List[bytes] = []
        offset = 0
        total: Optional[int] = None
        while total is None or offset < total:
            status, headers, body = await self._call(
                "GET",
                f"/v1/blobs/{key}",
                headers={"range": f"bytes={offset}-{offset + chunk_bytes - 1}"},
                allow=(200, 206),
            )
            total = int(headers.get("x-blob-total", len(body)))
            pieces.append(body)
            offset += len(body)
            if status == 200:
                break
            if not body:
                raise ProtocolError(f"empty range response for {key!r}")
        return b"".join(pieces)

    async def collect_garbage(self) -> Dict[str, Any]:
        _s, _h, body = await self._call("POST", f"/v1/{self.tenant}/gc", b"{}")
        return json.loads(body.decode("utf-8"))
