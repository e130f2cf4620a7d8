"""File-backed storage tier used by the functional offloading engines.

Each third-level tier (node-local NVMe, remote PFS, …) is represented by a
directory.  Subgroup state is serialized as raw little-endian binary blobs
with a tiny sidecar-free header so that reads do not need an external
manifest.  The store optionally throttles its reads and writes to a
configured bandwidth, which lets small functional runs reproduce the relative
NVMe/PFS speeds of Table 1 without terabytes of real I/O.

Two I/O disciplines are offered over the same on-disk format:

* the legacy value-returning API (:meth:`FileStore.read` /
  :meth:`FileStore.write`), which now performs exactly one allocation per
  read (the destination array, filled via ``readinto``) and zero
  serialization copies per write (header + payload streamed from a
  ``memoryview``);
* the zero-copy API (:meth:`FileStore.load_into` /
  :meth:`FileStore.save_from`), where the caller supplies the destination —
  typically a buffer leased from :class:`repro.tiers.array_pool.ArrayPool` —
  so steady-state traffic allocates nothing at all.

Both paths keep byte accounting (stats, capacity, throttle charges)
byte-for-byte identical: every operation is charged the full blob size,
header included.

The store is the stand-in for DeepNVMe's swap files; the asynchronous
pipelining on top of it lives in :mod:`repro.aio.engine`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, Optional, Tuple

import numpy as np

from typing import TYPE_CHECKING

from repro.tiers.spec import BlobStore
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import is for type checkers only
    from repro.aio.backends import IOBackend
    from repro.aio.throttle import BandwidthThrottle

_LOG = get_logger("tiers.file_store")


def _io_backends():
    """The :mod:`repro.aio.backends` module, imported lazily.

    ``repro.aio``'s package init imports the engine, which imports this
    module — a module-level import of the backends registry here would be
    circular.  By store-construction time everything is initialized.
    """
    from repro.aio import backends

    return backends

#: Magic prefix guarding against reading foreign files as subgroup blobs.
_MAGIC = b"MLPO"
#: Chunk size meaning "the whole payload in one readinto" (load_into).
_WHOLE_BLOB = 1 << 62
#: Process-wide counter making every in-flight temp file unique, so
#: concurrent writes to the same key cannot rename each other's temp away.
_TMP_COUNTER = itertools.count()


def payload_digest(buffer) -> int:
    """64-bit BLAKE2b digest of a payload buffer (the store checksum).

    Strong enough for content addressing (collisions are negligible at any
    realistic blob count, unlike CRC-32's birthday bound) while staying fast
    enough to compute inline on every tracked write.
    """
    return finish_digest(streaming_digest(buffer))


def streaming_digest(buffer=None):
    """A hasher producing :func:`payload_digest`'s convention incrementally.

    Feed chunks with ``update()`` and finish with :func:`finish_digest`.
    This pair is the single definition of the 64-bit digest convention —
    every incremental digest (chunked restore reads, frame decode) must go
    through it so it can never drift from the one-shot ``payload_digest``.
    """
    return hashlib.blake2b(buffer, digest_size=8) if buffer is not None else hashlib.blake2b(
        digest_size=8
    )


def finish_digest(hasher) -> int:
    """Collapse a :func:`streaming_digest` hasher into the 64-bit int form."""
    return int.from_bytes(hasher.digest(), "big")


def element_count(shape) -> int:
    """Element count implied by a blob-header shape (``()`` = one scalar).

    The single definition of the zero-dim convention — every consumer of
    :meth:`FileStore.meta_of` geometry must use it.
    """
    return int(np.prod(shape, dtype=np.int64)) if shape else 1


def read_blob_file(path: "str | os.PathLike[str]") -> np.ndarray:
    """Deserialize one blob *file* outside any store.

    The registry service receives blob uploads as raw files in the
    :class:`FileStore` on-disk format and must validate them *before* a key
    ever becomes visible; this reads such a file (header-validated, payload
    length checked, one allocation) without constructing a store around it.
    Raises :class:`StoreError` exactly like the in-store read paths.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            total = os.fstat(handle.fileno()).st_size
            dtype, shape, ndim, _, expected = FileStore._read_validated_meta(
                handle, path.name, total
            )
            array = np.empty(element_count(shape), dtype=dtype)
            FileStore._readinto_checked(handle, path.name, array, expected)
    except OSError as exc:
        raise StoreError(f"blob file {str(path)!r} is unreadable: {exc}") from exc
    return array.reshape(shape) if ndim else array
#: Header: magic, version, dtype code length, ndim, then shape dims (uint64 each).
_HEADER_FMT = "<4sBBB"
_SUPPORTED_DTYPES = {"float16", "float32", "float64", "int32", "int64", "uint8"}


class StoreError(RuntimeError):
    """Raised for malformed blobs, missing keys or I/O failures in a store."""


class TruncatedBlobError(StoreError):
    """A blob's payload ended early (torn write, racing truncation, bad media).

    Separated from the parent because truncation is the one *retryable*
    store-level corruption: a concurrent writer may have replaced the blob
    mid-read, and the retry policy in :mod:`repro.aio.engine` classifies it
    as transient.  Malformed headers, missing keys and geometry mismatches
    stay plain :class:`StoreError` — retrying those cannot help.
    """


@dataclass(frozen=True)
class StoreStats:
    """Cumulative I/O counters for one :class:`FileStore`."""

    bytes_read: int
    bytes_written: int
    read_ops: int
    write_ops: int
    read_seconds: float
    write_seconds: float


def _pack_meta(array: np.ndarray) -> bytes:
    """The blob prefix (header + dtype name + shape dims) for ``array``."""
    dtype_name = array.dtype.name
    if dtype_name not in _SUPPORTED_DTYPES:
        raise StoreError(f"unsupported dtype {dtype_name!r}")
    dtype_bytes = dtype_name.encode("ascii")
    header = struct.pack(_HEADER_FMT, _MAGIC, 1, len(dtype_bytes), array.ndim)
    shape = struct.pack(f"<{array.ndim}Q", *array.shape) if array.ndim else b""
    return header + dtype_bytes + shape


def blob_nbytes(array: np.ndarray) -> int:
    """Total on-store size (header included) of ``array`` once serialized."""
    return len(_pack_meta(array)) + int(array.nbytes)


class FileStore(BlobStore):
    """A directory-backed key→array store representing one storage tier.

    Parameters
    ----------
    root:
        Directory holding the tier's files.  Created if missing.
    name:
        Tier name used in diagnostics (defaults to the directory name).
    backend:
        Raw-I/O discipline for blob payloads: an
        :class:`~repro.aio.backends.IOBackend` instance, a backend name
        (``"auto"``/``"thread"``/``"odirect"``, resolved with
        per-tier fallback against ``root``'s filesystem — see
        :func:`repro.aio.backends.resolve`), or ``None`` for the
        ``REPRO_IO_BACKEND`` environment override falling back to
        ``"thread"``.  The on-disk format is bitwise identical across
        backends; only the syscall path differs.  Header parsing and
        maintenance reads stay buffered regardless.
    throttle:
        Optional :class:`~repro.aio.throttle.BandwidthThrottle` applied to
        both reads and writes (simulating the tier's sustained bandwidth).
    capacity:
        Optional capacity limit in bytes; writes beyond it raise
        :class:`StoreError`, mirroring a full NVMe device.
    fsync:
        Whether to ``fsync`` after each write.  Functional tests leave this
        off for speed; durability-sensitive callers may enable it.
    track_checksums:
        Record a 64-bit BLAKE2b digest of every written payload in an
        in-memory registry (:meth:`checksum_of`).  The checkpoint subsystem
        uses it to reference tier-resident blobs by content without
        re-reading them; the per-write CPU cost is why it is off by default.
        May also be a ``key -> bool`` predicate to track selectively (e.g.
        skip transient blobs checkpoints never reference).
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        *,
        name: Optional[str] = None,
        throttle: "Optional[BandwidthThrottle]" = None,
        capacity: Optional[float] = None,
        fsync: bool = False,
        track_checksums: bool = False,
        backend: "str | IOBackend | None" = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.name = name if name is not None else self.root.name
        aio_backends = _io_backends()
        if backend is None:
            backend = os.environ.get(aio_backends.BACKEND_ENV_VAR) or "thread"
        if isinstance(backend, str):
            backend = aio_backends.resolve(backend, self.root)
        self.io_backend = backend
        self._short_read_error = aio_backends.ShortReadError
        self.throttle = throttle
        self.capacity = capacity
        self.fsync = fsync
        self.track_checksums = track_checksums
        #: key -> payload digest (header excluded), when known.
        self._checksums: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._bytes_read = 0
        self._bytes_written = 0
        self._read_ops = 0
        self._write_ops = 0
        self._read_seconds = 0.0
        self._write_seconds = 0.0
        self._sizes: Dict[str, int] = {}
        # Re-discover any pre-existing blobs (e.g. the store survived a restart).
        # Peer ranks sharing the directory may retire a blob between the
        # listing and the stat; a vanished entry is simply not there.
        for path in self.root.glob("*.bin"):
            try:
                self._sizes[path.stem] = path.stat().st_size
            except FileNotFoundError:
                continue
        self._sweep_stale_tmp()

    # -- helpers ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise StoreError(f"invalid store key {key!r}")
        return self.root / f"{key}.bin"

    @staticmethod
    def _tmp_path(path: Path) -> Path:
        """A unique temp-file sibling of ``path`` (one per in-flight write)."""
        return path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files orphaned by dead writers (crash hygiene).

        Temp names embed the writing pid (``<key>.bin.<pid>.<n>.tmp``), so a
        temp whose process is gone can never be renamed into place — it is
        garbage.  Temps of live processes (another worker sharing this
        directory, or this process itself) are left alone.
        """
        for tmp in self.root.glob("*.tmp"):
            parts = tmp.name.split(".")
            if len(parts) < 4:
                continue  # not one of ours
            try:
                pid = int(parts[-3])
            except ValueError:
                continue
            if pid == os.getpid():
                continue
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - lost a race with another sweep
                    pass
            except PermissionError:  # pragma: no cover - pid alive, other user
                continue

    @staticmethod
    def _encode(array: np.ndarray) -> bytes:
        """Serialize ``array`` into one contiguous blob (legacy/test helper)."""
        return _pack_meta(array) + np.ascontiguousarray(array).tobytes()

    @staticmethod
    def _decode(blob: bytes, key: str) -> np.ndarray:
        """Deserialize a full blob (legacy/test helper; the hot path streams)."""
        header_size = struct.calcsize(_HEADER_FMT)
        if len(blob) < header_size:
            raise StoreError(f"blob for {key!r} is truncated")
        magic, version, dtype_len, ndim = struct.unpack_from(_HEADER_FMT, blob)
        if magic != _MAGIC:
            raise StoreError(f"blob for {key!r} has invalid magic {magic!r}")
        if version != 1:
            raise StoreError(f"blob for {key!r} has unsupported version {version}")
        offset = header_size
        dtype_name = blob[offset : offset + dtype_len].decode("ascii")
        if dtype_name not in _SUPPORTED_DTYPES:
            raise StoreError(f"blob for {key!r} has unsupported dtype {dtype_name!r}")
        offset += dtype_len
        shape = struct.unpack_from(f"<{ndim}Q", blob, offset) if ndim else ()
        offset += 8 * ndim
        dtype = np.dtype(dtype_name)
        expected = element_count(shape) * dtype.itemsize
        payload = blob[offset:]
        if len(payload) != expected:
            raise StoreError(
                f"blob for {key!r} has {len(payload)} payload bytes, expected {expected}"
            )
        array = np.frombuffer(payload, dtype=dtype)
        return array.reshape(shape).copy() if ndim else array.copy()

    @staticmethod
    def _read_meta(handle: BinaryIO, key: str) -> Tuple[np.dtype, Tuple[int, ...], int, int]:
        """Parse the blob prefix from ``handle``.

        Returns ``(dtype, shape, ndim, meta_len)``; ``shape`` is ``()`` for
        0-d blobs.  Raises :class:`StoreError` with the same messages as
        :meth:`_decode` for malformed prefixes.
        """
        header_size = struct.calcsize(_HEADER_FMT)
        head = handle.read(header_size)
        if len(head) < header_size:
            raise TruncatedBlobError(f"blob for {key!r} is truncated")
        magic, version, dtype_len, ndim = struct.unpack(_HEADER_FMT, head)
        if magic != _MAGIC:
            raise StoreError(f"blob for {key!r} has invalid magic {magic!r}")
        if version != 1:
            raise StoreError(f"blob for {key!r} has unsupported version {version}")
        extra_len = dtype_len + 8 * ndim
        extra = handle.read(extra_len)
        if len(extra) < extra_len:
            raise TruncatedBlobError(f"blob for {key!r} is truncated")
        dtype_name = extra[:dtype_len].decode("ascii", errors="replace")
        if dtype_name not in _SUPPORTED_DTYPES:
            raise StoreError(f"blob for {key!r} has unsupported dtype {dtype_name!r}")
        shape = struct.unpack(f"<{ndim}Q", extra[dtype_len:]) if ndim else ()
        return np.dtype(dtype_name), shape, ndim, header_size + extra_len

    def _open_for_read(self, key: str) -> BinaryIO:
        path = self._path(key)
        if not path.exists():
            raise StoreError(f"store {self.name!r} has no key {key!r}")
        return open(path, "rb")

    @classmethod
    def _read_validated_meta(
        cls, handle: BinaryIO, key: str, total: int
    ) -> Tuple[np.dtype, Tuple[int, ...], int, int, int]:
        """Parse and validate the prefix of an open blob of ``total`` bytes.

        Returns ``(dtype, shape, ndim, count, expected_payload_bytes)``,
        raising :class:`StoreError` when the payload size implied by the
        header disagrees with the file size.
        """
        dtype, shape, ndim, meta_len = cls._read_meta(handle, key)
        count = element_count(shape)
        expected = count * dtype.itemsize
        if total - meta_len != expected:
            # A *short* payload is a torn/racing write — retryable; a *long*
            # one is foreign data and retrying cannot help.
            exc_type = TruncatedBlobError if total - meta_len < expected else StoreError
            raise exc_type(
                f"blob for {key!r} has {total - meta_len} payload bytes, expected {expected}"
            )
        return dtype, shape, ndim, count, expected

    @staticmethod
    def _readinto_checked(handle: BinaryIO, key: str, flat: np.ndarray, expected: int) -> None:
        """Fill ``flat`` (a flat contiguous array) from ``handle``; verify length."""
        got = handle.readinto(memoryview(flat))
        if got != expected:
            raise TruncatedBlobError(f"blob for {key!r} is truncated")

    @property
    def backend_name(self) -> str:
        """Name of the raw-I/O backend actually serving this store."""
        return self.io_backend.name

    @property
    def io_alignment(self) -> int:
        """The backend's buffer/offset/length granularity in bytes (1 = none)."""
        return self.io_backend.alignment

    def _read_payload(
        self, handle: BinaryIO, key: str, offset: int, flat: np.ndarray, hasher, chunk_bytes: int
    ) -> None:
        """Fill ``flat`` with the validated payload at ``offset`` via the backend.

        ``handle`` is positioned just past the header; the backend either
        reads from it (buffered) or reopens the path raw.  A backend
        short-read becomes the store's retryable :class:`TruncatedBlobError`.
        """
        view = memoryview(flat.reshape(-1)).cast("B")
        try:
            self.io_backend.read_payload(
                handle, self._path(key), offset, view, hasher=hasher, chunk_bytes=chunk_bytes
            )
        except self._short_read_error as exc:
            raise TruncatedBlobError(f"blob for {key!r} is truncated") from exc

    def _account_read(self, total: int, elapsed: float) -> None:
        if self.throttle is not None:
            elapsed += self.throttle.consume(total, direction="read")
        with self._lock:
            self._bytes_read += total
            self._read_ops += 1
            self._read_seconds += elapsed

    # -- public API ------------------------------------------------------

    def write(self, key: str, array: np.ndarray) -> int:
        """Serialize ``array`` under ``key`` and return the number of bytes written."""
        return self.save_from(key, array)

    def save_from(self, key: str, array: np.ndarray) -> int:
        """Zero-copy write: stream header + ``array``'s buffer to the tier.

        Identical on-disk format and byte accounting to the legacy
        :meth:`write` — the payload is simply written from a ``memoryview``
        of the caller's array instead of an intermediate ``tobytes()`` blob.

        Buffer ownership: ``array`` is only borrowed for the duration of the
        call (no reference is retained), but the caller must not mutate it
        concurrently — the bytes on disk would be torn.  Thread-safe:
        concurrent writes to *different* keys are fine; concurrent writes to
        the same key last-writer-wins atomically (``os.replace``).
        """
        contiguous = np.ascontiguousarray(array)
        meta = _pack_meta(contiguous)
        total = len(meta) + int(contiguous.nbytes)
        track = (
            self.track_checksums(key) if callable(self.track_checksums) else self.track_checksums
        )
        checksum = payload_digest(memoryview(contiguous.reshape(-1))) if track else None
        path = self._path(key)
        with self._lock:
            projected = self.used_bytes - self._sizes.get(key, 0) + total
            if self.capacity is not None and projected > self.capacity:
                raise StoreError(
                    f"store {self.name!r} capacity exceeded: {projected} > {self.capacity}"
                )
        elapsed = 0.0
        if self.throttle is not None:
            elapsed += self.throttle.consume(total, direction="write")
        tmp = self._tmp_path(path)
        import time

        start = time.perf_counter()
        try:
            self.io_backend.write_blob(
                tmp, meta, memoryview(contiguous.reshape(-1)), fsync=self.fsync
            )
            os.replace(tmp, path)
        except BaseException:
            # Torn-write safety: a failed write must never leave its partial
            # temp behind (the rename never ran, so the *key* was never at
            # risk; this is disk hygiene so ENOSPC retries are not fighting
            # their own garbage).
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        elapsed += time.perf_counter() - start
        with self._lock:
            self._sizes[key] = total
            if checksum is not None:
                self._checksums[key] = checksum
            else:
                self._checksums.pop(key, None)
            self._bytes_written += total
            self._write_ops += 1
            self._write_seconds += elapsed
        return total

    def read(self, key: str) -> np.ndarray:
        """Read and deserialize the array stored under ``key``.

        Performs exactly one allocation (the returned array); the payload is
        read directly into it with ``readinto``.
        """
        import time

        start = time.perf_counter()
        with self._open_for_read(key) as handle:
            total = os.fstat(handle.fileno()).st_size
            dtype, shape, ndim, count, expected = self._read_validated_meta(handle, key, total)
            array = np.empty(count, dtype=dtype)
            self._read_payload(handle, key, total - expected, array, None, _WHOLE_BLOB)
        elapsed = time.perf_counter() - start
        self._account_read(total, elapsed)
        return array.reshape(shape) if ndim else array

    def load_into(self, key: str, out: np.ndarray) -> np.ndarray:
        """Zero-copy read: deserialize ``key`` directly into ``out``.

        ``out`` must be a writable C-contiguous array whose dtype matches the
        stored blob and whose total element count matches the stored shape
        (the stored shape itself is *not* imposed on ``out`` — subgroup blobs
        are flat, and pooled scratch buffers are flat views).  Byte
        accounting is identical to :meth:`read`.

        Buffer ownership: ``out`` is borrowed for the duration of the call
        and written through ``readinto``; the caller must not read, mutate or
        recycle it until the call returns (for pooled buffers: do not
        ``release`` mid-read).  On error ``out``'s contents are undefined.
        Thread-safe: any number of concurrent reads may target the same key,
        each with its own destination.
        """
        # One maximal chunk == a single readinto of the whole payload: the
        # chunked reader is the one implementation of validation, truncation
        # handling and byte accounting.
        return self.load_into_chunks(key, out, chunk_bytes=_WHOLE_BLOB)

    def load_into_chunks(
        self,
        key: str,
        out: np.ndarray,
        *,
        chunk_bytes: int = 1 << 20,
        hasher=None,
    ) -> np.ndarray:
        """Chunked zero-copy read with an optional streaming digest.

        Behaves exactly like :meth:`load_into` (same validation, errors,
        ownership rules and byte accounting) but fills ``out`` in
        ``chunk_bytes`` slices and, when ``hasher`` is given (any object with
        an ``update(bytes-like)`` method, e.g. ``hashlib.blake2b``), feeds
        each slice to it as soon as it lands.  Restore-time integrity
        verification uses this to digest a blob *while* reading it — one
        pass, no whole-blob materialization beyond the destination itself.
        """
        if chunk_bytes < 1:
            raise StoreError("chunk_bytes must be >= 1")
        if not out.flags.c_contiguous:
            raise StoreError(f"load_into destination for {key!r} must be C-contiguous")
        if not out.flags.writeable:
            raise StoreError(f"load_into destination for {key!r} must be writable")
        import time

        start = time.perf_counter()
        with self._open_for_read(key) as handle:
            total = os.fstat(handle.fileno()).st_size
            dtype, _, _, count, expected = self._read_validated_meta(handle, key, total)
            if out.dtype != dtype:
                raise StoreError(
                    f"load_into dtype mismatch for {key!r}: blob is {dtype.name}, "
                    f"destination is {out.dtype.name}"
                )
            if int(out.size) != count:
                raise StoreError(
                    f"load_into size mismatch for {key!r}: blob has {count} elements, "
                    f"destination has {out.size}"
                )
            self._read_payload(handle, key, total - expected, out, hasher, chunk_bytes)
        elapsed = time.perf_counter() - start
        self._account_read(total, elapsed)
        return out

    def meta_of(self, key: str) -> Tuple[np.dtype, Tuple[int, ...]]:
        """The dtype and shape of the blob under ``key`` (header-only read)."""
        with self._open_for_read(key) as handle:
            dtype, shape, ndim, _ = self._read_meta(handle, key)
        return dtype, shape if ndim else ()

    def path_of(self, key: str) -> Path:
        """Filesystem path of ``key``'s blob (missing keys raise :class:`StoreError`).

        The returned path names an *immutable* file: the store never writes a
        blob in place (every write lands in a temp file and ``os.replace``\\ s
        it), so the inode behind this path keeps its content even after the
        key is overwritten — the property the checkpoint subsystem's
        hard-link references rely on.
        """
        path = self._path(key)
        if not path.exists():
            raise StoreError(f"store {self.name!r} has no key {key!r}")
        return path

    def checksum_of(self, key: str) -> Optional[int]:
        """Digest of ``key``'s payload, if recorded at write time (else ``None``)."""
        with self._lock:
            return self._checksums.get(key)

    def compute_checksum(self, key: str) -> int:
        """Digest of ``key``'s payload, reading the blob if not yet recorded.

        The fallback for blobs written before checksum tracking was enabled
        (e.g. by a previous process).  The read is a maintenance operation
        and is not charged to the store's I/O counters or throttle.
        """
        cached = self.checksum_of(key)
        if cached is not None:
            return cached
        with self._open_for_read(key) as handle:
            total = os.fstat(handle.fileno()).st_size
            self._read_validated_meta(handle, key, total)
            digest = streaming_digest()
            while True:
                chunk = handle.read(1 << 20)
                if not chunk:
                    break
                digest.update(chunk)
        checksum = finish_digest(digest)
        with self._lock:
            self._checksums[key] = checksum
        return checksum

    def digest_of(self, key: str) -> int:
        """The *content* digest promised for ``key``, derived lazily on demand.

        Content-addressed keys (``cas<digest>-<nbytes>[-<codec>]``) embed the
        uncompressed-payload digest they were derived from; it is parsed
        straight back out of the key — no I/O — no matter whether the
        write-time checksum registry ever saw the blob land (an
        :meth:`adopt` with ``track_checksums`` off records nothing).  The
        registry must *not* answer for encoded CAS keys: it holds the digest
        of the stored frame bytes, a different value (and historically a
        different width) than the content digest the key names — the
        disagreement this method exists to close.  Plain (non-CAS) keys fall
        back to the registry and then to one maintenance read
        (:meth:`compute_checksum`); for them the stored payload *is* the
        content.
        """
        from repro.ckpt.manifest import parse_cas_key  # the one key-format definition

        parsed = parse_cas_key(key)
        if parsed is not None:
            return parsed[0]
        return self.compute_checksum(key)

    def adopt(
        self, key: str, source_path: "str | os.PathLike[str]", *, checksum: Optional[int] = None
    ) -> int:
        """Bring an existing blob file into the store under ``key`` by hard link.

        The source must be a complete blob in this store's on-disk format
        (typically :meth:`path_of` of another store on the same filesystem).
        A hard link moves no data — the store merely gains a name for the
        source's immutable inode — so nothing is charged to the throttle;
        when the link fails (cross-device source), the file is copied instead
        and the copy *is* charged as an ordinary write.  Returns the blob's
        total on-store size.  ``checksum`` records the payload digest in the
        registry when the caller already knows it.
        """
        source = Path(source_path)
        if not source.exists():
            raise StoreError(f"adopt source {str(source)!r} does not exist")
        if checksum is not None:
            # Callers may hand over digests from foreign sources (full-width
            # BLAKE2b ints, parsed hex, ...); the registry speaks 64-bit
            # payload digests, and a wider value would silently disagree with
            # the content-addressed key derived from the same checksum.
            checksum &= 0xFFFFFFFFFFFFFFFF
        path = self._path(key)
        total = int(source.stat().st_size)
        with self._lock:
            projected = self.used_bytes - self._sizes.get(key, 0) + total
            if self.capacity is not None and projected > self.capacity:
                raise StoreError(
                    f"store {self.name!r} capacity exceeded: {projected} > {self.capacity}"
                )
        tmp = self._tmp_path(path)
        copied = False
        try:
            try:
                os.link(source, tmp)
            except OSError:
                shutil.copyfile(source, tmp)
                copied = True
            if self.fsync and copied:
                with open(tmp, "rb") as handle:
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.fsync:
            # Make the new directory entry durable (the linked inode's data
            # is already on disk; only the name is new).
            try:
                fd = os.open(self.root, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError:  # pragma: no cover - fs without dir fsync
                pass
        elapsed = 0.0
        if copied and self.throttle is not None:
            elapsed += self.throttle.consume(total, direction="write")
        with self._lock:
            self._sizes[key] = total
            if checksum is not None:
                self._checksums[key] = checksum
            else:
                self._checksums.pop(key, None)
            if copied:
                self._bytes_written += total
                self._write_ops += 1
                self._write_seconds += elapsed
        return total

    def delete(self, key: str) -> None:
        """Remove ``key`` from the store (missing keys raise :class:`StoreError`)."""
        path = self._path(key)
        if not path.exists():
            raise StoreError(f"store {self.name!r} has no key {key!r}")
        path.unlink()
        with self._lock:
            self._sizes.pop(key, None)
            self._checksums.pop(key, None)

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self, prefix: str = "") -> Iterator[str]:
        """Iterate over the stored keys starting with ``prefix`` (sorted for determinism)."""
        with os.scandir(self.root) as entries:
            names = [e.name for e in entries if e.name.startswith(prefix)]
        return iter(sorted(name[:-4] for name in names if name.endswith(".bin")))

    def size_of(self, key: str) -> int:
        """On-store size of ``key`` in bytes."""
        path = self._path(key)
        if not path.exists():
            raise StoreError(f"store {self.name!r} has no key {key!r}")
        return path.stat().st_size

    @property
    def used_bytes(self) -> int:
        return int(sum(self._sizes.values()))

    def clear(self) -> None:
        """Delete all keys."""
        for path in self.root.glob("*.bin"):
            path.unlink(missing_ok=True)
        with self._lock:
            self._sizes.clear()
            self._checksums.clear()

    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                bytes_read=self._bytes_read,
                bytes_written=self._bytes_written,
                read_ops=self._read_ops,
                write_ops=self._write_ops,
                read_seconds=self._read_seconds,
                write_seconds=self._write_seconds,
            )

    def reset_stats(self) -> None:
        with self._lock:
            self._bytes_read = 0
            self._bytes_written = 0
            self._read_ops = 0
            self._write_ops = 0
            self._read_seconds = 0.0
            self._write_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileStore(name={self.name!r}, root={str(self.root)!r}, keys={len(self._sizes)})"
