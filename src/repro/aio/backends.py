"""Pluggable raw I/O backends for the tier stores (the DeepNVMe analogue).

Every tier blob ultimately moves through one :class:`IOBackend`, selected per
tier directory at store-construction time:

* ``"thread"`` — today's buffered ``readinto``/``write`` path through the
  page cache.  Always available; the default and the terminal fallback.
* ``"odirect"`` — ``os.open(..., O_DIRECT)`` with alignment-padded bounce
  buffers, bypassing the page cache so the engine's host-cache model stays
  honest and large streaming transfers run at device bandwidth.  The blob
  *header* is still parsed through one small buffered read (at most one page
  of cache per blob); the payload moves raw.

Selection is by name through :func:`resolve`, normally driven by
``IOBackendConfig.backend`` (``"auto"`` probes ``odirect`` → ``thread`` and
takes the first that works **for that directory's filesystem**).  A probe
failure is not an error: unsupported filesystems (tmpfs has no O_DIRECT) and
platforms (macOS) degrade down the same chain at open time, and the backend
actually chosen is recorded per tier in
:class:`~repro.aio.engine.TierIOStats`.  The ``REPRO_IO_BACKEND`` environment
variable overrides every by-name selection — the CI forcing knob that runs
the whole tier-1 suite under ``odirect``.

Alignment contract: a backend's ``alignment`` is the granularity (bytes) its
raw I/O requires for buffer addresses, file offsets and transfer lengths.
The thread backend is byte-granular (``1``); O_DIRECT-class backends default
to 4096.  On-disk format is **bitwise identical** across backends: direct
writes pad the final block inside the temp file and ``ftruncate`` back to the
exact blob size before the atomic rename, and direct reads bounce-copy
through aligned scratch (blob payloads start right after the unaligned
header, so they are re-sliced, never re-laid-out).  Destination buffers need
*no* particular alignment — but pool-aligned buffers
(:class:`~repro.tiers.array_pool.ArrayPool` with ``alignment=``) plus
4 KiB-aligned stripe extents (``plan_stripes(align_bytes=...)``) keep scatter
views block-aligned for the paths that care.
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.util.logging import get_logger

_LOG = get_logger("aio.backends")

#: Default O_DIRECT buffer/offset/length granularity (the common logical
#: block size; a device wanting 512 works a fortiori with 4096).
DEFAULT_ALIGNMENT = 4096
#: Default bounce-buffer ceiling for direct I/O (per in-flight operation).
DEFAULT_BOUNCE_BYTES = 4 << 20

#: Environment override applied by :func:`resolve` on top of any by-name
#: selection (config or call site).  Lets CI force e.g. ``odirect`` across an
#: entire test run without touching configuration.
BACKEND_ENV_VAR = "REPRO_IO_BACKEND"

#: Probe files are named like store temp files so the stale-temp sweeper
#: recognises and removes any leftover from a killed probe.
_PROBE_COUNTER = itertools.count()


class BackendUnavailable(RuntimeError):
    """A backend cannot serve a directory (platform, filesystem, library)."""


class ShortReadError(RuntimeError):
    """A raw payload read ended before the expected byte count.

    The store layer converts this into its retryable
    :class:`~repro.tiers.file_store.TruncatedBlobError` — a racing writer may
    have replaced the blob mid-read, and rereading observes the replacement.
    """


def alloc_aligned(nbytes: int, alignment: int) -> np.ndarray:
    """A fresh writable ``uint8`` array of ``nbytes`` at an aligned address.

    Over-allocates by ``alignment`` and returns the view starting at the
    first aligned byte, so the result satisfies O_DIRECT's buffer-address
    requirement.  The view keeps the backing storage alive.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if alignment < 1 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a positive power of two, got {alignment}")
    base = np.empty(nbytes + alignment, dtype=np.uint8)
    shift = (-base.ctypes.data) % alignment
    return base[shift : shift + nbytes]


def _round_up(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment


class IOBackend:
    """One raw-I/O discipline for whole-blob writes and payload reads.

    Backends are stateless with respect to any particular store (one
    instance may serve many stores) and thread-safe: every operation opens,
    uses and closes its own descriptors, and scratch buffers are per-call.
    """

    name: str = "abstract"
    #: Required granularity of raw buffer addresses/offsets/lengths (bytes).
    alignment: int = 1

    def __init__(self, *, alignment: Optional[int] = None):
        # Accepted (and ignored) uniformly so resolve() can construct any
        # registered backend with one calling convention.
        del alignment

    def probe(self, directory: "str | os.PathLike[str]") -> None:
        """Raise :class:`BackendUnavailable` unless ``directory`` is servable."""

    def write_blob(
        self, tmp_path: "str | os.PathLike[str]", meta: bytes, payload: memoryview, *, fsync: bool
    ) -> None:
        """Write ``meta`` + ``payload`` as one complete blob file at ``tmp_path``.

        The caller owns the surrounding temp-file protocol (unique temp name,
        ``os.replace`` into place, cleanup on failure); the backend only
        produces the exact bytes.  ``payload`` is any C-contiguous memoryview
        (element format irrelevant — its bytes are written as-is).
        """
        raise NotImplementedError

    def read_payload(
        self,
        handle,
        path: "str | os.PathLike[str]",
        offset: int,
        view: memoryview,
        *,
        hasher=None,
        chunk_bytes: int,
    ) -> None:
        """Fill ``view`` with ``len(view)`` payload bytes starting at ``offset``.

        ``handle`` is the store's open buffered file object, already
        positioned at ``offset`` after header validation; buffered backends
        read from it directly, raw backends open ``path`` themselves (and
        verify via the handle's inode that the blob was not replaced
        underneath them).  ``hasher`` (optional, ``update(bytes-like)``)
        receives the payload bytes in order; ``chunk_bytes`` bounds the
        per-step transfer size.  Raises :class:`ShortReadError` when the file
        ends early.
        """
        raise NotImplementedError


class ThreadBackend(IOBackend):
    """Buffered pread/pwrite through the page cache (the historical path)."""

    name = "thread"
    alignment = 1

    def write_blob(self, tmp_path, meta, payload, *, fsync):
        with open(tmp_path, "wb") as handle:
            handle.write(meta)
            handle.write(payload)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())

    def read_payload(self, handle, path, offset, view, *, hasher=None, chunk_bytes):
        expected = len(view)
        pos = 0
        while pos < expected:
            piece = view[pos : pos + min(chunk_bytes, expected - pos)]
            got = handle.readinto(piece)
            if got != len(piece):
                raise ShortReadError(f"payload ended after {pos + got} of {expected} bytes")
            if hasher is not None:
                hasher.update(piece)
            pos += len(piece)


class ODirectBackend(IOBackend):
    """O_DIRECT with alignment-padded bounce buffers (page-cache bypass)."""

    name = "odirect"

    def __init__(
        self,
        *,
        alignment: Optional[int] = None,
        bounce_bytes: int = DEFAULT_BOUNCE_BYTES,
    ):
        super().__init__()
        align = DEFAULT_ALIGNMENT if alignment is None else int(alignment)
        if align < 1 or align & (align - 1):
            raise ValueError(f"alignment must be a positive power of two, got {align}")
        self.alignment = align
        self.bounce_bytes = max(align, (int(bounce_bytes) // align) * align)

    def probe(self, directory):
        if not hasattr(os, "O_DIRECT"):
            raise BackendUnavailable("platform has no O_DIRECT")
        directory = Path(directory)
        probe_path = directory / f".ioprobe.{os.getpid()}.{next(_PROBE_COUNTER)}.tmp"
        block = alloc_aligned(self.alignment, self.alignment)
        block[:] = 0
        try:
            fd = os.open(probe_path, os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_DIRECT, 0o600)
        except OSError as exc:
            raise BackendUnavailable(f"O_DIRECT open failed in {str(directory)!r}: {exc}") from exc
        try:
            try:
                if os.pwrite(fd, block, 0) != self.alignment:
                    raise BackendUnavailable(f"short O_DIRECT probe write in {str(directory)!r}")
                if os.preadv(fd, [block], 0) != self.alignment:
                    raise BackendUnavailable(f"short O_DIRECT probe read in {str(directory)!r}")
            except OSError as exc:
                raise BackendUnavailable(
                    f"O_DIRECT I/O failed in {str(directory)!r}: {exc}"
                ) from exc
        finally:
            os.close(fd)
            try:
                os.unlink(probe_path)
            except OSError:  # pragma: no cover - probe cleanup race
                pass

    def write_blob(self, tmp_path, meta, payload, *, fsync):
        payload = memoryview(payload)
        if payload.format != "B":
            payload = payload.cast("B")
        meta_len = len(meta)
        total = meta_len + payload.nbytes
        align = self.alignment
        padded = _round_up(max(total, 1), align)
        bounce_len = min(self.bounce_bytes, padded)
        bounce = alloc_aligned(bounce_len, align)
        meta_arr = np.frombuffer(meta, dtype=np.uint8)
        payload_arr = np.frombuffer(payload, dtype=np.uint8)
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_DIRECT, 0o644)
        try:
            file_off = 0
            src_off = 0
            while file_off < padded:
                chunk = min(bounce_len, padded - file_off)
                fill = 0
                while fill < chunk and src_off < total:
                    if src_off < meta_len:
                        take = min(chunk - fill, meta_len - src_off)
                        bounce[fill : fill + take] = meta_arr[src_off : src_off + take]
                    else:
                        poff = src_off - meta_len
                        take = min(chunk - fill, payload.nbytes - poff)
                        bounce[fill : fill + take] = payload_arr[poff : poff + take]
                    fill += take
                    src_off += take
                if fill < chunk:
                    bounce[fill:chunk] = 0  # block padding, truncated away below
                wrote = os.pwrite(fd, bounce[:chunk], file_off)
                if wrote != chunk:
                    raise OSError(os.strerror(5), f"short O_DIRECT write to {tmp_path}")
                file_off += chunk
            if padded != total:
                os.ftruncate(fd, total)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    def read_payload(self, handle, path, offset, view, *, hasher=None, chunk_bytes):
        expected = len(view)
        if expected == 0:
            return
        align = self.alignment
        end = offset + expected
        aligned_start = (offset // align) * align
        span = _round_up(end - aligned_start, align)
        bounce_len = min(span, max(align, min(self.bounce_bytes, _round_up(chunk_bytes, align))))
        bounce = alloc_aligned(bounce_len, align)
        fd = os.open(path, os.O_RDONLY | os.O_DIRECT)
        try:
            if handle is not None and os.fstat(fd).st_ino != os.fstat(handle.fileno()).st_ino:
                # The key was atomically replaced between header validation
                # and this open; rereading observes a consistent blob.
                raise ShortReadError("blob was replaced mid-read")
            pos = aligned_start
            while pos < end:
                want = min(bounce_len, _round_up(end - pos, align))
                got = os.preadv(fd, [bounce[:want]], pos)
                if got <= 0:
                    raise ShortReadError(
                        f"payload ended at byte {max(0, pos - offset)} of {expected}"
                    )
                lo = max(offset, pos)
                hi = min(end, pos + got)
                if hi > lo:
                    chunk = bounce[lo - pos : hi - pos]
                    view[lo - offset : hi - offset] = chunk
                    if hasher is not None:
                        hasher.update(chunk)
                pos += got
                if pos < end and got % align:
                    # A non-block-multiple return is EOF; anything else would
                    # leave the next offset unaligned.
                    raise ShortReadError(f"payload ended at byte {hi - offset} of {expected}")
        finally:
            os.close(fd)


#: name -> backend class, in registration order.
_REGISTRY: Dict[str, Type[IOBackend]] = {}
#: Probe order for ``"auto"``; an explicit name falls back along its suffix.
AUTO_ORDER: Tuple[str, ...] = ("odirect", "thread")

#: (backend name, filesystem st_dev) -> probe outcome (None = OK, str = why not).
_PROBE_CACHE: Dict[Tuple[str, int], Optional[str]] = {}
_PROBE_CACHE_LOCK = threading.Lock()


def register_backend(cls: Type[IOBackend]) -> Type[IOBackend]:
    """Register an :class:`IOBackend` class under its ``name`` (decorator)."""
    _REGISTRY[cls.name] = cls
    return cls


for _cls in (ThreadBackend, ODirectBackend):
    register_backend(_cls)


def backend_names() -> Tuple[str, ...]:
    """Every registered backend name (``"auto"`` is a selector, not a backend)."""
    return tuple(sorted(_REGISTRY))


def backend_choices() -> Tuple[str, ...]:
    """Every accepted ``io_backend`` configuration value."""
    return ("auto", *backend_names())


def probe_cache_clear() -> None:
    """Forget cached per-filesystem probe outcomes (tests, remounts)."""
    with _PROBE_CACHE_LOCK:
        _PROBE_CACHE.clear()


def _probe_cached(backend: IOBackend, directory: Path) -> Optional[str]:
    """Probe ``backend`` against ``directory``, cached per filesystem.

    Returns ``None`` on success, else the failure reason.  Keyed by the
    directory's ``st_dev`` — availability is a property of the filesystem,
    and tier stores are created often enough (one per tier per engine, plus
    every test) that re-probing each time would add a write per store.
    """
    try:
        dev = os.stat(directory).st_dev
    except OSError:
        dev = -1  # unstatable directory: probe uncached, let it explain
    key = (backend.name, dev)
    if dev != -1:
        with _PROBE_CACHE_LOCK:
            if key in _PROBE_CACHE:
                return _PROBE_CACHE[key]
    try:
        backend.probe(directory)
        outcome = None
    except BackendUnavailable as exc:
        outcome = str(exc)
    if dev != -1:
        with _PROBE_CACHE_LOCK:
            _PROBE_CACHE[key] = outcome
    return outcome


def resolve(
    name: str,
    directory: "str | os.PathLike[str]",
    *,
    alignment: Optional[int] = None,
) -> IOBackend:
    """The first working backend for ``directory``, starting from ``name``.

    ``"auto"`` probes :data:`AUTO_ORDER`; an explicit name starts the same
    chain at itself (``"odirect"`` falls back to ``"thread"``, ``"thread"``
    never falls back), so unsupported filesystems degrade instead of
    erroring — the per-tier fallback the engine records in its stats.  The
    :data:`BACKEND_ENV_VAR` environment variable, when set, replaces ``name``
    outright.  Unknown names raise ``ValueError`` listing the choices.
    """
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        name = env
    if name == "auto":
        chain: Tuple[str, ...] = AUTO_ORDER
    elif name in _REGISTRY:
        chain = AUTO_ORDER[AUTO_ORDER.index(name) :] if name in AUTO_ORDER else (name, "thread")
    else:
        raise ValueError(f"unknown io backend {name!r}; known: {list(backend_choices())}")
    directory = Path(directory)
    failures = []
    for candidate in chain:
        backend = _REGISTRY[candidate](alignment=alignment)
        reason = _probe_cached(backend, directory)
        if reason is not None:
            failures.append(f"{candidate}: {reason}")
            continue
        if candidate != name and name != "auto":
            _LOG.warning(
                "io backend %r unavailable for %s (%s); using %r",
                name,
                directory,
                "; ".join(failures),
                candidate,
            )
        return backend
    raise BackendUnavailable(  # pragma: no cover - thread never fails its probe
        f"no io backend available for {str(directory)!r}: {'; '.join(failures)}"
    )
