"""Block codecs for checkpoint payload compression.

A :class:`Codec` transforms one *chunk* of raw payload bytes at a time, so
that encode and decode can stream arbitrarily large blobs through fixed-size
pooled scratch buffers (see :mod:`repro.codec.framing`).  Two codecs are
provided:

* ``"null"`` — the identity transform.  Frames are still written (chunk
  records, digests), so the ablation isolates the *framing* cost from the
  *compression* cost; the chunk payloads are bitwise the raw bytes.
* ``"shuffle-deflate"`` — byte-shuffle followed by a fast DEFLATE block
  compressor (``zlib`` level 1).  The shuffle transposes each chunk from
  element-major to byte-plane-major order, so the highly regular bytes of
  floating-point payloads (sign+exponent planes, the zeroed low-mantissa
  planes of FP16-quantized masters, exact-zero optimizer state of frozen
  parameters) form long runs the block compressor collapses.  This is the
  repo's LZ4-class codec: level-1 DEFLATE is the fastest block codec in the
  standard library, standing in for LZ4 (not installable here) with the same
  shape — cheap, block-oriented, byte-stream in/out.  The registry keys the
  codec by name in every frame and manifest, so a real LZ4 backend can be
  added later without disturbing committed checkpoints.

The special codec name ``"raw"`` (``RAW_CODEC``, the default
``checkpoint_codec``) means "no framing at all": the payload is stored as a
plain tier blob.  It is not a :class:`Codec` — callers branch on it before
encoding.

All transforms are deterministic: identical raw bytes always produce
identical encoded bytes, which is what lets content-addressed checkpoint
stores dedupe *encoded* blobs by their *uncompressed* payload digest.
"""

from __future__ import annotations

import importlib
import zlib
from typing import Callable, Dict, Tuple

import numpy as np


class CodecError(RuntimeError):
    """Raised for unknown codecs, malformed frames and failed integrity checks."""


#: Codec name meaning "no framing, store the payload as a plain blob".
RAW_CODEC = "raw"


class Codec:
    """One chunk-at-a-time byte transform (see module docstring).

    Chunks are handed in as 1-D ``uint8`` arrays whose length is a multiple
    of the payload ``itemsize`` (the framing layer guarantees this by sizing
    chunks accordingly).  Encoding gets a caller-owned ``uint8`` ``scratch``
    buffer at least as large as the chunk, reused across chunks so the
    encode loop allocates nothing beyond what the compressor itself returns;
    decoding scatters straight into the destination view.
    """

    name: str = "abstract"

    def encode_chunk(self, chunk: np.ndarray, itemsize: int, scratch: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode_chunk(self, payload: bytes, out: np.ndarray, itemsize: int) -> None:
        """Decode ``payload`` into ``out`` (a 1-D ``uint8`` destination view)."""
        raise NotImplementedError


def shuffle_chunk(chunk: np.ndarray, itemsize: int, scratch: np.ndarray) -> np.ndarray:
    """Transpose ``chunk`` to byte-plane order inside ``scratch``.

    Shared by every shuffling codec (DEFLATE, lz4, zstd): the transform is
    what turns floating-point payloads into the long byte runs block
    compressors collapse, independent of which compressor follows.
    """
    if itemsize <= 1:
        return chunk
    if chunk.size % itemsize:
        raise CodecError(f"chunk of {chunk.size} bytes is not a multiple of itemsize {itemsize}")
    view = scratch[: chunk.size].reshape(itemsize, chunk.size // itemsize)
    np.copyto(view, chunk.reshape(-1, itemsize).T)
    return scratch[: chunk.size]


def unshuffle_into(raw: bytes, out: np.ndarray, itemsize: int) -> None:
    """Invert :func:`shuffle_chunk`: scatter byte planes back into ``out``."""
    if len(raw) != out.size:
        raise CodecError(f"chunk decoded to {len(raw)} bytes, expected {out.size}")
    if itemsize <= 1:
        out[:] = np.frombuffer(raw, dtype=np.uint8)
        return
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(itemsize, out.size // itemsize)
    np.copyto(out.reshape(-1, itemsize), planes.T)


class NullCodec(Codec):
    """Identity transform: chunk payloads are bitwise the raw bytes."""

    name = "null"

    def encode_chunk(self, chunk: np.ndarray, itemsize: int, scratch: np.ndarray) -> bytes:
        return chunk.tobytes()

    def decode_chunk(self, payload: bytes, out: np.ndarray, itemsize: int) -> None:
        if len(payload) != out.size:
            raise CodecError(
                f"null codec chunk has {len(payload)} bytes, expected {out.size}"
            )
        out[:] = np.frombuffer(payload, dtype=np.uint8)


class ShuffleDeflateCodec(Codec):
    """Byte-shuffle + level-1 DEFLATE (the LZ4-class block codec)."""

    name = "shuffle-deflate"
    level = 1

    # Kept as a static method for back-compat with callers of the original
    # codec-private helper; new code uses the module-level functions.
    _shuffled = staticmethod(shuffle_chunk)

    def encode_chunk(self, chunk: np.ndarray, itemsize: int, scratch: np.ndarray) -> bytes:
        shuffled = shuffle_chunk(chunk, itemsize, scratch)
        return zlib.compress(shuffled, self.level)

    def decode_chunk(self, payload: bytes, out: np.ndarray, itemsize: int) -> None:
        try:
            raw = zlib.decompress(payload)
        except zlib.error as exc:
            raise CodecError(f"corrupt compressed chunk: {exc}") from exc
        unshuffle_into(raw, out, itemsize)


class Lz4Codec(Codec):
    """Byte-shuffle + real LZ4 block compression (requires the ``lz4`` package).

    Registered only when ``lz4`` imports (see
    :func:`_register_optional_codecs`); frames name their codec, so
    checkpoints written with it are readable exactly where it is installed
    and fail with a :class:`CodecError` that says so where it is not.
    ``store_size=True`` embeds the raw chunk length, letting decode size its
    output without trusting the frame.
    """

    name = "lz4"

    def __init__(self, block_module) -> None:
        self._block = block_module

    def encode_chunk(self, chunk: np.ndarray, itemsize: int, scratch: np.ndarray) -> bytes:
        shuffled = shuffle_chunk(chunk, itemsize, scratch)
        return self._block.compress(shuffled.tobytes(), store_size=True)

    def decode_chunk(self, payload: bytes, out: np.ndarray, itemsize: int) -> None:
        try:
            raw = self._block.decompress(bytes(payload))
        except Exception as exc:
            raise CodecError(f"corrupt lz4 chunk: {exc}") from exc
        unshuffle_into(raw, out, itemsize)


class ZstdCodec(Codec):
    """Byte-shuffle + real zstd compression (``zstandard`` or ``zstd`` package).

    Prefers the full ``zstandard`` binding; falls back to the simple
    ``zstd`` module's one-shot API.  Compressor objects are created per
    call — they are cheap relative to a multi-megabyte chunk and the
    checkpoint drain encodes from an I/O thread while restores may decode
    concurrently, so sharing a stateful compressor would need a lock.
    """

    name = "zstd"
    level = 3

    def __init__(self, module, *, simple_api: bool) -> None:
        self._module = module
        self._simple_api = simple_api

    def encode_chunk(self, chunk: np.ndarray, itemsize: int, scratch: np.ndarray) -> bytes:
        shuffled = shuffle_chunk(chunk, itemsize, scratch)
        data = shuffled.tobytes()
        if self._simple_api:
            return self._module.compress(data, self.level)
        return self._module.ZstdCompressor(level=self.level).compress(data)

    def decode_chunk(self, payload: bytes, out: np.ndarray, itemsize: int) -> None:
        try:
            if self._simple_api:
                raw = self._module.decompress(bytes(payload))
            else:
                raw = self._module.ZstdDecompressor().decompress(
                    bytes(payload), max_output_size=out.size
                )
        except Exception as exc:
            raise CodecError(f"corrupt zstd chunk: {exc}") from exc
        unshuffle_into(raw, out, itemsize)


_CODECS: Dict[str, Codec] = {
    codec.name: codec for codec in (NullCodec(), ShuffleDeflateCodec())
}

#: Gated codec name -> human-readable reason it is absent from the registry.
_UNAVAILABLE: Dict[str, str] = {}


def register_codec(codec: Codec) -> Codec:
    """Add ``codec`` to the registry (idempotent; last registration wins).

    ``"raw"`` is reserved: it means *no framing*, so routing it through a
    :class:`Codec` would silently change the on-disk layout.
    """
    if codec.name == RAW_CODEC:
        raise CodecError(f"codec name {RAW_CODEC!r} is reserved (means: no framing)")
    _CODECS[codec.name] = codec
    _UNAVAILABLE.pop(codec.name, None)
    return codec


def _register_optional_codecs(
    import_module: Callable[[str], object] = importlib.import_module,
) -> None:
    """Register the real lz4/zstd codecs where their packages import.

    Called once at module import; tests re-run it with a fake
    ``import_module`` to exercise both the present and the absent arm
    without the packages installed.  Absence is recorded in
    ``_UNAVAILABLE`` so :func:`get_codec` can distinguish "never heard of
    it" from "known but not installed here".
    """
    try:
        block = import_module("lz4.block")
    except ImportError:
        _UNAVAILABLE.setdefault("lz4", "package 'lz4' is not installed")
    else:
        register_codec(Lz4Codec(block))
    try:
        zstandard = import_module("zstandard")
    except ImportError:
        try:
            simple = import_module("zstd")
        except ImportError:
            _UNAVAILABLE.setdefault("zstd", "neither 'zstandard' nor 'zstd' is installed")
        else:
            register_codec(ZstdCodec(simple, simple_api=True))
    else:
        register_codec(ZstdCodec(zstandard, simple_api=False))


def codec_names() -> Tuple[str, ...]:
    """Every accepted codec name, ``"raw"`` (no framing) included."""
    return (RAW_CODEC, *sorted(_CODECS))


def get_codec(name: str) -> Codec:
    """The registered :class:`Codec` for ``name`` (``"raw"`` is not a codec).

    Unknown names raise :class:`CodecError` listing what *is* registered;
    for the gated codecs (``lz4``, ``zstd``) the message additionally says
    the codec exists but its package is not installed in this environment.
    """
    codec = _CODECS.get(name)
    if codec is None:
        hint = f" ({_UNAVAILABLE[name]})" if name in _UNAVAILABLE else ""
        raise CodecError(f"unknown codec {name!r}{hint}; known: {list(codec_names())}")
    return codec


_register_optional_codecs()
