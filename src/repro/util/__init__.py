"""Shared utilities: byte-size arithmetic and structured logging."""

from repro.util.bytesize import (
    GiB,
    KiB,
    MiB,
    TiB,
    format_bytes,
    parse_bytes,
)

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "format_bytes",
    "parse_bytes",
]
