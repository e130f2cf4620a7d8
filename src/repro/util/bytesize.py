"""Byte-size constants, parsing and formatting.

All capacities and bandwidths in the package are expressed in plain bytes
(and bytes/second) as ``float`` or ``int``; these helpers keep the conversion
boilerplate out of the engine and simulator code.
"""

from __future__ import annotations

import re

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

#: Decimal units are occasionally used by storage vendors; the paper's
#: Table 1 bandwidths are reported in (decimal) GB/s, so we expose both.
KB: int = 1000
MB: int = 1000 * KB
GB: int = 1000 * MB
TB: int = 1000 * GB

_UNITS = {
    "b": 1,
    "kb": KB,
    "mb": MB,
    "gb": GB,
    "tb": TB,
    "kib": KiB,
    "mib": MiB,
    "gib": GiB,
    "tib": TiB,
}

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_bytes(value: "int | float | str") -> int:
    """Parse a human-readable byte size into an integer number of bytes.

    Accepts plain numbers (returned as-is, rounded to int) or strings such as
    ``"512GB"``, ``"1.6 TB"``, ``"40GiB"``.  Unit-less strings are treated as
    bytes.

    Raises
    ------
    ValueError
        If the string cannot be parsed or uses an unknown unit.
    """
    if isinstance(value, (int, float)):
        if value < 0:
            raise ValueError(f"byte size must be non-negative, got {value!r}")
        return int(value)
    match = _SIZE_RE.match(value)
    if not match:
        raise ValueError(f"cannot parse byte size {value!r}")
    number, unit = match.groups()
    unit = unit.lower() or "b"
    if unit not in _UNITS:
        raise ValueError(f"unknown byte-size unit {unit!r} in {value!r}")
    size = float(number) * _UNITS[unit]
    if size < 0:
        raise ValueError(f"byte size must be non-negative, got {value!r}")
    return int(round(size))


def format_bytes(num_bytes: "int | float", precision: int = 1) -> str:
    """Format a byte count as a human-readable string using binary units.

    >>> format_bytes(1536)
    '1.5KiB'
    >>> format_bytes(0)
    '0B'
    """
    if num_bytes < 0:
        raise ValueError(f"byte size must be non-negative, got {num_bytes!r}")
    if num_bytes < KiB:
        return f"{int(num_bytes)}B"
    for unit, factor in (("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if num_bytes >= factor:
            return f"{num_bytes / factor:.{precision}f}{unit}"
    return f"{int(num_bytes)}B"  # pragma: no cover - unreachable
