"""Pluggable I/O backend benchmark: bitwise identity + codec compression.

Every available raw-I/O backend (``thread`` always, ``odirect`` where the
filesystem cooperates) must produce bitwise-identical
training state and byte-for-byte identical tier blob files — the gated
``bitwise_identity_ratio`` headline is 1.0 or the backend layer is broken.
The codec side frames a representative checkpoint payload through every
registered chunk codec; the always-available
``shuffle_deflate_compression_ratio`` is the second gated headline, while
lz4/zstd ratios ride along wherever those packages are importable.

Backend wall-clock numbers are recorded but deliberately *ungated*: which
raw path wins is machine- and filesystem-specific, so the trajectory gate
must not encode one machine's verdict.

Marked ``perf_smoke``; each run refreshes ``BENCH_io_backend.json`` at the
repository root.
"""

import json
from pathlib import Path

import pytest

from repro.bench.experiments import io_backend_codec_comparison

#: Trajectory file consumed by later PRs to compare backend/codec behaviour.
TRAJECTORY_PATH = Path(__file__).resolve().parents[1] / "BENCH_io_backend.json"


@pytest.mark.perf_smoke
def test_backends_are_bitwise_identical_and_codecs_compress(tmp_path, show):
    result = io_backend_codec_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["bitwise_identity_ratio"] == 1.0, (
        "a raw-I/O backend produced different training state or blob bytes"
    )
    backends = check["backends"].split(",")
    assert "thread" in backends, "the fallback thread backend must always be available"

    codec_rows = [row for row in result.rows if row.get("series") == "codec"]
    ratios = {row["codec"]: row["compression_ratio"] for row in codec_rows}
    assert "shuffle-deflate" in ratios, "the built-in codec must always be measured"
    # Mantissa-quantized float32 noise: the shuffled zero plane alone
    # guarantees real compression on any general-purpose codec.
    for name, ratio in ratios.items():
        assert ratio > 1.2, f"codec {name} failed to compress the quantized payload ({ratio:.2f}x)"

    trajectory = {
        "experiment": result.experiment,
        "description": result.description,
        "backends": backends,
        # Gated, machine-independent headlines.
        "bitwise_identity_ratio": check["bitwise_identity_ratio"],
        "shuffle_deflate_compression_ratio": ratios["shuffle-deflate"],
        # Ungated context: raw medians and optional-codec ratios (only
        # present where the packages are installed / the kernel cooperates).
        "median_update_s": {
            row["engine"]: row["median_update_s"]
            for row in result.rows
            if row.get("series") == "summary"
        },
        "codec_compression": ratios,
        "trajectory": [row for row in result.rows if row.get("series") == "trajectory"],
    }
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
