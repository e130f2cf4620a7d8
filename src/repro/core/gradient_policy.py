"""Gradient handling policies (paper §3.2, "Delayed In-place Mixed-Precision
Gradient Conversion").

Two policies are implemented:

``FLUSH_FP32`` (baseline)
    During the backward pass the FP16 gradients are up-converted to FP32 on
    the host and flushed to the subgroup's storage tier.  At update time the
    FP32 gradients are fetched back together with the optimizer state, so
    every fetch moves 16 bytes/parameter instead of 12.

``DELAYED_FP16`` (MLP-Offload)
    The FP16 gradients stay in the host accumulation buffer.  At update time
    they are up-converted in place — a CPU-bound conversion whose throughput
    (~65 GB/s) dwarfs tier bandwidth — and consumed directly, so neither the
    backward pass nor the update phase moves gradient bytes through the
    third-level tier.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.train.gradients import GradientAccumulator


class GradientConversionPolicy(enum.Enum):
    """Where and when FP16 gradients become FP32."""

    #: Convert on the host during backward and flush FP32 gradients to storage.
    FLUSH_FP32 = "flush_fp32"
    #: Keep FP16 gradients on the host; convert in place at update time.
    DELAYED_FP16 = "delayed_fp16"


def update_time_gradient(
    policy: GradientConversionPolicy,
    accumulator: GradientAccumulator,
    subgroup_index: int,
    *,
    stored_fp32: Optional[np.ndarray] = None,
    average: bool = True,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Produce the FP32 gradient consumed by the Adam update of one subgroup.

    For :attr:`GradientConversionPolicy.DELAYED_FP16` the gradient comes from
    the host accumulation buffer and is up-converted here ("in place" in the
    sense that no storage round-trip is involved).  For
    :attr:`GradientConversionPolicy.FLUSH_FP32` the caller passes the FP32
    gradient it fetched from storage (``stored_fp32``); when there is none (a
    host-cache hit fetches no gradient) the accumulator supplies the same
    value the backward pass flushed — its FP16 copy, up-converted — so the
    update never depends on whether the subgroup was cached.

    ``out`` is an optional preallocated FP32 destination (the engine's pooled
    conversion scratch); when usable it makes the call allocation-free with
    bitwise-identical values.  The returned array may be ``out``,
    ``stored_fp32`` or a fresh array — callers must treat it as read-only
    input to the Adam step.
    """
    if policy is GradientConversionPolicy.DELAYED_FP16:
        return accumulator.gradient_fp32(subgroup_index, average=average, out=out)
    if policy is GradientConversionPolicy.FLUSH_FP32:
        if stored_fp32 is None:
            stored_fp32 = accumulator.gradient_fp16(subgroup_index).astype(np.float32)
        grad = stored_fp32.astype(np.float32, copy=False)
        if average and accumulator.accumulated_steps > 1:
            steps = float(accumulator.accumulated_steps)
            if out is not None and out.shape == grad.shape:
                np.divide(grad, steps, out=out)
                return out
            grad = grad / steps
        return grad
    raise ValueError(f"unknown policy {policy!r}")


def backward_flush_payload(
    policy: GradientConversionPolicy,
    accumulator: GradientAccumulator,
    subgroup_index: int,
) -> Optional[np.ndarray]:
    """The gradient payload the backward pass flushes to storage, if any.

    ``None`` for the delayed policy (nothing is flushed); the up-converted
    FP32 gradient for the baseline policy.
    """
    if policy is GradientConversionPolicy.DELAYED_FP16:
        return None
    if policy is GradientConversionPolicy.FLUSH_FP32:
        return accumulator.gradient_fp16(subgroup_index).astype(np.float32)
    raise ValueError(f"unknown policy {policy!r}")
