"""Host-side gradient accumulation buffers.

During the backward pass the FP16 gradients of each subgroup are flushed from
the GPU to a host accumulation buffer; with gradient accumulation enabled the
buffer sums the contributions of several micro-batches before one update
phase consumes them (§4.5).

The buffer is also where the two gradient policies diverge:

* the ZeRO-3 baseline up-converts the accumulated gradients to FP32 and
  flushes them to the third-level tier during the backward pass;
* MLP-Offload leaves them in FP16 on the host and converts at update time.

:class:`GradientAccumulator` implements the host buffer itself and is shared
by both engines; the policies live in :mod:`repro.core.gradient_policy`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.train.sharding import ShardLayout, Subgroup


class GradientAccumulator:
    """Per-rank FP16 gradient accumulation buffer, indexed by subgroup.

    Accumulation is performed in FP32 internally to avoid the catastrophic
    rounding of repeated FP16 adds, and exposed in FP16 (the storage format
    the paper reserves on the host for "the FP16 gradients of all subgroups",
    §3.2) or FP32 on demand.
    """

    def __init__(self, layout: ShardLayout, rank: int) -> None:
        self.layout = layout
        self.rank = rank
        self._subgroups: Dict[int, Subgroup] = {
            sg.index: sg for sg in layout.subgroups_for_rank(rank)
        }
        self._buffers: Dict[int, np.ndarray] = {
            index: np.zeros(sg.num_params, dtype=np.float32)
            for index, sg in self._subgroups.items()
        }
        self._accumulated_steps = 0

    @property
    def subgroup_indices(self) -> List[int]:
        return sorted(self._subgroups)

    @property
    def accumulated_steps(self) -> int:
        """Number of micro-batches accumulated since the last :meth:`reset`."""
        return self._accumulated_steps

    def accumulate(self, subgroup_index: int, grad_fp16: np.ndarray) -> None:
        """Add one micro-batch's FP16 gradient for ``subgroup_index``."""
        buffer = self._buffer(subgroup_index)
        if grad_fp16.size != buffer.size:
            raise ValueError(
                f"gradient size {grad_fp16.size} != subgroup size {buffer.size}"
            )
        buffer += grad_fp16.astype(np.float32, copy=False).reshape(-1)

    def mark_microbatch_done(self) -> None:
        """Record that one full micro-batch's gradients have been accumulated."""
        self._accumulated_steps += 1

    def gradient_fp16(self, subgroup_index: int) -> np.ndarray:
        """The accumulated gradient of one subgroup, in FP16 (host storage format)."""
        return self._buffer(subgroup_index).astype(np.float16)

    def gradient_fp32(
        self, subgroup_index: int, *, average: bool = True, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The accumulated gradient in FP32, optionally averaged over micro-batches.

        ``out`` (a preallocated FP32 array of the subgroup's size) makes the
        call allocation-free: the buffer is copied into it instead of into a
        fresh array, with bitwise-identical results.
        """
        buffer = self._buffer(subgroup_index)
        if out is None:
            grad = buffer.copy()
        else:
            np.copyto(out, buffer)
            grad = out
        if average and self._accumulated_steps > 1:
            grad /= float(self._accumulated_steps)
        return grad

    def reset(self, subgroup_indices: Optional[Iterable[int]] = None) -> None:
        """Zero the buffers (all of them, or just the listed subgroups)."""
        indices = self.subgroup_indices if subgroup_indices is None else list(subgroup_indices)
        for index in indices:
            self._buffer(index)[:] = 0.0
        if subgroup_indices is None:
            self._accumulated_steps = 0

    def _buffer(self, subgroup_index: int) -> np.ndarray:
        try:
            return self._buffers[subgroup_index]
        except KeyError:
            raise KeyError(
                f"rank {self.rank} has no subgroup {subgroup_index}; "
                f"known: {self.subgroup_indices}"
            ) from None
