"""Size-classed pool of reusable ndarray scratch buffers (zero-copy I/O).

The hot path of the update phase moves three FP32 arrays per subgroup in and
three out, every iteration, forever.  Allocating fresh ndarrays for each
transfer costs an allocation, a page-fault sweep on first touch and garbage
churn — exactly the overheads DeepSpeed avoids by pinning a fixed set of host
buffers.  :class:`ArrayPool` is the functional substrate's equivalent: it
hands out 1-D ndarray views over pooled page-aligned ``bytearray`` storage,
keyed by power-of-two size class, so that steady-state fetch/flush traffic
performs **zero** new allocations.

The pool is elastic: a miss allocates, a release recycles.  Its hit rate is
therefore a direct measurement of allocation-freeness; the pipeline
equivalence tests assert the engine's pool stops allocating after warm-up
and hits more often than it misses.

Ownership contract: arrays returned by :meth:`acquire` remain valid until
passed to :meth:`release`; releasing makes the storage eligible for reuse, so
callers must not touch an array after releasing it.  :meth:`release` is a
safe no-op for arrays the pool does not own, which lets engine code release
uniformly without tracking provenance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Buffers are rounded up to multiples of this (typical page size), so many
#: nearby subgroup sizes share one size class.
_ALIGN = 4096


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two multiple of the alignment covering ``nbytes``."""
    if nbytes <= _ALIGN:
        return _ALIGN
    cls = _ALIGN
    while cls < nbytes:
        cls <<= 1
    return cls


def scatter_views(array: np.ndarray, extents: Iterable) -> List[np.ndarray]:
    """Contiguous flat views of ``array``, one per ``(start, count)`` extent.

    This is the scatter side of striped multi-path reads: each returned view
    aliases ``array``'s storage over ``[start, start + count)`` elements, so
    a per-stripe ``load_into`` lands directly in the right extent of the
    pooled buffer with zero intermediate copies.  ``extents`` is any iterable
    of objects with ``start`` / ``count`` attributes (e.g.
    :class:`~repro.tiers.spec.StripeExtent`).

    Ownership: the views borrow the buffer — they are only valid while
    ``array`` itself is (for pooled arrays: until it is passed back to
    :meth:`ArrayPool.release`), and the caller must not release the buffer
    while any view is still the destination of in-flight I/O.  ``array``
    must be 1-D C-contiguous, writable, and large enough to cover every
    extent.
    """
    if array.ndim != 1 or not array.flags.c_contiguous:
        raise ValueError("scatter target must be a 1-D C-contiguous array")
    if not array.flags.writeable:
        raise ValueError("scatter target must be writable")
    views: List[np.ndarray] = []
    for extent in extents:
        start, count = int(extent.start), int(extent.count)
        if start < 0 or count < 0 or start + count > array.size:
            raise ValueError(
                f"extent [{start}, {start + count}) exceeds array of {array.size} elements"
            )
        views.append(array[start : start + count])
    return views


@dataclass
class ArrayPoolStats:
    """Counters describing pool efficiency."""

    hits: int = 0
    misses: int = 0
    releases: int = 0
    foreign_releases: int = 0

    @property
    def allocations(self) -> int:
        """Number of fresh backing buffers ever allocated (== misses)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ArrayPool:
    """Recycling pool of flat ndarray scratch buffers, keyed by size class.

    Thread-safety: all methods are safe to call from any thread (one internal
    lock guards the free lists and the outstanding map); the *arrays* handed
    out are not synchronized — each buffer must have a single owner at a
    time, which is whoever holds it between :meth:`acquire` and
    :meth:`release` (or the I/O engine, while a read/write against it is in
    flight).

    Parameters
    ----------
    max_free_per_class:
        Upper bound on retained free buffers per size class; releases beyond
        it drop the storage instead of growing the pool without bound.
    alignment:
        When set (a power of two), every array handed out starts at a memory
        address that is a multiple of it — the buffer-address half of the
        O_DIRECT contract (see :mod:`repro.aio.backends`).  Storage is
        over-allocated by one alignment unit and the view shifted to the
        first aligned byte, so pooling behaviour (size classes, hit rates)
        is unchanged.  ``None``/1 means no address guarantee (historical
        behaviour); the effective value is exposed as :attr:`alignment`.
    """

    def __init__(
        self, *, max_free_per_class: int = 32, alignment: Optional[int] = None
    ) -> None:
        if max_free_per_class < 1:
            raise ValueError("max_free_per_class must be >= 1")
        align = 1 if alignment is None else int(alignment)
        if align < 1 or align & (align - 1):
            raise ValueError(f"alignment must be a positive power of two, got {alignment}")
        #: Guaranteed address granularity of every acquired array (1 = none).
        self.alignment = align
        self.max_free_per_class = int(max_free_per_class)
        self._free: Dict[int, List[bytearray]] = {}
        #: id(array) -> (array, backing storage, size class) for live handouts.
        self._outstanding: Dict[int, Tuple[np.ndarray, bytearray, int]] = {}
        self._lock = threading.Lock()
        self.stats = ArrayPoolStats()

    # -- introspection ---------------------------------------------------

    @property
    def outstanding_count(self) -> int:
        with self._lock:
            return len(self._outstanding)

    @property
    def free_count(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._free.values())

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is a live handout of this pool."""
        with self._lock:
            return id(array) in self._outstanding

    # -- core operations -------------------------------------------------

    def acquire(self, num_elements: int, dtype: "np.dtype | str" = np.float32) -> np.ndarray:
        """Return a writable 1-D array of ``num_elements`` of ``dtype``.

        The array is a view over pooled storage; contents are undefined (it
        is a scratch destination, typically filled by ``readinto``).

        Ownership: the caller owns the array — and any
        :func:`scatter_views` slices of it — until it is passed back to
        :meth:`release`; do not release while I/O into the buffer is still
        in flight.
        """
        if num_elements < 0:
            raise ValueError("num_elements must be non-negative")
        dt = np.dtype(dtype)
        nbytes = int(num_elements) * dt.itemsize
        cls = _size_class(nbytes)
        with self._lock:
            bucket = self._free.get(cls)
            if bucket:
                storage = bucket.pop()
                self.stats.hits += 1
            else:
                # Over-allocate by one alignment unit so an aligned view of
                # the full size class always fits, wherever the allocator
                # happens to place the bytearray.
                storage = bytearray(cls + self.alignment - 1)
                self.stats.misses += 1
            array = np.frombuffer(storage, dtype=dt, count=num_elements, offset=self._shift(storage))
            self._outstanding[id(array)] = (array, storage, cls)
        return array

    def _shift(self, storage: bytearray) -> int:
        """Byte offset of the first aligned address within ``storage``."""
        if self.alignment == 1:
            return 0
        addr = np.frombuffer(storage, dtype=np.uint8).ctypes.data
        return (-addr) % self.alignment

    def release(self, array: np.ndarray) -> bool:
        """Recycle a pooled array; no-op (``False``) for foreign arrays.

        After release the storage may be handed to another caller at any
        moment — the array (and every view over it) must not be touched
        again.  Safe from any thread.
        """
        with self._lock:
            entry = self._outstanding.pop(id(array), None)
            if entry is None:
                self.stats.foreign_releases += 1
                return False
            _, storage, cls = entry
            bucket = self._free.setdefault(cls, [])
            if len(bucket) < self.max_free_per_class:
                bucket.append(storage)
            self.stats.releases += 1
            return True

    def release_all(self, arrays) -> int:
        """Release every pooled array in ``arrays``; returns how many were pooled."""
        return sum(1 for a in arrays if self.release(a))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayPool(outstanding={self.outstanding_count}, free={self.free_count}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
