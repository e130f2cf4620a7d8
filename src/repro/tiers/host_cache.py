"""Host-memory subgroup cache.

The host DRAM left over after runtime buffers is used as a cache for
offloaded subgroups.  The baseline (ZeRO-3) processes subgroups in ascending
ID order every iteration, which — with a cache that can only hold the tail of
the sequence — guarantees that the subgroups needed first next iteration were
just evicted ("thrashing", §3.1).  MLP-Offload's cache-friendly ordering
(§3.2) flips the processing order each iteration so the cached tail is reused.

This module provides the cache itself; ordering policies live in
:mod:`repro.core.ordering`.  Eviction is *insertion-ordered by update
completion*: the cache keeps the most recently updated subgroups, which is
exactly the population the reversal exploits.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np


@dataclass
class CacheEntry:
    """One cached subgroup: its arrays plus bookkeeping."""

    subgroup_id: int
    arrays: Dict[str, np.ndarray]
    nbytes: int
    dirty: bool = False
    #: Monotonically increasing stamp of the last insertion/touch.
    stamp: int = 0


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    rejected: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class HostSubgroupCache:
    """A capacity-bounded cache of subgroup state kept in host memory.

    Parameters
    ----------
    capacity_bytes:
        Total bytes of subgroup state the cache may hold.
    writeback:
        Callable invoked with ``(subgroup_id, arrays)`` when a *dirty* entry
        is evicted; the offloading engine uses it to flush the evicted
        subgroup to its storage tier.  It returns ``None`` once written, or a
        :class:`concurrent.futures.Future` that completes when its write-behind
        has landed.  If ``None``, dirty evictions raise.
    on_evict:
        Callable invoked with ``(subgroup_id, arrays)`` whenever an entry
        *leaves* the cache (eviction, or arrays replaced by a refresh) and no
        write can still read its arrays: at once for a clean entry, after the
        writeback for a dirty one — from the future's completion for a
        write-behind.
        The offloading engine uses it to return pooled scratch buffers to
        their :class:`~repro.tiers.array_pool.ArrayPool`.
    """

    def __init__(self, capacity_bytes: float, writeback=None, *, on_evict=None) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_bytes = float(capacity_bytes)
        self.writeback = writeback
        self.on_evict = on_evict
        self._entries: Dict[int, CacheEntry] = {}
        self._lock = threading.RLock()
        self._clock = 0
        self.stats = CacheStats()

    # -- introspection ---------------------------------------------------

    @property
    def used_bytes(self) -> float:
        with self._lock:
            return float(sum(e.nbytes for e in self._entries.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, subgroup_id: int) -> bool:
        with self._lock:
            return subgroup_id in self._entries

    def cached_ids(self) -> List[int]:
        """Subgroup IDs currently resident, oldest stamp first."""
        with self._lock:
            return [e.subgroup_id for e in sorted(self._entries.values(), key=lambda e: e.stamp)]

    def entry(self, subgroup_id: int) -> Optional[CacheEntry]:
        with self._lock:
            return self._entries.get(subgroup_id)

    # -- core operations -------------------------------------------------

    def get(self, subgroup_id: int) -> Optional[Dict[str, np.ndarray]]:
        """Return the cached arrays of ``subgroup_id`` (a hit) or ``None`` (a miss)."""
        with self._lock:
            entry = self._entries.get(subgroup_id)
            if entry is None:
                self.stats.misses += 1
                return None
            self._clock += 1
            entry.stamp = self._clock
            self.stats.hits += 1
            return entry.arrays

    def peek(self, subgroup_id: int) -> Optional[Dict[str, np.ndarray]]:
        """Like :meth:`get` but without touching the entry or the counters."""
        with self._lock:
            entry = self._entries.get(subgroup_id)
            return entry.arrays if entry is not None else None

    def put(self, subgroup_id: int, arrays: Dict[str, np.ndarray], *, dirty: bool = False) -> bool:
        """Insert (or refresh) a subgroup, evicting older entries if needed.

        Returns ``True`` if the subgroup is resident after the call.  A
        subgroup larger than the whole cache is rejected (returns ``False``)
        rather than evicting everything for nothing.
        """
        nbytes = int(sum(a.nbytes for a in arrays.values()))
        with self._lock:
            if nbytes > self.capacity_bytes:
                self.stats.rejected += 1
                return False
            existing = self._entries.pop(subgroup_id, None)
            self._evict_until(nbytes)
            self._clock += 1
            entry = CacheEntry(
                subgroup_id=subgroup_id,
                arrays=arrays,
                nbytes=nbytes,
                dirty=dirty or (existing.dirty if existing is not None else False),
                stamp=self._clock,
            )
            self._entries[subgroup_id] = entry
            self.stats.insertions += 1
            if existing is not None:
                # Arrays replaced (not carried over) have left the cache.
                self._notify_evict(existing, keep=arrays)
            return True

    # -- internals -------------------------------------------------------

    def _notify_evict(self, entry: CacheEntry, keep: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Tell the owner that ``entry``'s arrays left the cache.

        ``keep`` names arrays that remain resident under a refreshed entry;
        those are filtered out (by identity) so buffer owners never recycle
        storage that is still cached.
        """
        if self.on_evict is None:
            return
        arrays = entry.arrays
        if keep is not None:
            keep_ids = {id(a) for a in keep.values()}
            arrays = {k: a for k, a in arrays.items() if id(a) not in keep_ids}
        if arrays:
            self.on_evict(entry.subgroup_id, arrays)

    def _writeback_if_dirty(self, entry: CacheEntry) -> Optional[concurrent.futures.Future]:
        """Write ``entry`` back if dirty; returns the write-behind's future, if any."""
        if not entry.dirty:
            return None
        if self.writeback is None:
            raise RuntimeError(
                f"evicting dirty subgroup {entry.subgroup_id} without a writeback callback"
            )
        landed = self.writeback(entry.subgroup_id, entry.arrays)
        self.stats.dirty_evictions += 1
        entry.dirty = False
        return landed if isinstance(landed, concurrent.futures.Future) else None

    def _depart(self, entry: CacheEntry) -> None:
        """Write back a leaving entry; ``on_evict`` once no write reads its arrays."""
        landed = self._writeback_if_dirty(entry)
        if landed is None:
            self._notify_evict(entry)
        else:
            landed.add_done_callback(lambda _landed: self._notify_evict(entry))

    def _evict_until(self, incoming_bytes: int) -> None:
        """Evict oldest-stamped entries until ``incoming_bytes`` fits."""
        used = sum(e.nbytes for e in self._entries.values())
        if used + incoming_bytes <= self.capacity_bytes:
            return
        for entry in sorted(self._entries.values(), key=lambda e: e.stamp):
            self._depart(entry)
            del self._entries[entry.subgroup_id]
            self.stats.evictions += 1
            used -= entry.nbytes
            if used + incoming_bytes <= self.capacity_bytes:
                return

    def __iter__(self) -> Iterator[CacheEntry]:
        with self._lock:
            return iter(list(self._entries.values()))
