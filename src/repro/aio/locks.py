"""Tier-exclusive concurrency control (§3.2, §3.5).

On a multi-GPU node all worker processes share the same NVMe device and the
same PFS mount; concurrent multi-threaded reads/writes from all of them
saturate the PCIe link and the storage subsystem, so *per-process* latency
degrades even though aggregate throughput stays flat (Figure 4).  MLP-Offload
therefore serializes access at the node level: at most one worker may drive a
given physical tier at a time, while that worker is still free to use
multiple I/O threads against the tier (the "process-exclusive,
multi-thread-shared" lock of §3.5).

The functional substrate maps the paper's processes onto Python threads (one
per simulated rank), so the lock manager below arbitrates between *worker
identities* rather than OS processes: a tier lease is granted to one worker
at a time, and any number of I/O threads acting on behalf of that worker may
share it (re-entrant semantics keyed by worker id).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class TierLockStats:
    """Contention counters for one tier's lock."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    wait_seconds: float = 0.0
    hold_seconds: float = 0.0


class TierLease:
    """A granted lease of a tier to one worker.

    The lease is shared by all I/O threads of the owning worker: nested
    acquisitions by the same worker increment a share count instead of
    blocking, which is what lets a PFS be driven with its preferred I/O
    parallelism by a single worker while other workers are excluded.
    """

    def __init__(self, manager: "TierLockManager", tier: str, worker: str) -> None:
        self._manager = manager
        self.tier = tier
        self.worker = worker
        self.shares = 1
        self.acquired_at = time.perf_counter()

    def release(self) -> None:
        self._manager.release(self.tier, self.worker)

    def __enter__(self) -> "TierLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class TierLockManager:
    """Node-level registry of tier-exclusive locks.

    One manager instance models one compute node.  Workers request exclusive
    access to a named tier; the request blocks (or fails, with
    ``blocking=False``) while another worker holds the tier.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._owners: Dict[str, TierLease] = {}
        self._stats: Dict[str, TierLockStats] = {}
        self._waiters: Dict[str, int] = {}

    def _stats_for(self, tier: str) -> TierLockStats:
        if tier not in self._stats:
            self._stats[tier] = TierLockStats()
        return self._stats[tier]

    def acquire(
        self,
        tier: str,
        worker: str,
        *,
        blocking: bool = True,
        timeout: Optional[float] = None,
    ) -> Optional[TierLease]:
        """Acquire exclusive access to ``tier`` on behalf of ``worker``.

        Returns the lease, or ``None`` when ``blocking=False`` and the tier
        is held by a different worker.  Re-acquisition by the same worker
        succeeds immediately and increments the lease's share count.
        """
        start = time.perf_counter()
        with self._cond:
            stats = self._stats_for(tier)
            current = self._owners.get(tier)
            if current is not None and current.worker == worker:
                current.shares += 1
                stats.acquisitions += 1
                return current
            if current is not None:
                if not blocking:
                    return None
                self._waiters[tier] = self._waiters.get(tier, 0) + 1
                try:
                    ok = self._cond.wait_for(
                        lambda: tier not in self._owners
                        or self._owners[tier].worker == worker,
                        timeout=timeout,
                    )
                finally:
                    self._waiters[tier] -= 1
                if not ok:
                    return None
                stats.contended_acquisitions += 1
                # Another thread of the same worker may have acquired while we waited.
                current = self._owners.get(tier)
                if current is not None and current.worker == worker:
                    current.shares += 1
                    stats.acquisitions += 1
                    stats.wait_seconds += time.perf_counter() - start
                    return current
            lease = TierLease(self, tier, worker)
            self._owners[tier] = lease
            stats.acquisitions += 1
            stats.wait_seconds += time.perf_counter() - start
            return lease

    def release(self, tier: str, worker: str) -> None:
        """Release one share of ``tier`` held by ``worker``."""
        with self._cond:
            lease = self._owners.get(tier)
            if lease is None or lease.worker != worker:
                raise RuntimeError(f"worker {worker!r} does not hold tier {tier!r}")
            lease.shares -= 1
            if lease.shares == 0:
                self._stats_for(tier).hold_seconds += time.perf_counter() - lease.acquired_at
                del self._owners[tier]
                self._cond.notify_all()

    def owner_of(self, tier: str) -> Optional[str]:
        with self._cond:
            lease = self._owners.get(tier)
            return lease.worker if lease is not None else None

    def waiters(self, tier: str) -> int:
        with self._cond:
            return self._waiters.get(tier, 0)

    def stats(self, tier: str) -> TierLockStats:
        with self._cond:
            return self._stats_for(tier)

    def held_tiers(self) -> Dict[str, str]:
        """Mapping of tier name -> owning worker for all currently held tiers."""
        with self._cond:
            return {tier: lease.worker for tier, lease in self._owners.items()}
