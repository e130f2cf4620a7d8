"""Node-level tier concurrency control (paper §3.2, "Optimized Virtual Tier
Concurrency Control for Multi-Path I/O").

Multiple worker processes on a node share each physical storage path; letting
them all issue I/O concurrently degrades per-process latency without raising
aggregate throughput (Figure 4).  MLP-Offload therefore grants each physical
tier to at most one worker at a time ("process-atomic reads/writes" in the
ablation of Figure 14), while the excluded workers either compute updates for
already-fetched subgroups or drive *other* tiers — producing the natural
interleaving that load-balances the virtual tier without global
synchronization.

:class:`NodeConcurrencyController` wraps the raw
:class:`~repro.aio.locks.TierLockManager` with the policy switch: the
ablation baseline simply bypasses the locks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.aio.locks import TierLease, TierLockManager


class _BypassLease:
    """A no-op lease returned when concurrency control is disabled."""

    def __init__(self, tier: str, worker: str) -> None:
        self.tier = tier
        self.worker = worker
        self.shares = 1

    def release(self) -> None:
        return None

    def __enter__(self) -> "_BypassLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


class NodeConcurrencyController:
    """Per-node arbiter of which worker may drive which physical tier.

    Parameters
    ----------
    lock_manager:
        The shared node-level lock manager (one per compute node).  Workers
        on the same node must be constructed with the *same* manager
        instance.
    enabled:
        When ``False`` every acquisition succeeds immediately without
        exclusion — the DeepSpeed baseline behaviour, used by the ablation
        study's intermediate variants.
    """

    def __init__(self, lock_manager: Optional[TierLockManager] = None, *, enabled: bool = True) -> None:
        self.lock_manager = lock_manager if lock_manager is not None else TierLockManager()
        self.enabled = enabled

    @contextmanager
    def exclusive(self, tier: str, worker: str, *, timeout: Optional[float] = None) -> Iterator[None]:
        """Context manager holding tier-exclusive access for the duration of the block."""
        if not self.enabled:
            yield
            return
        lease = self.lock_manager.acquire(tier, worker, timeout=timeout)
        if lease is None:
            raise TimeoutError(f"worker {worker!r} timed out waiting for tier {tier!r}")
        try:
            yield
        finally:
            lease.release()

    def try_exclusive(self, tier: str, worker: str) -> "Optional[TierLease | _BypassLease]":
        """Non-blocking acquisition; returns a lease or ``None`` (always a lease when disabled)."""
        if not self.enabled:
            return _BypassLease(tier, worker)
        return self.lock_manager.acquire(tier, worker, blocking=False)
