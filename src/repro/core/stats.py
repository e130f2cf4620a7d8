"""Per-phase counters and reports produced by the functional engines.

The counters mirror the paper's key metrics (§4.1): iteration time broken
down by phase, update throughput in parameters/second, effective I/O
throughput (2 × subgroup bytes / (read + write time)) and cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class UpdatePhaseStats:
    """Counters accumulated over one update phase of one worker."""

    subgroups_processed: int = 0
    params_updated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    fetch_bytes: int = 0
    fetch_seconds: float = 0.0
    flush_bytes: int = 0
    flush_seconds: float = 0.0
    compute_seconds: float = 0.0
    conversion_seconds: float = 0.0
    wall_seconds: float = 0.0
    skipped_flushes: int = 0
    #: Lookahead window the phase ran with (the engine's ``PREFETCH_DEPTH``).
    prefetch_depth: int = 0
    #: Time spent draining async backward-phase gradient flushes at the
    #: start of the update phase (FLUSH_FP32 policy).
    grad_drain_seconds: float = 0.0
    #: Transient tier-I/O failures absorbed by the engine's retry policy
    #: during this phase (the training loop never saw them).
    io_retries: int = 0
    #: Flushes/prefetches transparently re-routed off a failed path during
    #: this phase (degraded-mode failover rewrites).
    io_failovers: int = 0
    #: Prefetches skipped because a peer worker held the placement tier's
    #: lease (that subgroup is then fetched synchronously on its turn).
    deferred_prefetches: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def update_throughput(self) -> float:
        """Parameters updated per second of update-phase wall time."""
        return self.params_updated / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def io_seconds(self) -> float:
        return self.fetch_seconds + self.flush_seconds

    @property
    def effective_io_throughput(self) -> float:
        """2 × subgroup bytes / (read time + write time), as defined in §4.3."""
        if self.io_seconds <= 0:
            return 0.0
        return (self.fetch_bytes + self.flush_bytes) / self.io_seconds

    @property
    def io_fraction(self) -> float:
        """Fraction of update wall time attributable to storage I/O."""
        return self.io_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def merge(self, other: "UpdatePhaseStats") -> "UpdatePhaseStats":
        """Element-wise sum of two stats records (for multi-worker aggregation)."""
        return UpdatePhaseStats(
            subgroups_processed=self.subgroups_processed + other.subgroups_processed,
            params_updated=self.params_updated + other.params_updated,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            fetch_bytes=self.fetch_bytes + other.fetch_bytes,
            fetch_seconds=self.fetch_seconds + other.fetch_seconds,
            flush_bytes=self.flush_bytes + other.flush_bytes,
            flush_seconds=self.flush_seconds + other.flush_seconds,
            compute_seconds=self.compute_seconds + other.compute_seconds,
            conversion_seconds=self.conversion_seconds + other.conversion_seconds,
            wall_seconds=max(self.wall_seconds, other.wall_seconds),
            skipped_flushes=self.skipped_flushes + other.skipped_flushes,
            prefetch_depth=max(self.prefetch_depth, other.prefetch_depth),
            grad_drain_seconds=self.grad_drain_seconds + other.grad_drain_seconds,
            io_retries=self.io_retries + other.io_retries,
            io_failovers=self.io_failovers + other.io_failovers,
            deferred_prefetches=self.deferred_prefetches + other.deferred_prefetches,
        )
