"""I/O performance model for subgroup allocation (paper §3.3, Equation 1).

Given ``M`` equally sized subgroups and ``N`` storage tiers with bandwidths
``B_i`` (each the minimum of the tier's read and write throughput), the model
assigns tier ``i``:

.. math::

    T_i = \\left\\lceil \\frac{M \\cdot B_i}{\\sum_j B_j} \\right\\rceil
    \\quad\\text{adjusted so that}\\quad \\sum_i T_i = M

so that parallel fetches/flushes from all tiers finish at roughly the same
time (no straggler tier, no idle tier).

Bandwidths are seeded by microbenchmarks and then refined after every
iteration from the observed per-tier fetch/flush throughput, so the split
adapts when, e.g., the PFS comes under pressure from other jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping


def allocate_subgroups(num_subgroups: int, bandwidths: Mapping[str, float]) -> Dict[str, int]:
    """Split ``num_subgroups`` across tiers proportionally to their bandwidth.

    Implements Equation 1: each tier first receives
    ``ceil(M * B_i / sum(B))`` subgroups, then the allocation is trimmed
    (starting from the slowest tiers) until the counts sum to ``M``.  The
    result preserves three invariants the property tests verify:

    * the counts sum exactly to ``num_subgroups``;
    * every count is non-negative, and a tier with non-zero bandwidth gets a
      non-zero count whenever ``num_subgroups >= len(bandwidths)``;
    * counts are monotonically non-decreasing in bandwidth (a faster tier
      never receives fewer subgroups than a slower one).
    """
    if num_subgroups < 0:
        raise ValueError("num_subgroups must be non-negative")
    if not bandwidths:
        raise ValueError("at least one tier bandwidth is required")
    for name, bw in bandwidths.items():
        if bw < 0:
            raise ValueError(f"tier {name!r} has negative bandwidth")
    total_bw = float(sum(bandwidths.values()))
    if total_bw <= 0:
        raise ValueError("total bandwidth must be positive")
    if num_subgroups == 0:
        return {name: 0 for name in bandwidths}

    # Ceiling allocation of Eq. 1 ...
    counts = {
        name: math.ceil(num_subgroups * bw / total_bw) for name, bw in bandwidths.items()
    }
    # ... adjusted so the counts sum to M.  Over-allocation is removed from
    # the slowest tiers first (they benefit least from extra subgroups);
    # under-allocation (possible only via zero-bandwidth tiers) is topped up
    # on the fastest tiers.
    ordered_slowest_first = sorted(bandwidths, key=lambda n: (bandwidths[n], n))
    excess = sum(counts.values()) - num_subgroups
    idx = 0
    while excess > 0:
        name = ordered_slowest_first[idx % len(ordered_slowest_first)]
        if counts[name] > 0:
            take = min(excess, counts[name] - (1 if bandwidths[name] > 0 and num_subgroups >= len(bandwidths) else 0))
            if take > 0:
                counts[name] -= take
                excess -= take
        idx += 1
        if idx > 10 * len(ordered_slowest_first):
            # Fall back to unconditional trimming (tiny M relative to tier count).
            for name in ordered_slowest_first:
                while excess > 0 and counts[name] > 0:
                    counts[name] -= 1
                    excess -= 1
            break
    deficit = num_subgroups - sum(counts.values())
    fastest_first = list(reversed(ordered_slowest_first))
    idx = 0
    while deficit > 0:
        counts[fastest_first[idx % len(fastest_first)]] += 1
        deficit -= 1
        idx += 1

    # Restore bandwidth-monotonicity possibly broken by the adjustment pass.
    _enforce_monotonicity(counts, bandwidths)
    assert sum(counts.values()) == num_subgroups
    return counts


def _enforce_monotonicity(counts: Dict[str, int], bandwidths: Mapping[str, float]) -> None:
    """Swap counts so that a faster tier never holds fewer subgroups than a slower one."""
    names = sorted(bandwidths, key=lambda n: (bandwidths[n], n))
    changed = True
    while changed:
        changed = False
        for slow, fast in zip(names, names[1:]):
            if bandwidths[fast] > bandwidths[slow] and counts[fast] < counts[slow]:
                counts[fast], counts[slow] = counts[slow], counts[fast]
                changed = True


def allocation_from_ratios(num_subgroups: int, ratios: Mapping[str, float]) -> Dict[str, int]:
    """Split subgroups according to user-specified ratios (e.g. a ``2:1`` split).

    The paper allows the user to pin the split explicitly (§3.5); the ratios
    are treated exactly like bandwidths in Equation 1.
    """
    return allocate_subgroups(num_subgroups, ratios)


def expected_round_trip_seconds(
    subgroup_bytes: float, allocation: Mapping[str, int], bandwidths: Mapping[str, float]
) -> float:
    """Predicted time for one full fetch+flush sweep over all subgroups.

    Tiers operate in parallel, so the sweep finishes when the slowest tier
    finishes cycling its share: ``max_i(T_i * 2 * size / B_i)``.
    """
    if subgroup_bytes < 0:
        raise ValueError("subgroup_bytes must be non-negative")
    worst = 0.0
    for name, count in allocation.items():
        bw = bandwidths.get(name, 0.0)
        if count > 0 and bw <= 0:
            raise ValueError(f"tier {name!r} holds subgroups but has no bandwidth")
        if count > 0:
            worst = max(worst, count * 2.0 * subgroup_bytes / bw)
    return worst


@dataclass
class BandwidthEstimator:
    """Online per-tier bandwidth estimate refined from observed transfers.

    Seeded with microbenchmark results (or Table 1 numbers); after every
    iteration the engine feeds back the observed bytes/seconds per tier and
    the estimate moves by exponential smoothing, so a tier whose performance
    shifts (shared PFS under external load) gets re-weighted in the next
    iteration's allocation (§3.3).
    """

    initial: Dict[str, float]
    smoothing: float = 0.5
    _current: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.initial:
            raise ValueError("initial bandwidths must be non-empty")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        for name, bw in self.initial.items():
            if bw <= 0:
                raise ValueError(f"initial bandwidth for {name!r} must be positive")
        self._current = dict(self.initial)

    @property
    def bandwidths(self) -> Dict[str, float]:
        """The current per-tier estimates (bytes/second)."""
        return dict(self._current)

    def observe(self, tier: str, nbytes: float, seconds: float) -> float:
        """Fold one observed transfer into the estimate and return the new value."""
        if tier not in self._current:
            raise KeyError(f"unknown tier {tier!r}; known: {sorted(self._current)}")
        if nbytes < 0 or seconds < 0:
            raise ValueError("observation must be non-negative")
        if seconds == 0 or nbytes == 0:
            return self._current[tier]
        observed = nbytes / seconds
        alpha = self.smoothing
        self._current[tier] = (1.0 - alpha) * self._current[tier] + alpha * observed
        return self._current[tier]

    def allocate(self, num_subgroups: int) -> Dict[str, int]:
        """Allocate subgroups using the current estimates (Equation 1)."""
        return allocate_subgroups(num_subgroups, self._current)
