"""Subgroup → tier placement map.

The placement map records which physical tier of the virtual third-level
tier currently holds each subgroup's offloaded state.  It is created from a
performance-model allocation (Equation 1), queried on every fetch, and
updated on every flush — a subgroup may move between tiers when the
allocation is re-balanced after bandwidth estimates shift (§3.3) or when the
engine lazily flushes it to whichever tier is idle.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


class PlacementMap:
    """Mutable mapping of subgroup ID → tier name with allocation bookkeeping."""

    #: Sentinel tier name for subgroups resident only in host memory.
    HOST = "host"

    def __init__(self, tier_names: Sequence[str]) -> None:
        if not tier_names:
            raise ValueError("at least one tier name is required")
        if len(set(tier_names)) != len(tier_names):
            raise ValueError("tier names must be unique")
        self.tier_names: List[str] = list(tier_names)
        self._placement: Dict[int, str] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_allocation(
        cls,
        subgroup_ids: Sequence[int],
        allocation: Mapping[str, int],
        *,
        interleave: bool = True,
    ) -> "PlacementMap":
        """Build an initial placement from an Equation 1 allocation.

        With ``interleave=True`` (default) subgroups are dealt to tiers in a
        round-robin weighted by the allocation, so that consecutive subgroup
        IDs land on *different* tiers whenever possible — this is what lets
        consecutive fetches proceed on independent I/O paths (Figure 6's
        S1→NVMe, S2→PFS pattern).  With ``interleave=False`` subgroups are
        assigned in contiguous blocks.
        """
        total = sum(allocation.values())
        if total != len(subgroup_ids):
            raise ValueError(
                f"allocation covers {total} subgroups but {len(subgroup_ids)} IDs were given"
            )
        placement = cls(list(allocation.keys()))
        remaining = {name: int(count) for name, count in allocation.items()}
        if any(count < 0 for count in remaining.values()):
            raise ValueError("allocation counts must be non-negative")

        if interleave:
            # Largest-remainder round robin: at each step assign the next
            # subgroup to the tier with the highest remaining/initial ratio.
            initial = {name: max(1, count) for name, count in remaining.items()}
            for subgroup_id in subgroup_ids:
                candidates = [n for n, c in remaining.items() if c > 0]
                if not candidates:
                    raise ValueError("ran out of allocation while placing subgroups")
                best = max(candidates, key=lambda n: (remaining[n] / initial[n], remaining[n], n))
                placement._placement[subgroup_id] = best
                remaining[best] -= 1
        else:
            cursor = 0
            ids = list(subgroup_ids)
            for name, count in allocation.items():
                for subgroup_id in ids[cursor : cursor + count]:
                    placement._placement[subgroup_id] = name
                cursor += count
        return placement

    # -- queries ------------------------------------------------------------

    def tier_of(self, subgroup_id: int) -> str:
        try:
            return self._placement[subgroup_id]
        except KeyError:
            raise KeyError(f"subgroup {subgroup_id} has no placement") from None

    def counts(self) -> Dict[str, int]:
        """Number of subgroups per tier (including :attr:`HOST` if any)."""
        counter = Counter(self._placement.values())
        result = {name: 0 for name in self.tier_names}
        result.update(counter)
        return result

    def __len__(self) -> int:
        return len(self._placement)

    def __contains__(self, subgroup_id: int) -> bool:
        return subgroup_id in self._placement

    def items(self):
        return self._placement.items()

    # -- updates -------------------------------------------------------------

    def assign(self, subgroup_id: int, tier: str) -> None:
        """Record that ``subgroup_id`` now resides on ``tier``."""
        if tier != self.HOST and tier not in self.tier_names:
            raise KeyError(f"unknown tier {tier!r}; known: {self.tier_names}")
        self._placement[subgroup_id] = tier

    def rebalance(
        self,
        allocation: Mapping[str, int],
        *,
        order: Optional[Iterable[int]] = None,
    ) -> Dict[int, str]:
        """Produce target tiers matching a new allocation, moving as few subgroups as possible.

        Returns ``{subgroup_id: new_tier}`` for subgroups whose target differs
        from the current placement.  Subgroups already on a tier that still
        has quota stay put; the remainder are reassigned (in ``order``, or
        ascending ID order) to tiers with spare quota.
        """
        total = sum(allocation.values())
        if total != len(self._placement):
            raise ValueError(
                f"allocation covers {total} subgroups but the map holds {len(self._placement)}"
            )
        quota = {name: int(count) for name, count in allocation.items()}
        moves: Dict[int, str] = {}
        ids = list(order) if order is not None else sorted(self._placement)
        # First pass: keep subgroups whose tier still has quota.
        stay: Dict[int, str] = {}
        for subgroup_id in ids:
            current = self._placement[subgroup_id]
            if quota.get(current, 0) > 0:
                quota[current] -= 1
                stay[subgroup_id] = current
        # Second pass: reassign the rest to any tier with remaining quota.
        for subgroup_id in ids:
            if subgroup_id in stay:
                continue
            target = max(quota, key=lambda n: (quota[n], n))
            if quota[target] <= 0:
                raise RuntimeError("allocation quota exhausted during rebalance")
            quota[target] -= 1
            moves[subgroup_id] = target
            self._placement[subgroup_id] = target
        return moves
