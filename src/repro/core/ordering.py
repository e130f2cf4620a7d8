"""Cache-friendly subgroup update ordering (paper §3.2).

The Adam update of each subgroup is independent of every other subgroup, so
the processing order is free.  The baseline walks subgroups in ascending ID
order every iteration; with a host cache that holds only the *tail* of the
sequence, the subgroups needed first next iteration were evicted just before
— guaranteed thrashing.  MLP-Offload alternates between ascending and
descending order every update phase so that the subgroups left in the host
cache at the end of one update phase are exactly the first ones touched by
the next.
"""

from __future__ import annotations

import enum
from typing import List


class OrderingPolicy(enum.Enum):
    """Subgroup processing order policies."""

    #: Ascending IDs every iteration (DeepSpeed ZeRO-3 behaviour).
    SEQUENTIAL = "sequential"
    #: Alternate ascending / descending every update phase (MLP-Offload).
    ALTERNATING = "alternating"


def update_order(
    num_subgroups: int,
    iteration: int,
    policy: OrderingPolicy = OrderingPolicy.ALTERNATING,
) -> List[int]:
    """Return the subgroup processing order for ``iteration``.

    Parameters
    ----------
    num_subgroups:
        Number of subgroups owned by the worker.
    iteration:
        0-based update-phase counter; for :attr:`OrderingPolicy.ALTERNATING`
        even iterations ascend and odd iterations descend, matching the
        paper's description ("in the first iteration ... increasing order of
        IDs ... in the second iteration ... reverse the order").

    The returned list is always a permutation of ``range(num_subgroups)``.
    """
    if num_subgroups < 0:
        raise ValueError("num_subgroups must be non-negative")
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    ascending = list(range(num_subgroups))
    if policy is OrderingPolicy.SEQUENTIAL:
        return ascending
    if policy is OrderingPolicy.ALTERNATING:
        return ascending if iteration % 2 == 0 else ascending[::-1]
    raise ValueError(f"unknown ordering policy {policy!r}")
