"""ZeRO-3 sharding: ranks → model shards → subgroups.

ZeRO-3 partitions model parameters, gradients and optimizer state across the
data-parallel ranks; each rank's shard is further decomposed into fixed-size
*subgroups* (DeepSpeed's ``sub_group_size``) that are the unit of offloading,
prefetching and CPU update (§2, "Sharded Model and Optimizer States Into
Subgroups").

The layout computed here is purely index arithmetic — which global parameter
interval belongs to which rank and subgroup — shared by the functional engine
(which materializes NumPy slices per subgroup) and the simulator (which only
needs sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.train.model_zoo import FP16_GRAD_BYTES, OPTIMIZER_STATE_BYTES

#: DeepSpeed's default subgroup size (parameters per subgroup).
DEFAULT_SUBGROUP_SIZE = 1_000_000_000
#: The subgroup size the paper uses for all evaluated approaches (§4.1).
PAPER_SUBGROUP_SIZE = 100_000_000
#: The FP32 arrays making up one subgroup's offloaded optimizer state.
STATE_FIELDS = ("params", "exp_avg", "exp_avg_sq")
#: Additional field carried by the baseline policy (FP32 gradients on disk).
GRAD_FIELD = "grad_fp32"


@dataclass(frozen=True)
class Subgroup:
    """One subgroup of a rank's shard.

    Attributes
    ----------
    rank:
        Owning data-parallel rank.
    index:
        Subgroup index within the rank (0-based; the "subgroup ID" whose
        processing order MLP-Offload permutes).
    global_start / global_stop:
        Half-open interval of global flat parameter indices covered.
    """

    rank: int
    index: int
    global_start: int
    global_stop: int

    def __post_init__(self) -> None:
        if self.global_stop <= self.global_start:
            raise ValueError("subgroup must cover at least one parameter")
        if self.rank < 0 or self.index < 0:
            raise ValueError("rank and index must be non-negative")

    @property
    def num_params(self) -> int:
        return self.global_stop - self.global_start

    @property
    def optimizer_state_bytes(self) -> int:
        """Bytes of FP32 params+momentum+variance for this subgroup."""
        return self.num_params * OPTIMIZER_STATE_BYTES

    @property
    def fp16_gradient_bytes(self) -> int:
        return self.num_params * FP16_GRAD_BYTES

    @property
    def key(self) -> str:
        """Stable storage key for this subgroup's offloaded state."""
        return f"rank{self.rank}-sg{self.index:05d}"


@dataclass(frozen=True)
class ShardLayout:
    """Sharding of a model's flat parameter space across ranks and subgroups."""

    total_params: int
    num_ranks: int
    subgroup_size: int
    rank_intervals: Tuple[Tuple[int, int], ...]
    subgroups: Tuple[Subgroup, ...]

    @property
    def num_subgroups(self) -> int:
        return len(self.subgroups)

    def subgroups_for_rank(self, rank: int) -> List[Subgroup]:
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} out of range for {self.num_ranks} ranks")
        return [sg for sg in self.subgroups if sg.rank == rank]

    def rank_params(self, rank: int) -> int:
        start, stop = self.rank_intervals[rank]
        return stop - start

    def max_subgroups_per_rank(self) -> int:
        counts: Dict[int, int] = {}
        for sg in self.subgroups:
            counts[sg.rank] = counts.get(sg.rank, 0) + 1
        return max(counts.values()) if counts else 0

    def validate(self) -> None:
        """Internal consistency checks (used by tests and property checks)."""
        covered = 0
        for rank, (start, stop) in enumerate(self.rank_intervals):
            if stop < start:
                raise ValueError(f"rank {rank} has negative-size interval")
            covered += stop - start
            rank_subgroups = self.subgroups_for_rank(rank)
            if stop > start:
                if not rank_subgroups:
                    raise ValueError(f"rank {rank} owns parameters but no subgroups")
                if rank_subgroups[0].global_start != start or rank_subgroups[-1].global_stop != stop:
                    raise ValueError(f"rank {rank} subgroups do not tile its interval")
                for prev, cur in zip(rank_subgroups, rank_subgroups[1:]):
                    if prev.global_stop != cur.global_start:
                        raise ValueError(f"rank {rank} subgroups are not contiguous")
        if covered != self.total_params:
            raise ValueError(
                f"rank intervals cover {covered} parameters, expected {self.total_params}"
            )


def build_shard_layout(
    total_params: int,
    num_ranks: int,
    subgroup_size: int = PAPER_SUBGROUP_SIZE,
) -> ShardLayout:
    """Partition ``total_params`` across ``num_ranks`` ranks and fixed-size subgroups.

    Parameters are split as evenly as possible across ranks (the first
    ``total_params % num_ranks`` ranks receive one extra parameter), and each
    rank's interval is cut into subgroups of at most ``subgroup_size``
    parameters, the last one possibly smaller.
    """
    if total_params < 1:
        raise ValueError("total_params must be >= 1")
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if subgroup_size < 1:
        raise ValueError("subgroup_size must be >= 1")

    base = total_params // num_ranks
    remainder = total_params % num_ranks
    intervals: List[Tuple[int, int]] = []
    cursor = 0
    for rank in range(num_ranks):
        size = base + (1 if rank < remainder else 0)
        intervals.append((cursor, cursor + size))
        cursor += size

    subgroups: List[Subgroup] = []
    for rank, (start, stop) in enumerate(intervals):
        rank_params = stop - start
        if rank_params == 0:
            continue
        count = math.ceil(rank_params / subgroup_size)
        for index in range(count):
            sg_start = start + index * subgroup_size
            sg_stop = min(sg_start + subgroup_size, stop)
            subgroups.append(
                Subgroup(rank=rank, index=index, global_start=sg_start, global_stop=sg_stop)
            )

    layout = ShardLayout(
        total_params=total_params,
        num_ranks=num_ranks,
        subgroup_size=subgroup_size,
        rank_intervals=tuple(intervals),
        subgroups=tuple(subgroups),
    )
    layout.validate()
    return layout


def flat_views(array, layout: ShardLayout, rank: int) -> Dict[int, "slice"]:
    """Return ``{subgroup_index: slice}`` into a *rank-local* flat array.

    The functional engine stores each rank's shard as one contiguous flat
    array; this helper maps subgroup indices onto slices of that array.
    """
    start, _stop = layout.rank_intervals[rank]
    views: Dict[int, slice] = {}
    for sg in layout.subgroups_for_rank(rank):
        views[sg.index] = slice(sg.global_start - start, sg.global_stop - start)
    return views
