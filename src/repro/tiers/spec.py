"""Tier and testbed specifications (the paper's Table 1).

A :class:`StorageTierSpec` describes one physical path of the (virtual)
third-level tier: a node-local NVMe device, a remote parallel file system
(PFS), an object store, …  A :class:`NodeSpec` describes one compute node of
a testbed — GPU count and memory, host memory, device↔host bandwidth, CPU
cores, and the storage tiers reachable from that node.

The two testbeds of the paper (Table 1) are provided as module constants:

* ``TESTBED_1`` — ANL JLSE: 4×H100-80GB, 512 GB host memory, 96 cores,
  NVMe 6.9/5.3 GB/s (read/write), VAST PFS 3.6/3.6 GB/s, D↔H 55 GB/s.
* ``TESTBED_2`` — ALCF Polaris: 4×A100-40GB, 512 GB host memory, 32 cores,
  NVMe 13.5/4.8 GB/s, Lustre PFS 6.9/13.7 GB/s, D↔H 25 GB/s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.util.bytesize import GB, GiB

if TYPE_CHECKING:  # pragma: no cover - import is for type checkers only
    import numpy as np


class TierKind(enum.Enum):
    """Classification of a memory or storage tier by level."""

    GPU = "gpu"
    HOST = "host"
    NVME = "nvme"
    PFS = "pfs"
    OBJECT_STORE = "object_store"

    @property
    def is_third_level(self) -> bool:
        """Whether this tier belongs to the third (storage) level."""
        return self in (TierKind.NVME, TierKind.PFS, TierKind.OBJECT_STORE)

    @property
    def is_node_local(self) -> bool:
        """Whether the tier is private to a compute node (not shared across nodes)."""
        return self in (TierKind.GPU, TierKind.HOST, TierKind.NVME)


@dataclass(frozen=True)
class StorageTierSpec:
    """One physical storage path usable as (part of) the third-level tier.

    Attributes
    ----------
    name:
        Unique identifier of the tier (e.g. ``"nvme"``, ``"pfs"``).
    kind:
        The :class:`TierKind` of the tier.
    read_bw:
        Sustained sequential read bandwidth in bytes/second.
    write_bw:
        Sustained sequential write bandwidth in bytes/second.
    capacity:
        Usable capacity in bytes.
    shared_across_nodes:
        ``True`` for external storage (PFS, object stores) whose bandwidth is
        shared by all compute nodes of a job; ``False`` for node-local tiers.
    """

    name: str
    kind: TierKind
    read_bw: float
    write_bw: float
    capacity: float
    shared_across_nodes: bool = False

    def __post_init__(self) -> None:
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ValueError(f"tier {self.name!r} must have positive bandwidths")
        if self.capacity <= 0:
            raise ValueError(f"tier {self.name!r} must have positive capacity")

    @property
    def effective_bw(self) -> float:
        """The bandwidth the performance model uses for this tier.

        The paper (§3.3) defines a tier's bandwidth B_i as the *minimum* of
        its read and write throughput, because every offloaded subgroup must
        be both fetched and flushed each iteration and the slower direction
        dominates steady state.
        """
        return min(self.read_bw, self.write_bw)

    @property
    def round_trip_bw(self) -> float:
        """Harmonic-mean bandwidth of a read-then-write round trip.

        Used when estimating the time to cycle one subgroup through the tier:
        ``2 * size / (size/read_bw + size/write_bw)``.
        """
        return 2.0 / (1.0 / self.read_bw + 1.0 / self.write_bw)

    def scaled(self, factor: float) -> "StorageTierSpec":
        """Return a copy with read/write bandwidth scaled by ``factor``.

        Convenient for modelling degraded tiers (e.g. a PFS under external
        I/O pressure from other jobs).
        """
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return replace(self, read_bw=self.read_bw * factor, write_bw=self.write_bw * factor)


@dataclass(frozen=True)
class NodeSpec:
    """One compute node of a testbed.

    Attributes
    ----------
    name:
        Testbed name (e.g. ``"testbed-1"``).
    gpus_per_node:
        Number of GPUs (= worker processes) per node.
    gpu_memory:
        HBM capacity per GPU, in bytes.
    host_memory:
        DRAM capacity per node, in bytes (shared by all GPUs of the node).
    d2h_bw:
        Pinned device↔host transfer bandwidth per GPU, bytes/second.
    cpu_cores:
        CPU cores per node (drives the CPU-side Adam update throughput).
    cpu_update_throughput:
        Aggregate CPU optimizer-update throughput, in parameters/second,
        when all state is resident in host memory.  The paper reports
        ~8000 Mparams/s on Testbed-1's 96 cores (§4.2).
    fp16_to_fp32_bw:
        CPU throughput of FP16→FP32 up-conversion in bytes/second of FP16
        input (65 GB/s on Testbed-1, §3.2).
    storage:
        Mapping of tier name to :class:`StorageTierSpec` for every
        third-level storage path reachable from this node.
    interconnect_bw:
        Inter-node interconnect bandwidth per node (bytes/second), used by
        the simulator for data/tensor-parallel collectives.
    """

    name: str
    gpus_per_node: int
    gpu_memory: float
    host_memory: float
    d2h_bw: float
    cpu_cores: int
    cpu_update_throughput: float
    fp16_to_fp32_bw: float
    storage: Dict[str, StorageTierSpec] = field(default_factory=dict)
    interconnect_bw: float = 25 * GB

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.gpu_memory <= 0 or self.host_memory <= 0:
            raise ValueError("memory capacities must be positive")
        if self.d2h_bw <= 0 or self.interconnect_bw <= 0:
            raise ValueError("bandwidths must be positive")
        if self.cpu_cores < 1:
            raise ValueError("cpu_cores must be >= 1")
        if self.cpu_update_throughput <= 0 or self.fp16_to_fp32_bw <= 0:
            raise ValueError("CPU throughputs must be positive")

    @property
    def aggregate_gpu_memory(self) -> float:
        """Total HBM across the node's GPUs, in bytes."""
        return self.gpu_memory * self.gpus_per_node

    @property
    def host_to_gpu_memory_ratio(self) -> float:
        """Host DRAM : aggregate GPU HBM ratio (1.6:1 on Testbed-1, 3.2:1 on Testbed-2)."""
        return self.host_memory / self.aggregate_gpu_memory

    def tier(self, name: str) -> StorageTierSpec:
        """Look up a storage tier by name, raising ``KeyError`` with context."""
        try:
            return self.storage[name]
        except KeyError:
            known = ", ".join(sorted(self.storage)) or "<none>"
            raise KeyError(f"node {self.name!r} has no storage tier {name!r} (known: {known})") from None

    def local_tiers(self) -> Tuple[StorageTierSpec, ...]:
        """Third-level tiers that are private to this node (NVMe)."""
        return tuple(t for t in self.storage.values() if not t.shared_across_nodes)

    def shared_tiers(self) -> Tuple[StorageTierSpec, ...]:
        """Third-level tiers shared across nodes (PFS, object stores)."""
        return tuple(t for t in self.storage.values() if t.shared_across_nodes)

    def with_storage(self, *tiers: StorageTierSpec) -> "NodeSpec":
        """Return a copy of this node with ``storage`` replaced by ``tiers``."""
        return replace(self, storage={t.name: t for t in tiers})


@runtime_checkable
class BlobStore(Protocol):
    """The formal key→array blob-store surface every tier store provides.

    This is the contract :class:`~repro.aio.engine.AsyncIOEngine`,
    :class:`~repro.core.virtual_tier.VirtualTier` and :mod:`repro.ckpt` are
    typed against — previously an *implicit* interface that four
    implementations (:class:`~repro.tiers.file_store.FileStore`,
    ``StripedStore``, ``FaultInjectingStore``, the ckpt CAS stores)
    happened to share.  ``FileStore``-family stores declare
    conformance by subclassing; proxy stores like ``FaultInjectingStore``
    conform structurally (subclassing would let the protocol's placeholder
    bodies shadow their ``__getattr__`` delegation).  The shared behavioural
    contract — error types, zero-copy ownership rules, atomic-replace
    visibility — is pinned by the parametrized conformance suite in
    ``tests/unit/test_blobstore_conformance.py``, which every implementation
    must pass.

    Blob semantics (see :mod:`repro.tiers.file_store` for the reference
    implementation): keys map to immutable serialized arrays; writes are
    atomic last-writer-wins; missing keys raise the store's ``StoreError``;
    ``load_into``/``load_into_chunks`` fill caller-owned buffers with zero
    intermediate copies; ``adopt`` ingests an existing blob file by
    hard-link/copy; ``used_bytes`` is the store's current on-tier footprint.
    """

    #: Tier name used in diagnostics and engine stats keys.
    name: str

    def save_from(self, key: str, array: "np.ndarray") -> int: ...

    def load_into(self, key: str, out: "np.ndarray") -> "np.ndarray": ...

    def load_into_chunks(
        self, key: str, out: "np.ndarray", *, chunk_bytes: int = 1 << 20, hasher=None
    ) -> "np.ndarray": ...

    def adopt(self, key: str, source_path, *, checksum: Optional[int] = None) -> int: ...

    def meta_of(self, key: str) -> Tuple["np.dtype", Tuple[int, ...]]: ...

    def path_of(self, key: str): ...

    def delete(self, key: str) -> None: ...

    def contains(self, key: str) -> bool: ...

    def keys(self) -> Iterator[str]: ...

    @property
    def used_bytes(self) -> int: ...


@dataclass(frozen=True)
class StripeExtent:
    """One contiguous element range of a striped field, bound to one path.

    Attributes
    ----------
    index:
        Stripe ordinal within the field (``0 .. nstripes-1``); stripes are
        contiguous and ordered, so concatenating them in index order
        reconstructs the field.
    path:
        Index of the physical path (tier) that holds this stripe.
    start:
        Element offset of the stripe within the flat field.
    count:
        Number of elements in the stripe (always positive — zero-length
        stripes are never emitted).
    """

    index: int
    path: int
    start: int
    count: int

    def __post_init__(self) -> None:
        if self.index < 0 or self.path < 0 or self.start < 0:
            raise ValueError("stripe index/path/start must be non-negative")
        if self.count < 0:
            raise ValueError("stripe count must be non-negative")

    @property
    def stop(self) -> int:
        """Exclusive end offset (``start + count``)."""
        return self.start + self.count


def _aligned_counts(counts: Sequence[int], align_elems: int, num_elements: int) -> list:
    """Round per-path element counts down to ``align_elems`` multiples.

    The rounding remainder (including any unaligned tail of the field) is
    routed to the **last path that had a positive share**, so every stripe
    boundary except possibly the final one stays aligned and — critically —
    zero-share paths (dead/quarantined, weight 0) never gain elements, which
    the degraded-path failover semantics rely on.
    """
    aligned = [(c // align_elems) * align_elems for c in counts]
    leftover = num_elements - sum(aligned)
    if leftover:
        for i in range(len(aligned) - 1, -1, -1):
            if counts[i] > 0:
                aligned[i] += leftover
                break
    return aligned


def plan_stripes(
    num_elements: int,
    itemsize: int,
    *,
    num_paths: int,
    threshold_bytes: float = 0.0,
    stripe_bytes: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    align_bytes: int = 1,
) -> Tuple[StripeExtent, ...]:
    """Split a flat field of ``num_elements`` into per-path stripe extents.

    The returned extents are contiguous, ordered, cover exactly
    ``[0, num_elements)`` and never include a zero-length stripe.  A plan of
    length 1 means "do not stripe" — the field stays a single whole blob.

    Parameters
    ----------
    num_elements / itemsize:
        Geometry of the flat field (its payload is ``num_elements * itemsize``
        bytes).
    num_paths:
        Number of physical paths available for striping.  With a single path
        the plan degenerates to one whole-field extent, which callers store
        byte-for-byte identically to the unstriped baseline.
    threshold_bytes:
        Fields whose payload is *below* this size are not worth the extra
        per-stripe latency; they yield a single whole-field extent.
    stripe_bytes:
        Optional stripe granularity.  When given, the field is chopped into
        fixed-size chunks (rounded down to whole elements, minimum one
        element) assigned round-robin to paths — the stripe count may then
        exceed the path count.  When omitted, exactly one stripe per path is
        produced (equal split, or bandwidth-proportional with ``weights``).
    weights:
        Optional per-path bandwidth weights (e.g. the adaptive estimator's
        current estimates).  Stripe sizes are made proportional to the
        weights via largest-remainder rounding, so all paths are expected to
        finish their stripe at the same time (the Equation 1 principle
        applied *within* a field).  Paths whose share rounds to zero receive
        no stripe.  Mutually exclusive with ``stripe_bytes``.
    align_bytes:
        When > 1, stripe boundaries are placed on multiples of this many
        **bytes** (the O_DIRECT file-offset contract — stores pass their
        backend's alignment so each stripe blob's payload extent is
        block-addressable).  Internally the constraint is lifted to elements
        via ``lcm(align_bytes, itemsize)``; per-path shares are rounded down
        to that granule and the remainder rides on the last positive-share
        path, so only the final extent may be unaligned in length (the file
        tail always is, for odd payloads) while every *start* stays aligned.
        Alignment never *reduces* fan-out: a field too small to hand every
        engaged path a whole aligned block keeps its unaligned split (raw
        backends bounce-buffer such reads, so this costs correctness
        nothing).  ``1`` (the default) reproduces the historical byte-exact
        plans.
    """
    if num_elements < 0:
        raise ValueError("num_elements must be non-negative")
    if itemsize < 1:
        raise ValueError("itemsize must be >= 1")
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    if threshold_bytes < 0:
        raise ValueError("threshold_bytes must be non-negative")
    if stripe_bytes is not None and weights is not None:
        raise ValueError("stripe_bytes and weights are mutually exclusive")
    if stripe_bytes is not None and stripe_bytes < 1:
        raise ValueError("stripe_bytes must be >= 1 when given")
    if align_bytes < 1:
        raise ValueError("align_bytes must be >= 1")
    align_elems = math.lcm(align_bytes, itemsize) // itemsize if align_bytes > 1 else 1

    nbytes = num_elements * itemsize
    if num_paths == 1 or num_elements == 0 or nbytes < threshold_bytes:
        return (StripeExtent(index=0, path=0, start=0, count=num_elements),)

    if weights is not None:
        if len(weights) != num_paths:
            raise ValueError(f"expected {num_paths} weights, got {len(weights)}")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        # Largest-remainder apportionment of the element count.
        exact = [num_elements * w / total for w in weights]
        counts = [int(x) for x in exact]
        remainders = sorted(
            range(num_paths), key=lambda i: (exact[i] - counts[i], weights[i]), reverse=True
        )
        for i in range(num_elements - sum(counts)):
            counts[remainders[i % num_paths]] += 1
        if align_elems > 1:
            aligned = _aligned_counts(counts, align_elems, num_elements)
            # Alignment is an optimization (O_DIRECT reads fall back to
            # bounce buffers for unaligned extents), so it must never
            # *reduce* fan-out: a field too small to give every engaged
            # path a whole aligned block keeps its unaligned split.
            if all(a > 0 or c == 0 for a, c in zip(aligned, counts)):
                counts = aligned
        extents = []
        start = 0
        for path, count in enumerate(counts):
            if count == 0:
                continue  # a path with (near-)zero weight gets no stripe
            extents.append(StripeExtent(index=len(extents), path=path, start=start, count=count))
            start += count
        return tuple(extents)

    if stripe_bytes is None:
        chunk = math.ceil(num_elements / num_paths)
    else:
        chunk = max(1, stripe_bytes // itemsize)
    if align_elems > 1:
        # Round the granule *up* so chunk starts stay aligned; the tail
        # chunk absorbs whatever is left (possibly unaligned in length).
        # Same never-reduce-fan-out rule as the weighted branch: keep the
        # unaligned granule when rounding up would idle engaged paths.
        aligned_chunk = -(-chunk // align_elems) * align_elems
        if math.ceil(num_elements / aligned_chunk) >= min(
            num_paths, math.ceil(num_elements / chunk)
        ):
            chunk = aligned_chunk
    extents = []
    start = 0
    while start < num_elements:
        count = min(chunk, num_elements - start)
        extents.append(
            StripeExtent(index=len(extents), path=len(extents) % num_paths, start=start, count=count)
        )
        start += count
    return tuple(extents)


def degraded_weights(
    weights: Sequence[float], healthy: Sequence[bool]
) -> Tuple[float, ...]:
    """Mask Equation-1 bandwidth weights down to the surviving paths.

    Zeroes the weight of every quarantined path so :func:`plan_stripes`
    routes its share onto the survivors.  Guarantees the result is valid for
    ``plan_stripes`` (at least one positive weight) whenever *any* path is
    healthy: if every healthy path's estimated weight is zero — the
    estimator has no signal yet, or only zero-weight paths survived — the
    healthy paths fall back to an equal split.  With *no* healthy path the
    weights are returned unmasked: the caller is already past graceful
    degradation and should surface a typed error, not crash apportionment.
    """
    if len(weights) != len(healthy):
        raise ValueError(f"expected {len(weights)} health flags, got {len(healthy)}")
    if not any(healthy):
        return tuple(float(w) for w in weights)
    masked = tuple(float(w) if ok else 0.0 for w, ok in zip(weights, healthy))
    if sum(masked) > 0:
        return masked
    return tuple(1.0 if ok else 0.0 for ok in healthy)


def _make_testbed_1() -> NodeSpec:
    nvme = StorageTierSpec(
        name="nvme",
        kind=TierKind.NVME,
        read_bw=6.9 * GB,
        write_bw=5.3 * GB,
        capacity=3.2e12,  # 2x RAID-mounted 1.6 TB NVMe M2 SSDs
        shared_across_nodes=False,
    )
    pfs = StorageTierSpec(
        name="pfs",
        kind=TierKind.PFS,
        read_bw=3.6 * GB,
        write_bw=3.6 * GB,
        capacity=1e15,  # 1 PB VAST
        shared_across_nodes=True,
    )
    return NodeSpec(
        name="testbed-1",
        gpus_per_node=4,
        gpu_memory=80 * GiB,
        host_memory=512 * GiB,
        d2h_bw=55 * GB,
        cpu_cores=96,
        cpu_update_throughput=8000e6,
        fp16_to_fp32_bw=65 * GB,
        storage={"nvme": nvme, "pfs": pfs},
        interconnect_bw=25 * GB,
    )


def _make_testbed_2() -> NodeSpec:
    nvme = StorageTierSpec(
        name="nvme",
        kind=TierKind.NVME,
        read_bw=13.5 * GB,
        write_bw=4.8 * GB,
        capacity=3.2e12,
        shared_across_nodes=False,
    )
    pfs = StorageTierSpec(
        name="pfs",
        kind=TierKind.PFS,
        read_bw=6.9 * GB,
        write_bw=13.7 * GB,
        capacity=100e15,  # 100 PB ClusterStor E1000
        shared_across_nodes=True,
    )
    return NodeSpec(
        name="testbed-2",
        gpus_per_node=4,
        gpu_memory=40 * GiB,
        host_memory=512 * GiB,
        d2h_bw=25 * GB,
        cpu_cores=32,
        # fewer cores than Testbed-1 -> proportionally lower CPU Adam throughput
        cpu_update_throughput=8000e6 * 32 / 96,
        fp16_to_fp32_bw=40 * GB,
        storage={"nvme": nvme, "pfs": pfs},
        interconnect_bw=25 * GB,
    )


#: Table 1, left column: ANL JLSE node with 4×H100-80GB.
TESTBED_1: NodeSpec = _make_testbed_1()

#: Table 1, right column: ALCF Polaris node with 4×A100-40GB.
TESTBED_2: NodeSpec = _make_testbed_2()

_TESTBEDS: Dict[str, NodeSpec] = {
    "testbed-1": TESTBED_1,
    "testbed-2": TESTBED_2,
}


def testbed_by_name(name: str) -> NodeSpec:
    """Return a testbed node spec by name (``"testbed-1"`` or ``"testbed-2"``)."""
    key = name.strip().lower()
    if key not in _TESTBEDS:
        raise KeyError(f"unknown testbed {name!r}; known: {sorted(_TESTBEDS)}")
    return _TESTBEDS[key]
