"""Memory and storage tier substrate.

The paper's offloading engine spans three levels:

1. GPU HBM (FP16 model parameters, activations, one subgroup of FP16 grads),
2. host DRAM (pinned I/O buffers, gradient accumulation, cached subgroups),
3. "third-level" storage — node-local NVMe and, with MLP-Offload, remote
   parallel file systems (PFS) / object stores unified into a virtual tier.

This subpackage provides the descriptors for those tiers (including the
paper's Table 1 testbeds), a file-backed store used for real offloading in
functional mode, the striped store, a size-classed scratch-array pool and the
host subgroup cache.
"""

from repro.tiers.spec import (
    TESTBED_1,
    TESTBED_2,
    NodeSpec,
    StorageTierSpec,
    StripeExtent,
    TierKind,
    degraded_weights,
    plan_stripes,
    testbed_by_name,
)
from repro.tiers.array_pool import ArrayPool, ArrayPoolStats, scatter_views
from repro.tiers.striped_store import DegradedReadError, StripedStore, StripePart
from repro.tiers.faultstore import (
    FaultInjectingStore,
    FaultPlan,
    FaultRule,
    arm_faults,
    clear_faults,
)
from repro.tiers.file_store import FileStore, StoreError, TruncatedBlobError, blob_nbytes
from repro.tiers.host_cache import CacheEntry, HostSubgroupCache

__all__ = [
    "ArrayPool",
    "ArrayPoolStats",
    "scatter_views",
    "StripedStore",
    "StripePart",
    "StripeExtent",
    "DegradedReadError",
    "FaultInjectingStore",
    "FaultPlan",
    "FaultRule",
    "arm_faults",
    "clear_faults",
    "degraded_weights",
    "plan_stripes",
    "blob_nbytes",
    "TruncatedBlobError",
    "TierKind",
    "StorageTierSpec",
    "NodeSpec",
    "TESTBED_1",
    "TESTBED_2",
    "testbed_by_name",
    "FileStore",
    "StoreError",
    "HostSubgroupCache",
    "CacheEntry",
]
