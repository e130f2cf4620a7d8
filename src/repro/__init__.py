"""repro — a from-scratch reproduction of MLP-Offload (SC '25).

MLP-Offload is a multi-level, multi-path offloading engine for LLM
pre-training under GPU memory constraints.  This package reimplements the
paper's contribution (the offloading engine) together with every substrate it
depends on — a ZeRO-3-style training runtime stand-in, an asynchronous I/O
engine, memory/storage tier management, and a discrete-event cluster
simulator used to regenerate the paper's evaluation at paper scale.

Top-level subpackages
---------------------
``repro.core``
    The MLP-Offload engine itself: performance-model-driven subgroup
    placement across virtual tiers, cache-friendly update ordering,
    tier-exclusive concurrency control and delayed mixed-precision gradient
    conversion.
``repro.zero``
    The DeepSpeed-ZeRO-3-style baseline offloading engine and the progressive
    ablation variants used in the paper's ablation study.
``repro.tiers``
    Memory/storage tier substrate: tier specifications (Table 1 testbeds),
    file-backed NVMe/PFS stores, the scratch-array pool and the host
    subgroup cache.
``repro.aio``
    Asynchronous I/O engine (libaio / DeepNVMe stand-in): thread-pool async
    reads/writes, bandwidth throttling, process-exclusive locks and
    bandwidth microbenchmarks.
``repro.train``
    LLM training substrate: Table 2 model geometries, subgroup sharding,
    vectorized CPU Adam, FP16 gradient accumulation, parallel topology and a
    functional trainer for end-to-end tests.
``repro.sim``
    Discrete-event simulator reproducing iteration timelines (forward,
    backward, update with overlapped I/O) on the paper's testbeds.
``repro.bench``
    The experiment harness regenerating every table and figure of the
    paper's evaluation section.
"""

from repro._version import __version__

__all__ = ["__version__"]
