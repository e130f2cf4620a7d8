"""Content-addressed checkpoint blob stores.

Checkpoint payloads live in one :class:`~repro.tiers.file_store.FileStore`
per active physical tier, rooted *inside* that tier's directory
(``<tier.path>/_ckpt``).  Keeping the blob store on the same filesystem as
the tier it shadows is what makes "reference, don't copy" possible: a
tier-resident subgroup blob is brought into the checkpoint with a hard link
(:meth:`FileStore.adopt`) — zero data movement — and stays valid even after
the next iteration overwrites the tier's key, because the tier store never
mutates a blob in place.

Keys are content-addressed (:func:`repro.ckpt.manifest.cas_key`: payload
64-bit BLAKE2b digest plus size), so identical payloads are stored once no matter how many
versions or workers reference them, and garbage collection is a simple sweep
of keys no committed manifest references.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.tiers import faultstore
from repro.tiers.file_store import FileStore
from repro.tiers.spec import BlobStore

if TYPE_CHECKING:  # pragma: no cover - break the core <-> ckpt import cycle
    from repro.core.config import MLPOffloadConfig

#: Subdirectory of each tier path holding that tier's checkpoint blobs.
CKPT_SUBDIR = "_ckpt"
#: Prefix of content-addressed blob keys (GC only ever touches these).
CAS_PREFIX = "cas"


def blob_store_roots(config: "MLPOffloadConfig") -> Dict[str, Path]:
    """Blob-store directory per active tier (mirrors the virtual tier's set)."""
    active = config.tiers if config.enable_multipath else (config.primary_tier,)
    return {tier.name: Path(tier.path) / CKPT_SUBDIR for tier in active}


def build_blob_stores(
    config: "MLPOffloadConfig",
    *,
    throttles: Optional[Mapping[str, object]] = None,
) -> Dict[str, BlobStore]:
    """Create the per-tier checkpoint blob stores.

    ``throttles`` should be the same bandwidth-throttle objects driving the
    corresponding tier stores, so checkpoint traffic and training I/O share
    each path's device timeline and the contention between them is real.
    """
    stores: Dict[str, BlobStore] = {}
    for name, root in blob_store_roots(config).items():
        throttle = None
        if throttles is not None:
            throttle = throttles.get(name)  # type: ignore[assignment]
        # Checkpoint blobs ride the same filesystem as the tier they shadow,
        # so they use the same configured raw-I/O backend (resolved per
        # store: each probes its own directory and falls back independently).
        stores[name] = FileStore(root, name=name, throttle=throttle, backend=config.io.backend)
    # Same injection point as the virtual tier's stores: an armed fault plan
    # (chaos tests) covers checkpoint blob traffic too.  No-op otherwise.
    return faultstore.maybe_wrap(stores)
