"""Configuration of the MLP-Offload engine.

The paper integrates with DeepSpeed through "two JSON key-value pairs" in the
runtime configuration (§3.5): the list of offload directories (with an
optional subgroup split ratio such as ``2:1`` between ``/local/`` and
``/remote/``) and the per-tier host-buffer budget.  The configuration classes
below capture that surface, plus a switch for each individual design
principle; the functional ablation variants (:mod:`repro.zero.variants`)
toggle them one by one.  Figures 14–15 themselves come from the simulator's
``ablation_*`` sweep matrices (:mod:`repro.sweep.matrix`), not from this
config.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.train.adam import AdamConfig
from repro.train.sharding import PAPER_SUBGROUP_SIZE
from repro.util.bytesize import parse_bytes


@dataclass(frozen=True)
class TierConfig:
    """One physical storage path of the virtual third-level tier.

    Attributes
    ----------
    name:
        Tier identifier (``"nvme"``, ``"pfs"``, …).
    path:
        Directory backing the tier in functional mode.
    read_bw / write_bw:
        Optional bandwidth hints in bytes/second.  When omitted the engine
        measures them with microbenchmarks before the first iteration (§3.3).
    ratio:
        Optional user-specified share in the subgroup split (the ``2`` of a
        ``2:1`` split).  Ratios, when present on every tier, override the
        measured-bandwidth allocation.
    """

    name: str
    path: str
    read_bw: Optional[float] = None
    write_bw: Optional[float] = None
    ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        for label, value in (("read_bw", self.read_bw), ("write_bw", self.write_bw)):
            if value is not None and value <= 0:
                raise ValueError(f"{label} must be positive when given")
        if self.ratio is not None and self.ratio <= 0:
            raise ValueError("ratio must be positive when given")

    @property
    def effective_bw(self) -> Optional[float]:
        """min(read, write) when both hints are present, else ``None``."""
        if self.read_bw is None or self.write_bw is None:
            return None
        return min(self.read_bw, self.write_bw)


@dataclass(frozen=True)
class IOBackendConfig:
    """How tier blobs reach the device: raw-I/O backend, alignment, retries.

    Groups every knob of the read/write *mechanism* (as opposed to data
    placement, which is :class:`StripeConfig`'s concern).  Lives on
    :attr:`MLPOffloadConfig.io`.
    """

    #: I/O backend per tier store: ``"auto"`` probes ``odirect`` ->
    #: ``thread`` per filesystem and takes the first that works; a concrete
    #: name starts the fallback chain at that backend.
    #: See :mod:`repro.aio.backends`.
    backend: str = "auto"
    #: Alignment (bytes) for O_DIRECT-class backends: pool buffers, bounce
    #: buffers and stripe extents are padded to multiples of this.  Must be
    #: a power of two; 4096 covers every mainstream filesystem.
    alignment_bytes: int = 4096
    #: Total tries the async engine gives each tier I/O request (1 = no
    #: retry).  Transient failures (EIO-class errnos, torn-blob reads) are
    #: retried with deterministic exponential backoff before an error ever
    #: surfaces; fatal failures (ENOSPC, malformed blobs) fail fast.
    retry_attempts: int = 3
    #: Base backoff before the second attempt; doubles per further attempt
    #: (capped at 100 ms).
    retry_backoff_seconds: float = 0.002
    #: Per-request wall-clock budget across all attempts (0 = unbounded).
    #: Once exceeded, the request fails with ``timed_out`` set instead of
    #: retrying against a hung path forever.
    deadline_seconds: float = 0.0

    def __post_init__(self) -> None:
        from repro.aio import backends  # local: keep config importable standalone

        choices = backends.backend_choices()
        if self.backend not in choices:
            raise ValueError(f"unknown io backend {self.backend!r}; known: {list(choices)}")
        if self.alignment_bytes < 1 or self.alignment_bytes & (self.alignment_bytes - 1):
            raise ValueError("alignment_bytes must be a power of two >= 1")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1 (1 = no retry)")
        if self.retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be non-negative")
        if self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative (0 = unbounded)")


@dataclass(frozen=True)
class StripeConfig:
    """Multi-path striping of large fields across the physical tiers.

    Lives on :attr:`MLPOffloadConfig.stripe`.
    """

    #: Stripe large fields across the physical paths so one fetch streams
    #: from NVMe and PFS *simultaneously*, aggregating their read bandwidth
    #: (the multi-path ablation flag; off = every field lives whole on its
    #: placed tier).  Requires ``enable_multipath`` and >= 2 tiers to have
    #: any effect; results are bitwise-identical either way.
    enabled: bool = True
    #: Fields with payloads below this many bytes are never striped — the
    #: per-stripe operation latency would outweigh the bandwidth gain.
    threshold_bytes: float = float(1 << 20)
    #: Number of paths to stripe across (``0`` = all configured tiers).  A
    #: value of 1 degenerates striping into the unstriped baseline
    #: byte-for-byte.
    paths: int = 0

    def __post_init__(self) -> None:
        if self.threshold_bytes < 0:
            raise ValueError("stripe threshold_bytes must be non-negative")
        if self.paths < 0:
            raise ValueError("stripe paths must be non-negative (0 = all tiers)")


#: JSON keys of :meth:`MLPOffloadConfig.to_json` that differ from the field
#: name they carry (and the inverse map, field name to JSON key).
_JSON_KEY_FIELDS = {
    "multipath": "enable_multipath",
    "tier_locks": "enable_tier_locks",
    "cache_reorder": "enable_cache_reorder",
    "delayed_grad_conversion": "enable_delayed_grad_conversion",
}
_FIELD_JSON_KEYS = {name: key for key, name in _JSON_KEY_FIELDS.items()}


@dataclass(frozen=True)
class MLPOffloadConfig:
    """Full configuration of the MLP-Offload engine.

    The four ``enable_*`` switches correspond one-to-one to the paper's
    design principles; disabling all of them (and keeping a single tier)
    degenerates the engine into the DeepSpeed ZeRO-3 baseline behaviour.
    """

    tiers: Tuple[TierConfig, ...]
    subgroup_size: int = PAPER_SUBGROUP_SIZE
    #: Host bytes available for caching subgroups between iterations.
    host_cache_bytes: float = 0.0
    #: Design principle 1: split subgroups across all tiers (multi-path).
    enable_multipath: bool = True
    #: Design principle 2: node-level tier-exclusive concurrency control.
    enable_tier_locks: bool = True
    #: Design principle 3: alternate ascending/descending update order.
    enable_cache_reorder: bool = True
    #: Design principle 4: keep FP16 grads on host, convert at update time.
    enable_delayed_grad_conversion: bool = True
    #: I/O mechanism knobs (raw backend, alignment, retries);
    #: see :class:`IOBackendConfig`.
    io: IOBackendConfig = field(default_factory=IOBackendConfig)
    #: Multi-path striping knobs; see :class:`StripeConfig`.
    stripe: StripeConfig = field(default_factory=StripeConfig)
    #: Directory receiving checkpoint manifests; ``None`` disables the
    #: :mod:`repro.ckpt` subsystem.  Blob payloads live in per-tier
    #: content-addressed stores next to the offloaded state (see
    #: ``docs/architecture.md``), so tier-resident subgroups checkpoint by
    #: hard link instead of by copy.
    checkpoint_dir: Optional[str] = None
    #: Take a checkpoint every N update phases (used by
    #: :meth:`~repro.core.engine.OffloadEngineBase.maybe_checkpoint`).
    checkpoint_interval: int = 1
    #: Number of committed checkpoint versions retained per worker; older
    #: versions (and blobs no manifest references) are garbage-collected
    #: after each commit.
    checkpoint_retention: int = 2
    #: Codec applied to *staged* checkpoint payloads (dirty residue + FP16
    #: working copy) as the drain thread writes them: ``"raw"`` (the
    #: default) stores plain blobs, ``"null"`` writes frames with identity
    #: chunks (the framing-cost ablation), ``"shuffle-deflate"``
    #: byte-shuffles and block-compresses each chunk.  Optimizer state
    #: compresses only ~1.17x, and the encode runs at ~25-30 MB/s per core,
    #: so encoding saves write time only on a store slower than ~4 MB/s;
    #: choose ``"shuffle-deflate"`` where stored or uploaded bytes cost more
    #: than drain CPU (a registry push uploads the stored frames).
    #: Hard-linked tier-resident blobs are never re-encoded — they move zero
    #: bytes either way.  Content addressing keys on the *uncompressed*
    #: digest, so delta dedup is codec-independent.
    checkpoint_codec: str = "raw"
    #: Coordinate checkpoint commits across data-parallel ranks: each rank's
    #: drain publishes a *prepared* manifest and a lock-file-elected
    #: coordinator promotes a version to a global ``GLOBAL-<v>.json`` commit
    #: record only once every registered rank's manifest landed
    #: (:mod:`repro.ckpt.coordinator`).  Restart then resolves the newest
    #: *global* version — one consistent cut across all ranks — instead of
    #: each rank's newest private manifest.  Off = the per-worker independent
    #: commits (and restart cuts) of PR 3/4.
    checkpoint_coordination: bool = False
    #: Number of data-parallel ranks sharing ``checkpoint_dir`` (the workers
    #: a global commit must collect: ``rank0 … rank{N-1}``).  ``0`` derives
    #: the world size from the engine's shard layout.
    checkpoint_world_size: int = 0
    #: Age after which an *unreadable* (torn) ``GLOBAL.lock`` is considered
    #: stale and broken by the next election.  A readable lock is broken as
    #: soon as its owning pid is dead, and never while the owner is alive —
    #: a slow GC must not admit a second promoter.
    checkpoint_lock_stale_seconds: float = 30.0
    #: Base URL of a checkpoint registry service (``http://host:port``,
    #: :mod:`repro.registry`).  When set, the writer pushes every committed
    #: version to the registry (cross-job blob dedup means only new payloads
    #: travel) and a restore with an *empty* local checkpoint dir pulls the
    #: latest registry checkpoint down before restoring locally.  ``None``
    #: (the default) keeps checkpointing purely local.
    checkpoint_registry_url: Optional[str] = None
    #: Tenant namespace this job's manifests live under at the registry.
    #: Jobs sharing a tenant share retention; *all* jobs share the blob vault.
    checkpoint_registry_tenant: str = "default"
    #: Adam hyper-parameters for the CPU update.
    adam: AdamConfig = field(default_factory=AdamConfig)
    #: Re-estimate tier bandwidths from observed I/O after each iteration.
    adaptive_bandwidth: bool = True
    #: EWMA smoothing factor for the adaptive bandwidth estimate.
    bandwidth_smoothing: float = 0.5
    #: Consecutive *fatal* engine failures after which a physical path is
    #: quarantined — flushes and prefetch plans re-route onto the surviving
    #: paths until a recovery probe succeeds.  Must be >= 1.
    path_quarantine_failures: int = 3
    #: Update phases between recovery probes of a quarantined path (a small
    #: write+read+delete round trip; success re-admits the path).
    path_probe_interval: int = 8

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier must be configured")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in {names}")
        if self.subgroup_size < 1:
            raise ValueError("subgroup_size must be >= 1")
        if self.host_cache_bytes < 0:
            raise ValueError("host_cache_bytes must be non-negative")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.checkpoint_retention < 1:
            raise ValueError("checkpoint_retention must be >= 1")
        if self.checkpoint_world_size < 0:
            raise ValueError("checkpoint_world_size must be >= 0 (0 = derive from layout)")
        if self.checkpoint_lock_stale_seconds <= 0:
            raise ValueError("checkpoint_lock_stale_seconds must be positive")
        if self.checkpoint_registry_url is not None and not self.checkpoint_registry_url.startswith(
            "http://"
        ):
            raise ValueError("checkpoint_registry_url must be an http:// URL")
        if not re.match(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$", self.checkpoint_registry_tenant):
            raise ValueError(
                f"checkpoint_registry_tenant {self.checkpoint_registry_tenant!r} must be a "
                f"short name ([A-Za-z0-9._-], no leading separator)"
            )
        from repro.codec import codec_names

        if self.checkpoint_codec not in codec_names():
            raise ValueError(
                f"unknown checkpoint_codec {self.checkpoint_codec!r}; "
                f"known: {list(codec_names())}"
            )
        if not 0.0 < self.bandwidth_smoothing <= 1.0:
            raise ValueError("bandwidth_smoothing must be in (0, 1]")
        if self.path_quarantine_failures < 1:
            raise ValueError("path_quarantine_failures must be >= 1")
        if self.path_probe_interval < 1:
            raise ValueError("path_probe_interval must be >= 1")

    # -- convenience accessors -------------------------------------------

    @property
    def tier_names(self) -> List[str]:
        return [t.name for t in self.tiers]

    @property
    def primary_tier(self) -> TierConfig:
        """The first configured tier (used exclusively when multipath is off)."""
        return self.tiers[0]

    def tier(self, name: str) -> TierConfig:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise KeyError(f"no tier named {name!r}; known: {self.tier_names}")

    @property
    def checkpoint_enabled(self) -> bool:
        """Whether the :mod:`repro.ckpt` subsystem is configured."""
        return self.checkpoint_dir is not None

    @property
    def checkpoint_coordinated(self) -> bool:
        """Whether global (multi-rank) checkpoint commits are active."""
        return self.checkpoint_enabled and self.checkpoint_coordination

    def checkpoint_workers(self, layout_ranks: int = 1) -> Tuple[str, ...]:
        """The worker registry a global commit must collect.

        ``checkpoint_world_size`` wins when set; ``0`` (the default) derives
        the world from the shard layout driving the engine, so in-process
        multi-rank setups need no extra configuration.
        """
        world = self.checkpoint_world_size or max(1, int(layout_ranks))
        return tuple(f"rank{rank}" for rank in range(world))

    def stripe_fanout(self) -> int:
        """Number of paths striped reads will fan out across (1 = no striping).

        Used both by the virtual tier (which paths to stripe over) and by the
        engine to size the submission queue so a full prefetch window of
        per-stripe requests never blocks on back-pressure.
        """
        if not (self.stripe.enabled and self.enable_multipath):
            return 1
        available = len(self.tiers)
        paths = available if self.stripe.paths == 0 else min(self.stripe.paths, available)
        return max(1, paths)

    def explicit_ratios(self) -> Optional[Dict[str, float]]:
        """User-specified split ratios if *every* tier declares one, else ``None``."""
        if all(t.ratio is not None for t in self.tiers):
            return {t.name: float(t.ratio) for t in self.tiers}  # type: ignore[arg-type]
        return None

    def bandwidth_hints(self) -> Dict[str, float]:
        """Bandwidth hints for tiers that declare both read and write speeds."""
        hints: Dict[str, float] = {}
        for tier in self.tiers:
            bw = tier.effective_bw
            if bw is not None:
                hints[tier.name] = bw
        return hints

    # -- (de)serialization -------------------------------------------------

    def to_json(self) -> str:
        """Serialize to the JSON shape used in the DeepSpeed-style config block.

        Every dataclass field is written under its JSON key
        (``_JSON_KEY_FIELDS``); unset optional tier attributes are omitted.
        """
        block: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "tiers":
                value = [{k: v for k, v in asdict(t).items() if v is not None} for t in value]
            elif is_dataclass(value):
                value = asdict(value)
            block[_FIELD_JSON_KEYS.get(f.name, f.name)] = value
        return json.dumps({"mlp_offload": block}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MLPOffloadConfig":
        """Parse a configuration previously produced by :meth:`to_json`.

        A key absent from the block takes the dataclass default; a key that
        names no field (an option since deleted) is ignored.
        """
        payload = json.loads(text)
        if "mlp_offload" not in payload:
            raise ValueError("missing top-level 'mlp_offload' key")
        block = payload["mlp_offload"]
        names = {f.name for f in fields(cls)}
        renamed = {_JSON_KEY_FIELDS.get(key, key): value for key, value in block.items()}
        kwargs = {name: value for name, value in renamed.items() if name in names}
        kwargs["tiers"] = tuple(TierConfig(**t) for t in block.get("tiers", []))
        if "host_cache_bytes" in kwargs:
            kwargs["host_cache_bytes"] = parse_bytes(kwargs["host_cache_bytes"])
        if "io" in block:
            kwargs["io"] = IOBackendConfig(**block["io"])
        if "stripe" in block:
            stripe = dict(block["stripe"])
            if "threshold_bytes" in stripe:
                stripe["threshold_bytes"] = parse_bytes(stripe["threshold_bytes"])
            kwargs["stripe"] = StripeConfig(**stripe)
        if "adam" in block:
            kwargs["adam"] = AdamConfig(**block["adam"])
        return cls(**kwargs)

    @classmethod
    def single_tier(cls, path: "str | Path", **overrides) -> "MLPOffloadConfig":
        """A single-NVMe configuration (the baseline's storage layout)."""
        return cls(tiers=(TierConfig(name="nvme", path=str(path)),), **overrides)

    @classmethod
    def local_and_remote(
        cls,
        local_path: "str | Path",
        remote_path: "str | Path",
        *,
        ratio: Optional[Tuple[float, float]] = None,
        **overrides,
    ) -> "MLPOffloadConfig":
        """The paper's canonical ``/local/`` + ``/remote/`` two-tier configuration."""
        local_ratio, remote_ratio = ratio if ratio is not None else (None, None)
        tiers = (
            TierConfig(name="nvme", path=str(local_path), ratio=local_ratio),
            TierConfig(name="pfs", path=str(remote_path), ratio=remote_ratio),
        )
        return cls(tiers=tiers, **overrides)
