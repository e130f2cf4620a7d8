"""Striped composite over multiple :class:`~repro.tiers.file_store.FileStore` paths.

After PR 1 every subgroup fetch ran against exactly one physical tier, so the
second path (and its bandwidth) sat idle during that fetch.  The paper's core
claim is that the *aggregate* tier bandwidth bounds the offloaded update
phase — :class:`StripedStore` realizes that for reads by splitting a large
field into contiguous element extents (one per path by default, sized
proportionally to per-path bandwidth weights) and storing each extent as its
own blob on its assigned path.  A striped read then scatters every stripe
directly into a slice of the caller's destination array, so the zero-copy
``load_into`` invariant holds end to end and NVMe and PFS stream
simultaneously.

On-store layout for a striped key ``k``::

    <primary>/k.stripemeta.bin        int64 manifest (dtype, shape, layout tag L, extents)
    <path of stripe i>/k.g<N>.l<L>.stripe<i>.bin   stripe i of generation N

Writes are commit-after-barrier.  Every flush writes a never-used generation
beside the committed one and publishes it once all its stripes have landed.
``L`` is the generation whose commit last wrote the manifest: a flush that
keeps the recorded extents keeps ``L`` and writes no manifest, one that
changes them tags its stripes anew and commits by rewriting the manifest.
After a restart the committed generation is the highest one with every
stripe present under the manifest's tag; other tags never committed.

Fields below the striping threshold (or plans that degenerate to one extent
because only one path is configured) are stored as a single whole blob under
``k`` on the primary backend — byte-for-byte identical to an unstriped
:class:`FileStore`, which is what the degenerate-config equivalence tests
assert.

The manifest makes striped keys self-describing: reads follow the layout
recorded at write time, so the stripe split may change between writes (the
adaptive bandwidth estimator re-weights it every iteration) without any
coordination.

Concurrency is deliberately *not* this class's job: the synchronous
:meth:`load_into` / :meth:`save_from` walk stripes sequentially (writes stay
single-path, per the roadmap), while :meth:`plan_load` / :meth:`plan_save`
expose the per-stripe work items so the
:class:`~repro.aio.engine.AsyncIOEngine` can fan the reads out across its
I/O threads (``read_into_multi``) with each path throttled on its own
channel.

Thread-safety: all public methods may be called from any thread.  The
manifest cache and the per-path byte counters are guarded by an internal
lock; the heavy lifting delegates to the backend ``FileStore`` objects,
which are themselves thread-safe.  Buffer ownership follows the backend
contract — the caller owns ``out`` / ``array`` for the duration of the call
(or, for planned parts, until the submitted I/O completes), and the store
never retains a reference afterwards.
"""

from __future__ import annotations

import contextlib
import re
import threading
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.tiers.array_pool import scatter_views
from repro.tiers.file_store import _SUPPORTED_DTYPES, FileStore, StoreError
from repro.tiers.spec import BlobStore, StripeExtent, plan_stripes
from repro.util.logging import get_logger

_LOG = get_logger("tiers.striped_store")

#: Key suffix of the manifest blob (stored on the primary backend).
MANIFEST_SUFFIX = ".stripemeta"
#: Magic first element guarding manifest blobs against foreign int64 arrays.
_MANIFEST_MAGIC = 0x53545250  # "STRP"
#: The only manifest version written or accepted (carries the layout tag).
_MANIFEST_VERSION = 3
#: Suffix of a stripe blob key after the logical key: generation, layout tag, index.
_STRIPE_SUFFIX = re.compile(r"\.g(\d+)\.l(\d+)\.stripe(\d+)")

#: Stable dtype <-> code mapping for the int64 manifest encoding.
_DTYPE_CODES: Dict[str, int] = {name: i for i, name in enumerate(sorted(_SUPPORTED_DTYPES))}
_CODE_DTYPES: Dict[int, str] = {code: name for name, code in _DTYPE_CODES.items()}


class DegradedReadError(StoreError):
    """A striped read could not be satisfied because a stripe path is down.

    Raised when a key's recorded layout references a quarantined/dead path
    and no redundant copy (whole-blob fallback) exists to fail over to.  The
    error is *typed* and carries the failed paths so the caller — a restore
    orchestrator, an operator — can answer "which path do I need back?"
    without parsing messages.

    Attributes
    ----------
    key:
        The logical key whose read failed.
    tiers:
        Names of the backend paths that failed, in failure order.
    """

    def __init__(self, key: str, tiers: Sequence[str], message: Optional[str] = None):
        self.key = key
        self.tiers = tuple(tiers)
        super().__init__(
            message
            or f"striped read of {key!r} failed: path(s) {list(self.tiers)} unavailable"
        )


@dataclass(frozen=True)
class StripePart:
    """One stripe's worth of I/O: which backend, which blob key, which slice.

    ``array`` is a contiguous 1-D view into the caller's full field buffer
    (for loads, typically an :class:`~repro.tiers.array_pool.ArrayPool`
    lease) — reading into it scatters directly into the right extent with no
    intermediate copy.  The view stays valid only as long as the underlying
    buffer; callers must keep the full buffer alive until every part's I/O
    has completed.
    """

    tier: str
    key: str
    array: np.ndarray
    extent: StripeExtent


@dataclass(frozen=True)
class _Manifest:
    dtype: np.dtype
    shape: Tuple[int, ...]
    extents: Tuple[StripeExtent, ...]
    #: Generation whose commit wrote this layout's manifest (the on-disk tag).
    layout: int = 0
    #: Generation of the stripe blobs holding the value (in memory only).
    generation: int = 0

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1


def _encode_manifest(manifest: _Manifest) -> np.ndarray:
    head = [
        _MANIFEST_MAGIC,
        _MANIFEST_VERSION,
        _DTYPE_CODES[manifest.dtype.name],
        manifest.layout,
        len(manifest.shape),
        *manifest.shape,
        len(manifest.extents),
    ]
    body: List[int] = []
    for ext in manifest.extents:
        body.extend((ext.path, ext.start, ext.count))
    return np.asarray(head + body, dtype=np.int64)


def _decode_manifest(blob: np.ndarray, key: str) -> _Manifest:
    data = np.asarray(blob, dtype=np.int64).reshape(-1)
    if data.size < 6 or int(data[0]) != _MANIFEST_MAGIC:
        raise StoreError(f"stripe manifest for {key!r} is malformed")
    version = int(data[1])
    if version != _MANIFEST_VERSION:
        raise StoreError(f"stripe manifest for {key!r} has unsupported version {version}")
    dtype_name = _CODE_DTYPES.get(int(data[2]))
    if dtype_name is None:
        raise StoreError(f"stripe manifest for {key!r} has unknown dtype code {int(data[2])}")
    layout = int(data[3])
    if layout < 0:
        raise StoreError(f"stripe manifest for {key!r} has negative layout tag {layout}")
    ndim = int(data[4])
    offset = 5
    if ndim < 0 or data.size < offset + ndim + 1:
        raise StoreError(f"stripe manifest for {key!r} is truncated")
    shape = tuple(int(x) for x in data[offset : offset + ndim])
    offset += ndim
    nstripes = int(data[offset])
    offset += 1
    if nstripes < 0 or data.size != offset + 3 * nstripes:
        raise StoreError(f"stripe manifest for {key!r} is truncated")
    extents = tuple(
        StripeExtent(
            index=i,
            path=int(data[offset + 3 * i]),
            start=int(data[offset + 3 * i + 1]),
            count=int(data[offset + 3 * i + 2]),
        )
        for i in range(nstripes)
    )
    return _Manifest(dtype=np.dtype(dtype_name), shape=shape, extents=extents, layout=layout)


class StripedStore(BlobStore):
    """Multi-path striped key→array store over ordered ``FileStore`` backends.

    Declares (and the conformance suite verifies) the full
    :class:`~repro.tiers.spec.BlobStore` surface, so the engine and the
    checkpoint subsystem can treat the striped composite exactly like a
    plain tier store.

    Parameters
    ----------
    backends:
        Ordered physical paths.  ``backends[0]`` is the *primary*: it holds
        whole blobs for unstriped keys and the manifests of striped ones.
        Stripe ``i`` of a plan lives on ``backends[extent.path]``.
    threshold_bytes:
        Payloads below this size are stored whole on the primary (striping
        small fields costs more in per-operation latency than it recovers in
        bandwidth).
    stripe_bytes:
        Optional fixed stripe granularity forwarded to
        :func:`~repro.tiers.spec.plan_stripes`; default is one
        (weight-proportional) stripe per path.
    replan_tolerance:
        Maximum per-stripe share drift (fraction of the field) tolerated
        before a re-flush records a new layout.  Within the tolerance the
        previously recorded extents are reused, so the stripe *sizes* hold
        steady as the adaptive bandwidth weights wobble and the commit
        writes no manifest.
    name:
        Diagnostic name.
    align_bytes:
        Stripe-boundary alignment in bytes, forwarded to
        :func:`~repro.tiers.spec.plan_stripes`.  Pass the raw-I/O backend's
        alignment (e.g. 4096 under O_DIRECT) so every stripe blob's payload
        covers a block-aligned extent of the field; 1 (the default) keeps the
        historical byte-exact plans.
    """

    def __init__(
        self,
        backends: Sequence[FileStore],
        *,
        threshold_bytes: float = 1 << 20,
        stripe_bytes: Optional[int] = None,
        replan_tolerance: float = 0.02,
        name: str = "striped",
        align_bytes: int = 1,
    ) -> None:
        if not backends:
            raise ValueError("at least one backend is required")
        names = [b.name for b in backends]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate backend names in {names}")
        if threshold_bytes < 0:
            raise ValueError("threshold_bytes must be non-negative")
        if replan_tolerance < 0:
            raise ValueError("replan_tolerance must be non-negative")
        if align_bytes < 1:
            raise ValueError("align_bytes must be >= 1")
        self.align_bytes = int(align_bytes)
        self.backends: Tuple[FileStore, ...] = tuple(backends)
        self.threshold_bytes = float(threshold_bytes)
        self.stripe_bytes = stripe_bytes
        self.replan_tolerance = float(replan_tolerance)
        self.name = name
        self._lock = threading.Lock()
        self._manifests: Dict[str, _Manifest] = {}
        #: Plans awaiting their commit (key → uncommitted manifest).
        self._pending_plans: Dict[str, _Manifest] = {}
        #: Per key, the lowest generation no plan has claimed yet.  A number
        #: is never reused, so two flush attempts never share a stripe key.
        self._next_generation: Dict[str, int] = {}
        #: Keys whose orphan sweep already ran this lifetime.
        #: Crashed-predecessor orphans can only predate this process (or an
        #: abandoned barrier, which re-arms the sweep), so steady-state
        #: commits skip the O(stripes × backends) stat walk.
        self._orphan_swept: "set[str]" = set()
        #: Bytes routed per backend name (planned or executed through this
        #: store), split by direction — the per-path accounting the examples
        #: print.  Engine-level stats remain authoritative for executed I/O.
        self._path_bytes: Dict[str, Dict[str, int]] = {
            b.name: {"read": 0, "written": 0} for b in self.backends
        }

    # -- helpers ---------------------------------------------------------

    @property
    def primary(self) -> FileStore:
        """The backend holding whole blobs and manifests."""
        return self.backends[0]

    @property
    def num_paths(self) -> int:
        return len(self.backends)

    @staticmethod
    def manifest_key(key: str) -> str:
        return f"{key}{MANIFEST_SUFFIX}"

    @staticmethod
    def _stripes(key: str, manifest: "_Manifest") -> List[Tuple[StripeExtent, str]]:
        """``manifest``'s ``(extent, stripe blob key)`` pairs (the one key format)."""
        prefix = f"{key}.g{manifest.generation}.l{manifest.layout}.stripe"
        return [(ext, f"{prefix}{ext.index}") for ext in manifest.extents]

    def stripe_keys(self, key: str) -> Optional[List[Tuple[StripeExtent, str]]]:
        """The committed ``(extent, stripe blob key)`` pairs of ``key``, or ``None``.

        The only way for code outside this class to name stripe blobs, so
        the key format has a single owner.
        """
        manifest = self._load_manifest(key)
        return self._stripes(key, manifest) if manifest is not None else None

    def _account(self, tier: str, direction: str, nbytes: int) -> None:
        with self._lock:
            self._path_bytes[tier][direction] += int(nbytes)

    def _stripe_blobs(self, key: str) -> Iterator[Tuple[FileStore, str, int, int, int]]:
        """Every stripe blob of ``key`` on disk: ``(backend, blob key, generation, layout, index)``.

        Scans each backend's key listing instead of probing stripe indices —
        a crashed async fan-out can land stripes out of order, so orphans
        need not be contiguous (index-probing would stop at the first gap).
        Cold paths only (restart, first commit per key, delete): one
        directory scan per backend.
        """
        for backend in self.backends:
            for blob_key in list(backend.keys(prefix=key)):
                match = _STRIPE_SUFFIX.fullmatch(blob_key, len(key))
                if match:
                    generation, layout, index = (int(g) for g in match.groups())
                    yield backend, blob_key, generation, layout, index

    def _sweep_stripe_orphans(self, key: str, live: "set[Tuple[str, str]]") -> None:
        """Delete every ``(backend, stripe blob)`` of ``key`` not in ``live``."""
        for backend, blob_key, *_ in self._stripe_blobs(key):
            if (backend.name, blob_key) not in live:
                backend.delete(blob_key)

    def _plans_close(self, old: "_Manifest", new: "_Manifest") -> bool:
        """Whether ``new``'s layout is within the re-plan tolerance of ``old``."""
        if old.dtype != new.dtype or old.shape != new.shape:
            return False
        if len(old.extents) != len(new.extents):
            return False
        total = max(1, new.num_elements)
        for old_ext, new_ext in zip(old.extents, new.extents):
            if old_ext.path != new_ext.path:
                return False
            if abs(old_ext.count - new_ext.count) / total > self.replan_tolerance:
                return False
        return True

    def _backend_for(self, extent: StripeExtent, key: str) -> FileStore:
        """The backend holding ``extent``, or a clean error for narrowed configs."""
        if extent.path >= self.num_paths:
            raise StoreError(
                f"striped key {key!r} references path {extent.path} but only "
                f"{self.num_paths} backends are configured"
            )
        return self.backends[extent.path]

    def _load_manifest(self, key: str) -> Optional[_Manifest]:
        """The manifest for ``key`` from cache or, after a restart, from disk.

        Negative results are cached too (``None`` entries), so the hot
        prefetch path does not re-stat the manifest file of a never-striped
        key on every fetch; :meth:`commit_save` and :meth:`drop_stripes` own
        the cache and keep it coherent with the store's own writes.
        """
        with self._lock:
            if key in self._manifests:
                return self._manifests[key]
        mkey = self.manifest_key(key)
        manifest, claimed = None, 0
        if self.primary.contains(mkey):
            manifest = _decode_manifest(self.primary.read(mkey), key)
            # A steady-state commit writes no manifest: the landed stripes of
            # a generation under the recorded tag are its commit point.  So
            # the committed generation is the highest one whose every stripe
            # is present; stripes under any other tag never committed.  New
            # plans number past every generation on disk, under any tag.
            present: Dict[int, "set[Tuple[int, int]]"] = {}
            for backend, _, generation, layout, index in self._stripe_blobs(key):
                claimed = max(claimed, generation + 1)
                if layout == manifest.layout:
                    present.setdefault(generation, set()).add((self.backends.index(backend), index))
            wanted = {(ext.path, ext.index) for ext in manifest.extents}
            complete = [g for g, have in present.items() if wanted <= have]
            manifest = replace(manifest, generation=max(complete, default=manifest.layout))
        with self._lock:
            self._manifests[key] = manifest
            self._next_generation[key] = max(self._next_generation.get(key, 0), claimed)
        return manifest

    def _new_plan(self, key: str, dtype, shape, extents) -> _Manifest:
        """A plan of ``key`` whose fresh generation is also its layout tag.

        The generation is past the committed one and past every generation
        an earlier (crashed, abandoned) plan used.
        """
        old = self._load_manifest(key)
        with self._lock:
            generation = max(self._next_generation.get(key, 0), old.generation + 1 if old else 0)
            self._next_generation[key] = generation + 1
        return _Manifest(np.dtype(dtype), tuple(shape), tuple(extents), generation, generation)

    def _forget_manifest(self, key: str) -> None:
        with self._lock:
            self._manifests[key] = None

    # -- planning (the engine's fan-out entry points) --------------------

    def plan_save(
        self, key: str, array: np.ndarray, *, weights: Optional[Sequence[float]] = None
    ) -> List[StripePart]:
        """Plan a striped write of ``key``; return the per-stripe work items.

        The parts target the generation after the committed one, and nothing
        is published: the caller (typically
        :class:`~repro.core.virtual_tier.VirtualTier`) executes the returned
        parts — sequentially or through the async engine; writes are
        single-path per stripe either way — and then calls
        :meth:`commit_save` once every write has landed, or
        :meth:`abandon_save` if one failed.  Until the commit, readers keep
        seeing the complete previous value.

        ``array`` must be C-contiguous; each part's ``array`` is a flat view
        into it, so the caller must keep ``array`` alive until all part
        writes complete.  ``weights`` (per backend, same order) sizes the
        stripes proportionally to path bandwidth.
        """
        contiguous = np.ascontiguousarray(array)
        flat = contiguous.reshape(-1)
        extents = plan_stripes(
            int(flat.size),
            int(flat.itemsize),
            num_paths=self.num_paths,
            threshold_bytes=0.0,  # the caller already applied the threshold policy
            stripe_bytes=self.stripe_bytes,
            weights=weights,
            align_bytes=self.align_bytes,
        )
        old = self._load_manifest(key)
        manifest = self._new_plan(key, contiguous.dtype, contiguous.shape, extents)
        # Steady state re-flushes a key with unchanged geometry and nearly
        # unchanged weights (the adaptive estimator drifts a little every
        # iteration), so the re-plan tolerance reuses the recorded layout —
        # stable stripe sizes, and a commit that writes no manifest.
        if old is not None and self._plans_close(old, manifest):
            manifest = replace(old, generation=manifest.generation)
        with self._lock:
            self._pending_plans[key] = manifest
        parts = []
        for ext, stripe in self._stripes(key, manifest):
            backend = self.backends[ext.path]
            part = StripePart(
                tier=backend.name, key=stripe, array=flat[ext.start : ext.stop], extent=ext
            )
            self._account(backend.name, "written", part.array.nbytes)
            parts.append(part)
        return parts

    def commit_save(self, key: str) -> bool:
        """Publish the pending plan of ``key`` (the write barrier's tail).

        Must only be called once every stripe write of the matching
        :meth:`plan_save` has landed.  A plan under a new layout tag commits
        by atomically rewriting the manifest (temp-file + ``os.replace``); a
        plan that kept the recorded layout is already committed on disk by
        its landed stripes.  Then the new generation is published in memory
        and the previous one's stripe blobs are deleted.  Stale whole blobs
        and crash orphans can only predate this process — or a downgrade or
        abandoned barrier, which re-arm the sweep — so it runs once per key
        per lifetime: stripe orphans before the manifest write, whole blobs
        after it.  Returns whether this commit ran that sweep (callers
        covering stores outside this composite gate their own sweep on it).
        """
        with self._lock:
            pending = self._pending_plans.pop(key, None)
        if pending is None:
            raise StoreError(f"store {self.name!r} has no pending striped plan for {key!r}")
        old = self._load_manifest(key)
        committed = self._stripes(key, old) if old is not None else []
        with self._lock:
            sweep = key not in self._orphan_swept
        if sweep:
            # Orphans go before a new manifest can name their layout tag (a
            # stale generation under it would otherwise win the restart rule).
            live = {
                (self.backends[ext.path].name, stripe)
                for ext, stripe in committed + self._stripes(key, pending)
                if ext.path < self.num_paths
            }
            self._sweep_stripe_orphans(key, live)
        if old is None or old.layout != pending.layout:
            self.primary.save_from(self.manifest_key(key), _encode_manifest(pending))
        with self._lock:
            self._manifests[key] = pending
            self._orphan_swept.add(key)
        for ext, stale in committed:
            if ext.path < self.num_paths and self.backends[ext.path].contains(stale):
                self.backends[ext.path].delete(stale)
        if sweep:
            for backend in self.backends:
                if backend.contains(key):
                    backend.delete(key)
        return sweep

    def abandon_save(self, key: str) -> None:
        """Drop the pending plan of ``key`` (failed write barrier).

        The committed generation — and therefore every reader — is
        untouched.  The stripe blobs the failed flush already wrote are
        deleted, so a restart can never serve a plan this process gave up
        on; one that cannot be deleted now is left to the next successful
        commit's orphan walk, re-armed here.  The plan's generation stays
        claimed: the next plan writes to fresh keys.
        """
        with self._lock:
            pending = self._pending_plans.pop(key, None)
            self._orphan_swept.discard(key)
        for ext, stripe in self._stripes(key, pending) if pending is not None else ():
            with contextlib.suppress(OSError, StoreError):  # not landed, or path down
                self.backends[ext.path].delete(stripe)

    def adopt_striped(
        self,
        key: str,
        stripes: Sequence[Tuple[str, "object", int, int, Optional[int]]],
        *,
        dtype: "np.dtype | str",
        count: int,
    ) -> None:
        """Bring a striped key into the store by hard-linking existing blobs.

        The reverse of a checkpoint's per-stripe :meth:`FileStore.adopt`
        export — used by the streaming restore to put a striped field back
        on its tiers with zero bytes copied.  ``stripes`` is the ordered
        stripe list: ``(backend_name, source_path, start, count, checksum)``
        per stripe, contiguous and covering ``[0, count)`` elements.  The
        links form a new generation under a new layout tag, whose manifest
        is committed only after every link exists (the same
        commit-after-barrier discipline as a flush).
        """
        names = {backend.name: i for i, backend in enumerate(self.backends)}
        extents: List[StripeExtent] = []
        expected_start = 0
        for i, (tier, _, start, cnt, _) in enumerate(stripes):
            if tier not in names:
                raise StoreError(f"striped adopt of {key!r}: unknown backend {tier!r}")
            if int(start) != expected_start:
                raise StoreError(f"striped adopt of {key!r}: non-contiguous stripes")
            extents.append(
                StripeExtent(index=i, path=names[tier], start=int(start), count=int(cnt))
            )
            expected_start += int(cnt)
        if expected_start != int(count):
            raise StoreError(
                f"striped adopt of {key!r}: stripes cover {expected_start} of {count} elements"
            )
        manifest = self._new_plan(key, dtype, (int(count),), extents)
        for (ext, stripe), (_, source_path, _, _, checksum) in zip(
            self._stripes(key, manifest), stripes
        ):
            self.backends[ext.path].adopt(stripe, source_path, checksum=checksum)
        with self._lock:
            self._pending_plans[key] = manifest
        self.commit_save(key)

    def plan_load(self, key: str, out: np.ndarray) -> List[StripePart]:
        """Return the per-stripe read work items scattering ``key`` into ``out``.

        ``out`` must be a writable C-contiguous array whose dtype and element
        count match the manifest recorded at write time.  Each part's
        ``array`` is a contiguous flat view of ``out`` covering one extent —
        issuing every part as a concurrent zero-copy ``load_into`` (e.g. via
        :meth:`AsyncIOEngine.read_into_multi`) reads all paths
        simultaneously.  ``out`` must stay alive (and unreleased, if pooled)
        until every part's read has completed.
        """
        manifest = self._load_manifest(key)
        if manifest is None:
            raise StoreError(f"store {self.name!r} has no striped key {key!r}")
        if not out.flags.c_contiguous or not out.flags.writeable:
            raise StoreError(f"striped load destination for {key!r} must be writable C-contiguous")
        if out.dtype != manifest.dtype:
            raise StoreError(
                f"striped load dtype mismatch for {key!r}: blob is {manifest.dtype.name}, "
                f"destination is {out.dtype.name}"
            )
        if int(out.size) != manifest.num_elements:
            raise StoreError(
                f"striped load size mismatch for {key!r}: blob has {manifest.num_elements} "
                f"elements, destination has {out.size}"
            )
        views = scatter_views(out.reshape(-1), manifest.extents)
        parts = []
        for (ext, stripe), view in zip(self._stripes(key, manifest), views):
            backend = self._backend_for(ext, key)
            part = StripePart(tier=backend.name, key=stripe, array=view, extent=ext)
            self._account(backend.name, "read", part.array.nbytes)
            parts.append(part)
        return parts

    # -- synchronous FileStore-shaped API --------------------------------

    def save_from(
        self, key: str, array: np.ndarray, *, weights: Optional[Sequence[float]] = None
    ) -> int:
        """Store ``array`` under ``key``, striping it when above the threshold.

        Below the threshold (or with a single backend) the array is written
        whole to the primary — producing exactly the bytes a plain
        :class:`FileStore` would.  Above it, one blob per stripe is written
        *sequentially* (single-path writes; the async engine's
        ``write_multi`` is the concurrent fan-out) and committed behind
        them.  Returns the total payload+header bytes of the blobs holding
        the value (the manifest, rewritten only on a layout change, is not
        counted).

        The caller keeps ownership of ``array``; it is never retained.
        """
        contiguous = np.ascontiguousarray(array)
        if self.num_paths == 1 or contiguous.nbytes < self.threshold_bytes:
            self._account(self.primary.name, "written", contiguous.nbytes)
            # Land the whole blob before dropping the stripes: if the write
            # fails, the committed striped value stays readable.
            written = self.primary.save_from(key, contiguous)
            self.drop_stripes(key)
            return written
        parts = self.plan_save(key, contiguous, weights=weights)
        total = 0
        try:
            for part in parts:
                total += self._backend_by_name(part.tier).save_from(part.key, part.array)
        except BaseException:
            self.abandon_save(key)
            raise
        self.commit_save(key)
        return total

    def load_into(self, key: str, out: np.ndarray) -> np.ndarray:
        """Zero-copy read of ``key`` into the caller-owned ``out``.

        Striped keys are reassembled by sequential per-stripe ``load_into``
        calls scattering into slices of ``out`` (use :meth:`plan_load` with
        the async engine for concurrent multi-path reads).  Unstriped keys
        delegate to the primary backend.  Same ownership rule as
        :meth:`FileStore.load_into`: ``out`` is yours, the store writes into
        it during this call only.
        """
        manifest = self._load_manifest(key)
        if manifest is None:
            self._account(self.primary.name, "read", out.nbytes)
            return self.primary.load_into(key, out)
        for part in self.plan_load(key, out):
            self._backend_by_name(part.tier).load_into(part.key, part.array)
        return out

    def load_into_chunks(
        self,
        key: str,
        out: np.ndarray,
        *,
        chunk_bytes: int = 1 << 20,
        hasher=None,
    ) -> np.ndarray:
        """Chunked zero-copy read with an optional streaming digest.

        Same contract as :meth:`FileStore.load_into_chunks`.  Unstriped keys
        delegate to the primary; striped keys walk their stripes **in extent
        order**, so ``hasher`` observes the payload bytes exactly as a
        whole-blob read would feed them — the property that keeps streaming
        digests representation-independent.
        """
        manifest = self._load_manifest(key)
        if manifest is None:
            self._account(self.primary.name, "read", out.nbytes)
            return self.primary.load_into_chunks(key, out, chunk_bytes=chunk_bytes, hasher=hasher)
        for part in self.plan_load(key, out):
            self._backend_by_name(part.tier).load_into_chunks(
                part.key, part.array, chunk_bytes=chunk_bytes, hasher=hasher
            )
        return out

    def adopt(
        self, key: str, source_path, *, checksum: Optional[int] = None
    ) -> int:
        """Bring an existing *whole* blob file under ``key`` on the primary.

        Any striped representation of ``key`` is dropped once the whole blob
        is in place, so a failed adopt keeps the committed value (the mirror
        image of :meth:`save_from`'s below-threshold path); use
        :meth:`adopt_striped` to adopt a striped layout stripe by stripe.
        """
        total = self.primary.adopt(key, source_path, checksum=checksum)
        self.drop_stripes(key)
        return total

    def path_of(self, key: str):
        """Filesystem path of ``key``'s whole blob (striped keys have none).

        A striped key's bytes live in several files across paths; asking for
        *the* path is a category error, surfaced as :class:`StoreError` so
        hard-link exporters fall back to per-stripe handling
        (:meth:`extents_of` + the stripe blobs' own ``path_of``).
        """
        if self.is_striped(key):
            raise StoreError(
                f"striped key {key!r} has no single path; use extents_of() for its stripes"
            )
        return self.primary.path_of(key)

    @property
    def used_bytes(self) -> int:
        """Total on-store footprint across every backend path."""
        return int(sum(backend.used_bytes for backend in self.backends))

    @property
    def backend_name(self) -> str:
        """The primary path's raw-I/O backend name (stats attribution)."""
        return getattr(self.primary, "backend_name", "thread")

    def read(self, key: str) -> np.ndarray:
        """Allocate and return the array stored under ``key`` (striped or not)."""
        manifest = self._load_manifest(key)
        if manifest is None:
            array = self.primary.read(key)
            self._account(self.primary.name, "read", array.nbytes)
            return array
        out = np.empty(manifest.num_elements, dtype=manifest.dtype)
        self.load_into(key, out)
        return out.reshape(manifest.shape) if manifest.shape else out.reshape(())

    def write(self, key: str, array: np.ndarray) -> int:
        """Alias of :meth:`save_from` (FileStore API parity)."""
        return self.save_from(key, array)

    def meta_of(self, key: str) -> Tuple[np.dtype, Tuple[int, ...]]:
        """The dtype and shape recorded for ``key`` (manifest or whole blob)."""
        manifest = self._load_manifest(key)
        if manifest is not None:
            return manifest.dtype, manifest.shape
        return self.primary.meta_of(key)

    def is_striped(self, key: str) -> bool:
        """Whether ``key`` is currently stored as stripes (cheap: cached manifest)."""
        return self._load_manifest(key) is not None

    def extents_of(self, key: str) -> Optional[Tuple[StripeExtent, ...]]:
        """The stripe extents recorded for ``key``, or ``None`` if unstriped.

        Lets callers account where a striped key's bytes physically live
        (e.g. the engine's per-tier distribution report) without touching
        the payload.
        """
        manifest = self._load_manifest(key)
        return manifest.extents if manifest is not None else None

    def contains(self, key: str) -> bool:
        return self.primary.contains(key) or self.is_striped(key)

    def delete(self, key: str) -> None:
        """Remove ``key`` — whole blobs (on any backend), manifest and stripes."""
        found = False
        for backend in self.backends:
            if backend.contains(key):
                backend.delete(key)
                found = True
        found = self.drop_stripes(key) or found
        if not found:
            raise StoreError(f"store {self.name!r} has no key {key!r}")

    def drop_stripes(self, key: str) -> bool:
        """Remove ``key``'s striped representation (manifest + stripe blobs).

        Returns whether a striped representation existed.  Used both by
        :meth:`delete` and by callers downgrading a key to a whole blob
        (e.g. a field that shrank below the striping threshold)."""
        self.abandon_save(key)
        if self._load_manifest(key) is None:
            return False
        # Manifest first: a crash after it leaves orphan stripes (swept by
        # the key's next striped commit), never a manifest without stripes.
        mkey = self.manifest_key(key)
        if self.primary.contains(mkey):
            self.primary.delete(mkey)
        self._forget_manifest(key)
        # Every stripe blob of the key — committed generation and crash
        # orphans alike — in one listing per configured backend.
        self._sweep_stripe_orphans(key, set())
        return True

    def keys(self) -> Iterator[str]:
        """Logical keys (whole blobs and striped keys; stripe blobs are hidden)."""
        logical = set()
        for key in self.primary.keys():
            if key.endswith(MANIFEST_SUFFIX):
                logical.add(key[: -len(MANIFEST_SUFFIX)])
            elif ".stripe" not in key:
                logical.add(key)
        return iter(sorted(logical))

    def _backend_by_name(self, name: str) -> FileStore:
        for backend in self.backends:
            if backend.name == name:
                return backend
        raise KeyError(f"striped store has no backend {name!r}")

    # -- accounting ------------------------------------------------------

    def path_bytes(self) -> Dict[str, Dict[str, int]]:
        """Per-path bytes routed through this store, by direction.

        Counts payload bytes of stripes (and whole blobs) planned or executed
        via this store: each path's bandwidth-proportional share.
        """
        with self._lock:
            return {name: dict(counts) for name, counts in self._path_bytes.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StripedStore(name={self.name!r}, paths={[b.name for b in self.backends]}, "
            f"threshold={int(self.threshold_bytes)})"
        )
