"""Path health and degraded-mode recovery for the virtual tier.

:class:`PathHealth` tracks every physical path behind a
:class:`~repro.core.virtual_tier.VirtualTier`: it quarantines a path after
repeated *path-fatal* failures, masks it out of stripe plans and whole-blob
routing while it is down, counts the transparent recoveries, and re-admits
it once a small write/read-back/delete probe succeeds.

:func:`recover_on_path_fatal` is the one hook that turns a path-fatal
terminal I/O result into a recovery (a failover rewrite for flushes, a
whole-blob fallback for striped reads); the recoveries themselves live on
the virtual tier, which owns the stores and the placement map they touch.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.aio.engine import IOResult, os_error_in_chain
from repro.tiers.spec import BlobStore, degraded_weights
from repro.util.logging import get_logger

_LOG = get_logger("core.path_health")

#: Key prefix of the tiny recovery-probe blobs (never checkpointed).
PROBE_KEY_PREFIX = "ioprobe"


def recover_on_path_fatal(
    future: concurrent.futures.Future,
    recover: Callable[[IOResult], IOResult],
) -> concurrent.futures.Future:
    """A future resolving like ``future``, except path-fatal failures recover.

    On a *path-fatal* terminal result (an ``OSError`` in the error's cause
    chain — the engine's retry budget is already spent by then) the result
    is replaced by ``recover(result)``; successes and application-level
    errors pass through untouched.  ``recover`` runs on the I/O thread that
    completed ``future``, so it must not resubmit into that engine (a full
    submission queue would deadlock).  An exception from ``recover``, or a
    ``BaseException`` raised by ``future`` itself, becomes the returned
    future's exception.
    """
    wrapped: concurrent.futures.Future = concurrent.futures.Future()

    def _done(fut: concurrent.futures.Future) -> None:
        try:
            result: IOResult = fut.result()
            if not result.ok and PathHealth.is_path_fatal(result.error):
                result = recover(result)
        except BaseException as exc:  # KeyboardInterrupt et al: propagate
            wrapped.set_exception(exc)
            return
        wrapped.set_result(result)

    future.add_done_callback(_done)
    return wrapped


class PathHealth:
    """Per-path health state machine driving degraded-mode I/O.

    Installed as the :class:`AsyncIOEngine`'s observer, so every request's
    *terminal* outcome feeds it (transient failures a retry absorbed do
    not).  A path moves ``HEALTHY -> QUARANTINED`` after ``quarantine_after``
    consecutive *path-fatal* failures — failures with an ``OSError`` in
    their cause chain (device errors, ENOSPC, hung-mount timeouts).
    Application-level store errors (missing keys, dtype mismatches,
    malformed blobs) never count: they indict the caller or the data, not
    the device, and counting them would quarantine healthy paths.

    A quarantined path carries no new bytes: stripe plans mask it out
    (:meth:`stripe_weights`, :meth:`can_stripe`), whole-blob flushes
    re-route around it (:meth:`healthy_target`), and failed writes already
    routed at it are transparently rewritten onto survivors.  Every
    ``probe_interval`` calls of :meth:`tick` (once per update phase) the
    path becomes due for a recovery :meth:`probe`, whose success
    :meth:`admit`\\ s it back.

    Thread-safe: engine I/O threads report outcomes and recoveries while
    the training thread plans and ticks.
    """

    def __init__(
        self,
        tier_names: Sequence[str],
        *,
        quarantine_after: int = 3,
        probe_interval: int = 8,
    ) -> None:
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        self.quarantine_after = int(quarantine_after)
        self.probe_interval = int(probe_interval)
        self._lock = threading.Lock()
        self._consecutive: Dict[str, int] = {name: 0 for name in tier_names}
        self._quarantined: Dict[str, bool] = {name: False for name in tier_names}
        self._ticks_down: Dict[str, int] = {name: 0 for name in tier_names}
        #: Lifetime quarantine transitions (diagnostics).
        self.quarantine_events = 0
        #: Lifetime successful re-admissions.
        self.recovery_events = 0
        #: Writes transparently re-routed off a dead path (lifetime count).
        self.failovers = 0
        #: Striped reads served from a whole-blob fallback copy (lifetime).
        self.degraded_reads = 0

    @staticmethod
    def is_path_fatal(error: Optional[BaseException]) -> bool:
        """Whether ``error`` indicts the physical path (vs the caller/data)."""
        return error is not None and os_error_in_chain(error) is not None

    # -- engine observer protocol -----------------------------------------

    def on_success(self, tier: str) -> None:
        with self._lock:
            if tier in self._consecutive and not self._quarantined[tier]:
                self._consecutive[tier] = 0

    def on_failure(self, tier: str, error: BaseException) -> None:
        if not self.is_path_fatal(error):
            return
        with self._lock:
            if tier not in self._consecutive or self._quarantined[tier]:
                return
            self._consecutive[tier] += 1
            if self._consecutive[tier] >= self.quarantine_after:
                self._do_quarantine(tier)

    # -- transitions -------------------------------------------------------

    def _do_quarantine(self, tier: str) -> None:
        self._quarantined[tier] = True
        self._ticks_down[tier] = 0
        self.quarantine_events += 1
        _LOG.warning("path %r quarantined after repeated fatal I/O failures", tier)

    def force_quarantine(self, tier: str) -> None:
        """Quarantine ``tier`` immediately (a failover proved it dead)."""
        with self._lock:
            if tier in self._quarantined and not self._quarantined[tier]:
                self._do_quarantine(tier)

    def quarantine_failed(self, result: IOResult) -> str:
        """Quarantine the path a failed ``result`` indicts; returns its name.

        The engine stamps ``repro_tier`` onto the terminal error (for
        striped aggregates that is the *part*'s tier, not the aggregate
        key's); the request tier is the fallback.
        """
        assert result.error is not None
        tier = getattr(result.error, "repro_tier", None)
        dead = tier if tier is not None else result.request.tier
        self.force_quarantine(dead)
        return dead

    def admit(self, tier: str) -> None:
        """Re-admit ``tier`` after a successful recovery probe."""
        with self._lock:
            if tier in self._quarantined and self._quarantined[tier]:
                self._quarantined[tier] = False
                self._consecutive[tier] = 0
                self._ticks_down[tier] = 0
                self.recovery_events += 1
                _LOG.info("path %r re-admitted after successful recovery probe", tier)

    def record_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    def record_degraded_read(self) -> None:
        with self._lock:
            self.degraded_reads += 1

    # -- queries -----------------------------------------------------------

    @property
    def failover_count(self) -> int:
        """Total transparent degraded-mode recoveries (writes + reads)."""
        with self._lock:
            return self.failovers + self.degraded_reads

    def is_healthy(self, tier: str) -> bool:
        with self._lock:
            return not self._quarantined.get(tier, False)

    def healthy_mask(self, tier_names: Sequence[str]) -> List[bool]:
        with self._lock:
            return [not self._quarantined.get(name, False) for name in tier_names]

    def healthy_target(self, preferred: str) -> str:
        """A healthy whole-blob target, preferring ``preferred``.

        Falls back to the first healthy path; if *everything* is
        quarantined, returns ``preferred`` unchanged and lets the write fail
        through the normal error path (there is nothing left to degrade to).
        """
        with self._lock:
            if not self._quarantined.get(preferred, False):
                return preferred
            for name, down in self._quarantined.items():
                if not down:
                    return name
        return preferred

    def can_stripe(self, stripe_tier_names: Sequence[str]) -> bool:
        """Whether a *new* striped write over ``stripe_tier_names`` makes sense.

        Requires at least two healthy stripe paths (striping onto one path
        is pure overhead) and a healthy primary (the first name) — the
        manifest and epoch files live on the primary, so committing through
        a dead primary cannot succeed.
        """
        mask = self.healthy_mask(stripe_tier_names)
        return sum(mask) >= 2 and mask[0]

    def stripe_weights(
        self, weights: Sequence[float], stripe_tier_names: Sequence[str]
    ) -> Optional[List[float]]:
        """``weights`` with quarantined stripe paths masked to zero.

        Degraded re-plan (Equation 1 over survivors): quarantined paths get
        weight zero so ``plan_stripes`` assigns them no extents, and
        ``degraded_weights`` guarantees a positive split as long as any path
        is healthy.  With every path healthy the weights pass through, or
        ``None`` (an equal split) when none is positive.
        """
        mask = self.healthy_mask(stripe_tier_names)
        if all(mask):
            return list(weights) if sum(weights) > 0 else None
        if sum(weights) <= 0:
            weights = [1.0] * len(stripe_tier_names)
        return list(degraded_weights(weights, mask))

    # -- recovery probes ---------------------------------------------------

    def tick(self) -> List[str]:
        """Advance quarantine timers; returns the paths due for a probe."""
        due = []
        with self._lock:
            for name, down in self._quarantined.items():
                if not down:
                    continue
                self._ticks_down[name] += 1
                if self._ticks_down[name] % self.probe_interval == 0:
                    due.append(name)
        return due

    def probe(self, tier: str, store: BlobStore, worker: str) -> bool:
        """Recovery probe: a small write/read-back/delete round trip on ``store``.

        Goes through the (possibly fault-wrapped) store directly so a path
        that is still injecting faults keeps failing the probe and stays
        quarantined.  Success re-admits ``tier`` into planning.
        """
        key = f"{PROBE_KEY_PREFIX}.{worker}"
        payload = np.arange(16, dtype=np.float32)
        out = np.empty_like(payload)
        try:
            store.save_from(key, payload)
            store.load_into(key, out)
            if not np.array_equal(out, payload):
                return False
        except Exception:
            return False
        finally:
            try:
                if store.contains(key):
                    store.delete(key)
            except Exception:
                pass
        self.admit(tier)
        return True

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {
                name: {
                    "healthy": not self._quarantined[name],
                    "consecutive_fatal": self._consecutive[name],
                    "ticks_quarantined": self._ticks_down[name],
                }
                for name in self._quarantined
            }

    def summary(self) -> Dict[str, object]:
        """Degraded-mode counters and per-path health for reporting."""
        paths = self.snapshot()
        with self._lock:
            return {
                "failovers": self.failovers,
                "degraded_reads": self.degraded_reads,
                "paths": paths,
                "quarantine_events": self.quarantine_events,
                "recovery_events": self.recovery_events,
            }
