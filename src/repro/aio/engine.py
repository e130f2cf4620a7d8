"""Thread-pool asynchronous I/O engine (libaio / DeepNVMe stand-in).

The engine accepts read and write requests against
:class:`~repro.tiers.spec.BlobStore` tiers (any conforming store — plain
:class:`~repro.tiers.file_store.FileStore`, striped, fault-injecting) and
executes them on a bounded pool of I/O threads, returning futures.  The raw
syscall discipline underneath each store is the store's own pluggable
:mod:`repro.aio.backends` backend; the engine records which one each tier
resolved to in its :class:`TierIOStats`.
It mirrors the properties of the paper's DeepNVMe/libaio layer that matter to
the offloading engines:

* asynchronous submission with completion futures (prefetch / lazy flush);
* zero-copy reads: a request may carry a caller-supplied destination array
  (``read_into``), which the store deserializes into directly —
  the pinned-buffer discipline of DeepNVMe's ``aio_handle`` reads;
* multi-path striped reads: ``read_into_multi`` fans one logical read out
  into per-stripe requests against different tiers, each throttled on its
  own path's bandwidth channel, aggregated behind a single future;
* bounded queue depth per engine (submission back-pressure);
* optional integration with the node-level tier lock manager so that requests
  against a locked tier are deferred rather than issued concurrently;
* per-tier I/O accounting (bytes, operations, time) for the I/O-throughput
  metrics of Figures 5 and 9.
"""

from __future__ import annotations

import concurrent.futures
import enum
import errno as _errno
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.aio.locks import TierLockManager
from repro.tiers.file_store import TruncatedBlobError
from repro.tiers.spec import BlobStore
from repro.util.logging import get_logger

_LOG = get_logger("aio.engine")


def os_error_in_chain(exc: Optional[BaseException]) -> Optional[OSError]:
    """The first :class:`OSError` in ``exc``'s explicit cause chain, if any.

    Store wrappers raise :class:`~repro.tiers.file_store.StoreError` *from*
    the underlying ``OSError``; both the retry classifier and the path-health
    tracker care about the errno underneath, so they walk ``__cause__``
    (explicit ``raise ... from`` links only — ``__context__`` would drag in
    unrelated exceptions that happened to be active).
    """
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, OSError):
            return current
        current = current.__cause__
    return None


#: Errnos worth retrying: the operation may succeed on a healthy path moments
#: later.  ``ENOSPC`` is deliberately absent — a full device does not drain
#: itself between backoffs, and the degradation machinery (path quarantine,
#: checkpoint skip-version) owns that failure mode instead.
TRANSIENT_ERRNOS: FrozenSet[int] = frozenset(
    {_errno.EIO, _errno.EAGAIN, _errno.ETIMEDOUT, _errno.EINTR, _errno.EBUSY}
)


@dataclass(frozen=True)
class IORetryPolicy:
    """Bounded deterministic retry for transient tier-I/O failures.

    ``attempts`` caps the total tries (1 = no retry).  Between tries the
    engine sleeps a deterministic exponential backoff —
    ``backoff_seconds * backoff_factor**(n-1)`` after the *n*-th failed
    attempt, capped at ``max_backoff_seconds`` — so a failing test replays
    identically.  ``deadline_seconds`` (0 = none) bounds one *request*:
    once an attempt would start (or sleep) past the deadline, the request
    fails with ``timed_out`` set instead of retrying forever against a
    hung path.

    Only *transient* failures are retried: an ``OSError`` in the cause
    chain whose errno is in ``transient_errnos``, or a
    :class:`~repro.tiers.file_store.TruncatedBlobError` (a racing/torn
    write — rereading observes the replacement blob).  Everything else —
    ``ENOSPC``, malformed blobs, missing keys, geometry mismatches — fails
    fast on the first attempt.
    """

    attempts: int = 3
    backoff_seconds: float = 0.002
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 0.1
    deadline_seconds: float = 0.0
    transient_errnos: FrozenSet[int] = TRANSIENT_ERRNOS

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.max_backoff_seconds < 0:
            raise ValueError("max_backoff_seconds must be non-negative")
        if self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative (0 = none)")

    def is_transient(self, exc: BaseException) -> bool:
        """Whether retrying ``exc`` could plausibly succeed."""
        if isinstance(exc, TruncatedBlobError):
            return True
        os_error = os_error_in_chain(exc)
        return os_error is not None and os_error.errno in self.transient_errnos

    def backoff(self, failed_attempts: int) -> float:
        """Sleep before the next try, after ``failed_attempts`` failures."""
        raw = self.backoff_seconds * self.backoff_factor ** max(0, failed_attempts - 1)
        return min(self.max_backoff_seconds, raw)


#: The default policy when an engine is built without one: no retrying,
#: byte-for-byte the pre-retry behaviour.
NO_RETRY = IORetryPolicy(attempts=1)


class IOKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class IORequest:
    """One asynchronous I/O request."""

    kind: IOKind
    tier: str
    key: str
    #: Payload for writes; ``None`` for reads.
    array: Optional[np.ndarray] = None
    #: Worker identity on whose behalf the request is issued (for tier locks).
    worker: str = "worker0"
    #: Zero-copy destination for reads: when set, the store deserializes
    #: directly into this array (``FileStore.load_into``) instead of
    #: allocating a fresh one.  ``None`` for writes.
    out: Optional[np.ndarray] = None


@dataclass
class IOResult:
    """Completion record of one request."""

    request: IORequest
    nbytes: int
    seconds: float
    #: Result array for reads; ``None`` for writes.
    array: Optional[np.ndarray] = None
    error: Optional[BaseException] = None
    #: Tries the request took (1 = first attempt succeeded / no retrying).
    attempts: int = 1
    #: Whether the request gave up because its retry deadline expired.
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class TierIOStats:
    """Per-tier cumulative I/O counters."""

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0
    read_seconds: float = 0.0
    write_seconds: float = 0.0
    #: Transparent retries that later attempts absorbed (successes included).
    retries: int = 0
    #: Requests that failed after exhausting their attempts.
    failures: int = 0
    #: The subset of ``failures`` that gave up on the per-request deadline.
    timeouts: int = 0
    #: Name of the raw-I/O backend serving this tier's store
    #: (``"thread"`` / ``"odirect"`` — whatever
    #: :func:`repro.aio.backends.resolve` actually selected after per-tier
    #: probing and fallback, so operators can see which discipline a tier
    #: ended up on).
    backend: str = "thread"


def chain_io_result(
    future: "concurrent.futures.Future[IOResult]",
    epilogue: "Callable[[IOResult], None]",
    *,
    on_error: "Optional[Callable[[IOResult], None]]" = None,
) -> "concurrent.futures.Future[IOResult]":
    """A future that runs ``epilogue`` after ``future`` succeeds, then resolves.

    The returned future completes only once the epilogue has run, so a
    caller awaiting it observes the epilogue's effects (e.g. a striped
    flush's manifest commit) with a proper happens-before edge — unlike a
    bare ``add_done_callback``, whose effects can race the awaiting thread.
    When the upstream result already carries an error, the epilogue is
    skipped and ``on_error`` (if given) runs instead — the cleanup hook for
    state the caller staged for the epilogue (e.g. abandoning an
    uncommitted striped plan); its own exceptions are swallowed so the
    original error propagates.  An epilogue that raises converts the result
    into a failure.  Both run on whichever I/O thread completed ``future``,
    so they must be short and non-blocking with respect to that engine's
    own queue.
    """
    chained: "concurrent.futures.Future[IOResult]" = concurrent.futures.Future()

    def _after(done: "concurrent.futures.Future[IOResult]") -> None:
        try:
            result = done.result()
        except Exception as exc:  # noqa: BLE001 - surfaced via the result
            result = IOResult(
                request=IORequest(kind=IOKind.WRITE, tier="chained", key=""),
                nbytes=0,
                seconds=0.0,
                error=exc,
            )
        except BaseException as exc:
            # KeyboardInterrupt/SystemExit must not be laundered into an
            # IOResult a caller might merely log — re-raise at the await.
            chained.set_exception(exc)
            return
        if result.error is None:
            try:
                epilogue(result)
            except Exception as exc:  # noqa: BLE001 - surfaced via the result
                result = IOResult(
                    request=result.request,
                    nbytes=result.nbytes,
                    seconds=result.seconds,
                    array=result.array,
                    error=exc,
                )
            except BaseException as exc:
                chained.set_exception(exc)
                return
        elif on_error is not None:
            try:
                on_error(result)
            except Exception:  # noqa: BLE001 - keep the original error
                pass
        chained.set_result(result)

    future.add_done_callback(_after)
    return chained


class AsyncIOEngine:
    """Asynchronous read/write engine over a set of named tiers.

    Parameters
    ----------
    stores:
        Mapping of tier name to any :class:`~repro.tiers.spec.BlobStore`.
    num_threads:
        I/O thread-pool size (the libaio queue-consumer analogue).
    queue_depth:
        Maximum number of in-flight (submitted, not completed) requests.
        Submission blocks when the queue is full, providing back-pressure.
    lock_manager:
        Optional node-level :class:`TierLockManager`.  When provided, every
        request acquires the target tier's lease for its worker before
        touching the store, so tier-exclusive concurrency control is enforced
        on the actual I/O path.
    retry_policy:
        Optional :class:`IORetryPolicy` applied inside every request's
        execution: transient failures are retried with deterministic backoff
        before an error ever reaches the caller's :class:`IOResult`.  Default
        is :data:`NO_RETRY` (single attempt, the historical behaviour).
    """

    def __init__(
        self,
        stores: Dict[str, BlobStore],
        *,
        num_threads: int = 4,
        queue_depth: int = 16,
        lock_manager: Optional[TierLockManager] = None,
        retry_policy: Optional[IORetryPolicy] = None,
    ) -> None:
        if not stores:
            raise ValueError("at least one store is required")
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.stores = dict(stores)
        self.num_threads = num_threads
        self.lock_manager = lock_manager
        self.retry_policy = retry_policy if retry_policy is not None else NO_RETRY
        #: Optional health observer notified per terminal outcome: an object
        #: with ``on_success(tier)`` / ``on_failure(tier, error)`` (e.g. the
        #: path-health tracker in :mod:`repro.core.virtual_tier`).  Set after
        #: construction; exceptions it raises are swallowed — observation
        #: must never fail I/O.
        self.observer = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=num_threads, thread_name_prefix="repro-aio"
        )
        self._slots = threading.Semaphore(queue_depth)
        self._stats: Dict[str, TierIOStats] = {
            name: TierIOStats(backend=str(getattr(store, "backend_name", "thread")))
            for name, store in self.stores.items()
        }
        self._stats_lock = threading.Lock()
        self._closed = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # -- submission ------------------------------------------------------

    def submit(self, request: IORequest) -> "concurrent.futures.Future[IOResult]":
        """Submit a request and return a future for its :class:`IOResult`.

        The future's result always carries any error in ``IOResult.error``;
        the future itself only raises for programming errors (engine closed,
        unknown tier) detected at submission time.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if request.tier not in self.stores:
            raise KeyError(f"unknown tier {request.tier!r}; known: {sorted(self.stores)}")
        if request.kind is IOKind.WRITE and request.array is None:
            raise ValueError("write request requires an array")
        self._slots.acquire()
        with self._inflight_lock:
            self._inflight += 1
        try:
            return self._pool.submit(self._execute, request)
        except BaseException:
            self._slots.release()
            with self._inflight_lock:
                self._inflight -= 1
            raise

    def read(self, tier: str, key: str, *, worker: str = "worker0") -> "concurrent.futures.Future[IOResult]":
        """Convenience wrapper submitting an asynchronous read."""
        return self.submit(IORequest(kind=IOKind.READ, tier=tier, key=key, worker=worker))

    def read_into(
        self, tier: str, key: str, out: np.ndarray, *, worker: str = "worker0"
    ) -> "concurrent.futures.Future[IOResult]":
        """Submit a zero-copy read that deserializes directly into ``out``.

        Buffer ownership: ``out`` is lent to the engine until the returned
        future completes — the caller must not write to it, release it to a
        pool, or let it go out of scope before then.  On success the result's
        ``array`` *is* ``out``; on failure ``out``'s contents are undefined.
        Thread-safe: may be called from any thread, and the read executes on
        an I/O pool thread.
        """
        return self.submit(
            IORequest(kind=IOKind.READ, tier=tier, key=key, worker=worker, out=out)
        )

    def read_into_multi(
        self,
        parts: "Sequence[Tuple[str, str, np.ndarray]]",
        out: np.ndarray,
        *,
        key: str = "",
        tier_label: str = "striped",
        worker: str = "worker0",
    ) -> "concurrent.futures.Future[IOResult]":
        """Fan one logical zero-copy read out across multiple paths at once.

        ``parts`` is a sequence of ``(tier, key, destination)`` triples —
        typically one stripe per physical path, with each destination a
        contiguous slice of ``out`` (see
        :meth:`repro.tiers.striped_store.StripedStore.plan_load`).  Every
        part is submitted as its own request, so stripes run concurrently on
        the I/O threads, each path throttled by its own store's bandwidth
        channel, and per-tier statistics account each stripe against the
        tier that served it.

        Returns a single aggregate future that completes when *all* parts
        have: ``nbytes`` sums the stripes, ``seconds`` is the slowest
        stripe's latency (the paths run in parallel), ``array`` is ``out``,
        and ``error`` is the first failing part's error, if any.

        Buffer ownership: ``out`` (and therefore every slice in ``parts``)
        is lent to the engine until the aggregate future completes; releasing
        the buffer earlier races the in-flight ``readinto`` calls.
        """
        part_list = list(parts)
        if not part_list:
            raise ValueError("read_into_multi requires at least one part")
        futures = [
            self.submit(IORequest(kind=IOKind.READ, tier=tier, key=part_key, worker=worker, out=dest))
            for tier, part_key, dest in part_list
        ]
        request = IORequest(kind=IOKind.READ, tier=tier_label, key=key, worker=worker, out=out)
        return self._aggregate_parts(futures, request, array_on_success=out)

    def write(
        self, tier: str, key: str, array: np.ndarray, *, worker: str = "worker0"
    ) -> "concurrent.futures.Future[IOResult]":
        """Convenience wrapper submitting an asynchronous write."""
        return self.submit(
            IORequest(kind=IOKind.WRITE, tier=tier, key=key, array=array, worker=worker)
        )

    def write_multi(
        self,
        parts: "Sequence[Tuple[str, str, np.ndarray]]",
        *,
        key: str = "",
        tier_label: str = "striped",
        worker: str = "worker0",
    ) -> "concurrent.futures.Future[IOResult]":
        """Fan one logical write out across multiple paths concurrently.

        The write-side mirror of :meth:`read_into_multi`: ``parts`` is a
        sequence of ``(tier, key, payload)`` triples — typically one stripe
        per physical path (see
        :meth:`repro.tiers.striped_store.StripedStore.plan_save`) — each
        submitted as its own request so the paths absorb their stripes
        simultaneously, each charged on its own store's bandwidth channel.

        Returns one aggregate future completing when *all* parts have:
        ``nbytes`` sums the stripes, ``seconds`` is the slowest stripe's
        latency, and ``error`` is the first failing part's error, if any.

        Buffer ownership: every payload in ``parts`` is lent to the engine
        until the aggregate future completes; callers must not mutate or
        recycle the backing buffer before then.
        """
        part_list = list(parts)
        if not part_list:
            raise ValueError("write_multi requires at least one part")
        futures = [
            self.submit(
                IORequest(kind=IOKind.WRITE, tier=tier, key=part_key, worker=worker, array=payload)
            )
            for tier, part_key, payload in part_list
        ]
        request = IORequest(kind=IOKind.WRITE, tier=tier_label, key=key, worker=worker)
        return self._aggregate_parts(futures, request)

    @staticmethod
    def _aggregate_parts(
        futures: "Sequence[concurrent.futures.Future[IOResult]]",
        request: IORequest,
        *,
        array_on_success: Optional[np.ndarray] = None,
    ) -> "concurrent.futures.Future[IOResult]":
        """One future over many part requests (shared by the multi fan-outs).

        Completes when every part has: ``nbytes`` sums the parts,
        ``seconds`` is the slowest part's latency (the paths run in
        parallel), ``error`` is the first failing part's error in part
        order (deterministic), and ``array`` is ``array_on_success`` only
        when every part succeeded.
        """
        aggregate: "concurrent.futures.Future[IOResult]" = concurrent.futures.Future()
        remaining = [len(futures)]
        remaining_lock = threading.Lock()

        def _on_part_done(_future: "concurrent.futures.Future[IOResult]") -> None:
            with remaining_lock:
                remaining[0] -= 1
                if remaining[0]:
                    return
            nbytes = 0
            seconds = 0.0
            attempts = 0
            error: Optional[BaseException] = None
            for future in futures:  # part order => deterministic first error
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001 - surfaced via aggregate
                    error = error or exc
                    continue
                except BaseException as exc:
                    # KeyboardInterrupt/SystemExit: re-raise at the await
                    # instead of dressing it up as an I/O failure.
                    aggregate.set_exception(exc)
                    return
                nbytes += result.nbytes
                seconds = max(seconds, result.seconds)
                attempts = max(attempts, result.attempts)
                if error is None and not result.ok:
                    error = result.error
            aggregate.set_result(
                IOResult(
                    request=request,
                    nbytes=nbytes,
                    seconds=seconds,
                    array=None if error is not None else array_on_success,
                    error=error,
                    attempts=max(1, attempts),
                )
            )

        for future in futures:
            future.add_done_callback(_on_part_done)
        return aggregate

    # -- execution -------------------------------------------------------

    def _execute(self, request: IORequest) -> IOResult:
        # KeyboardInterrupt/SystemExit deliberately escape every handler
        # below: the pool future then *raises* at the await instead of
        # reporting a result, and the finally still releases the queue slot.
        start = time.perf_counter()
        policy = self.retry_policy
        deadline = (
            start + policy.deadline_seconds if policy.deadline_seconds > 0 else None
        )
        lease = None
        attempts = 0
        timed_out = False
        last_error: Optional[Exception] = None
        try:
            if self.lock_manager is not None:
                lease = self.lock_manager.acquire(request.tier, request.worker)
            store = self.stores[request.tier]
            while True:
                attempts += 1
                try:
                    result = self._attempt(request, store, start, attempts)
                except Exception as exc:  # noqa: BLE001 - reported via the result
                    last_error = exc
                else:
                    self._record(request, result)
                    self._notify_observer(request.tier, None)
                    return result
                if attempts >= policy.attempts or not policy.is_transient(last_error):
                    break
                delay = policy.backoff(attempts)
                if deadline is not None and time.perf_counter() + delay > deadline:
                    timed_out = True
                    break
                self._record_retry(request.tier)
                if delay > 0:
                    time.sleep(delay)
        except Exception as exc:  # noqa: BLE001 - lease/lookup failure
            last_error = exc
        finally:
            if lease is not None:
                lease.release()
            self._slots.release()
            with self._inflight_lock:
                self._inflight -= 1
        assert last_error is not None
        # Tag the error with the tier that produced it: aggregate futures
        # (striped fan-outs) erase per-part identity, and the degradation
        # machinery needs to know *which* path died.
        try:
            last_error.repro_tier = request.tier  # type: ignore[attr-defined]
        except AttributeError:  # pragma: no cover - exotic slotted exception
            pass
        self._record_failure(request.tier, timed_out=timed_out)
        self._notify_observer(request.tier, last_error)
        return IOResult(
            request=request,
            nbytes=0,
            seconds=time.perf_counter() - start,
            error=last_error,
            attempts=attempts,
            timed_out=timed_out,
        )

    def _attempt(
        self, request: IORequest, store: BlobStore, start: float, attempts: int
    ) -> IOResult:
        """One try of ``request`` against ``store`` (raises on failure)."""
        if request.kind is IOKind.READ:
            if request.out is not None:
                array = store.load_into(request.key, request.out)
            else:
                array = store.read(request.key)
            return IOResult(
                request=request,
                nbytes=int(array.nbytes),
                seconds=time.perf_counter() - start,
                array=array,
                attempts=attempts,
            )
        assert request.array is not None
        store.save_from(request.key, request.array)
        # Account payload bytes (not the small container header) so
        # read and write counters are directly comparable.
        return IOResult(
            request=request,
            nbytes=int(request.array.nbytes),
            seconds=time.perf_counter() - start,
            attempts=attempts,
        )

    def _record(self, request: IORequest, result: IOResult) -> None:
        with self._stats_lock:
            stats = self._stats[request.tier]
            if request.kind is IOKind.READ:
                stats.bytes_read += result.nbytes
                stats.read_ops += 1
                stats.read_seconds += result.seconds
            else:
                stats.bytes_written += result.nbytes
                stats.write_ops += 1
                stats.write_seconds += result.seconds

    def _record_retry(self, tier: str) -> None:
        with self._stats_lock:
            self._stats[tier].retries += 1

    def _record_failure(self, tier: str, *, timed_out: bool) -> None:
        with self._stats_lock:
            stats = self._stats[tier]
            stats.failures += 1
            if timed_out:
                stats.timeouts += 1

    def _notify_observer(self, tier: str, error: Optional[BaseException]) -> None:
        observer = self.observer
        if observer is None:
            return
        try:
            if error is None:
                observer.on_success(tier)
            else:
                observer.on_failure(tier, error)
        except Exception:  # noqa: BLE001 - observation must never fail I/O
            _LOG.exception("I/O health observer raised; ignoring")

    # -- lifecycle & introspection ---------------------------------------

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def tier_stats(self, tier: str) -> TierIOStats:
        with self._stats_lock:
            stats = self._stats[tier]
            return TierIOStats(
                bytes_read=stats.bytes_read,
                bytes_written=stats.bytes_written,
                read_ops=stats.read_ops,
                write_ops=stats.write_ops,
                read_seconds=stats.read_seconds,
                write_seconds=stats.write_seconds,
                retries=stats.retries,
                failures=stats.failures,
                timeouts=stats.timeouts,
                backend=stats.backend,
            )

    def retry_totals(self) -> Tuple[int, int, int]:
        """Engine-wide ``(retries, failures, timeouts)`` across every tier."""
        with self._stats_lock:
            return (
                sum(s.retries for s in self._stats.values()),
                sum(s.failures for s in self._stats.values()),
                sum(s.timeouts for s in self._stats.values()),
            )

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until all in-flight requests have completed."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while self.inflight:
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError(f"{self.inflight} requests still in flight")
            time.sleep(0.001)

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "AsyncIOEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
