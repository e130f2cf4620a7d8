"""Deterministic fault injection for tier I/O (the storage-path chaos layer).

PRs 6 and 8 gave the checkpoint *protocol* and the registry *service*
SIGKILL-grade fault matrices; this module does the same for the tier I/O
*core* underneath them.  A :class:`FaultInjectingStore` wraps any
``FileStore``-shaped backend (:class:`~repro.tiers.file_store.FileStore`,
a striped backend, a checkpoint blob store) and injects scheduled faults on
the data-plane operations — reads, writes — according to a
:class:`FaultPlan`:

=============   =============================================================
``eio``         transient ``OSError(EIO)`` (heals after ``count`` hits)
``dead``        persistent ``OSError(EIO)`` — a dead path (``count=0`` =
                forever, until the plan is disarmed or the path "repaired")
``enospc``      ``OSError(ENOSPC)`` — device full (writes)
``short-read``  a short payload read, surfaced as the store's own
                :class:`~repro.tiers.file_store.TruncatedBlobError`
``stall``       ``seconds`` of extra latency before the operation proceeds
                (a hung mount / congested PFS; trips per-request deadlines)
``torn-write``  writes a *truncated* blob directly under the final key —
                bypassing the temp+rename discipline — then raises
                ``OSError(EIO)``: the on-disk state a crashed legacy writer
                would leave, for exercising reader-side validation
=============   =============================================================

Fault schedules are deterministic: each rule carries a match counter, and
fires for matching operations number ``after .. after+count-1`` (``count=0``
= every matching operation from ``after`` on).  No randomness — a failing
chaos test replays exactly.

Two arming mechanisms, mirroring :mod:`repro.ckpt.faults`:

* **In-process** — :func:`arm_faults` installs a plan; every
  :class:`~repro.core.virtual_tier.VirtualTier` (and checkpoint blob store
  set) built while it is armed wraps its stores.  Unit tests use this, or
  construct :class:`FaultInjectingStore` directly.
* **Cross-process** — the environment variable ``REPRO_IO_FAULT`` holds a
  plan spec (see :meth:`FaultPlan.from_spec`), e.g.::

      REPRO_IO_FAULT="eio,op=read,tier=nvme,count=2;enospc,op=write,tier=pfs,count=0,after=10"

  so fault campaigns arm victims purely through their environment and the
  production code path under test is byte-for-byte the shipped one.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.tiers.file_store import TruncatedBlobError, _pack_meta
from repro.util.logging import get_logger

_LOG = get_logger("tiers.faultstore")

#: Environment variable arming a fault plan in worker processes.
FAULT_ENV = "REPRO_IO_FAULT"

#: Every fault kind a rule may inject.
FAULT_KINDS = ("eio", "dead", "enospc", "short-read", "stall", "torn-write")

#: Operations a rule may match (``any`` matches both).
FAULT_OPS = ("read", "write", "any")


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: what to inject, where, and when.

    A rule matches an operation when ``op`` covers its direction and the
    store name / blob key match the ``tier`` / ``key`` glob patterns.  The
    rule then *fires* for matching operations number ``after`` through
    ``after + count - 1`` (0-based, counted per rule across every store
    sharing the plan); ``count=0`` fires forever from ``after`` on.
    """

    kind: str
    op: str = "any"
    tier: str = "*"
    key: str = "*"
    count: int = 1
    after: int = 0
    #: Stall duration (``kind="stall"`` only).
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {FAULT_KINDS})")
        if self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r} (known: {FAULT_OPS})")
        if self.count < 0:
            raise ValueError("count must be >= 0 (0 = unlimited)")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")

    def matches(self, op: str, tier: str, key: str) -> bool:
        return (
            (self.op == "any" or self.op == op)
            and fnmatchcase(tier, self.tier)
            and fnmatchcase(key, self.key)
        )

    def to_spec(self) -> str:
        """The single-rule spec string parsed back by :meth:`FaultPlan.from_spec`."""
        fields = [self.kind]
        defaults = FaultRule(kind=self.kind)
        for name in ("op", "tier", "key", "count", "after", "seconds"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                fields.append(f"{name}={value}")
        return ",".join(fields)


class FaultPlan:
    """An ordered set of :class:`FaultRule`\\ s with shared firing counters.

    The plan owns each rule's match counter (thread-safe), so one plan
    instance shared by several wrapped stores counts matching operations
    *across* them — "the third write anywhere on pfs" is expressible.  The
    first rule that matches-and-fires wins for a given operation.
    """

    def __init__(self, rules: Sequence[FaultRule] = ()) -> None:
        self.rules: List[FaultRule] = list(rules)
        self._seen: List[int] = [0] * len(self.rules)
        self._injected: Dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, rule: FaultRule) -> "FaultPlan":
        with self._lock:
            self.rules.append(rule)
            self._seen.append(0)
        return self

    def next_fault(self, op: str, tier: str, key: str) -> Optional[FaultRule]:
        """The rule firing for this operation, advancing match counters."""
        with self._lock:
            fired: Optional[FaultRule] = None
            for i, rule in enumerate(self.rules):
                if not rule.matches(op, tier, key):
                    continue
                seen = self._seen[i]
                self._seen[i] = seen + 1
                if fired is None and seen >= rule.after and (
                    rule.count == 0 or seen < rule.after + rule.count
                ):
                    fired = rule
            if fired is not None:
                self._injected[fired.kind] = self._injected.get(fired.kind, 0) + 1
        return fired

    @property
    def injected(self) -> Dict[str, int]:
        """Faults actually fired so far, by kind (for test assertions)."""
        with self._lock:
            return dict(self._injected)

    @property
    def injected_total(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def reset(self) -> None:
        """Rewind every rule's counter (a fresh schedule over the same rules)."""
        with self._lock:
            self._seen = [0] * len(self.rules)
            self._injected.clear()

    def to_spec(self) -> str:
        """Serialize for the ``REPRO_IO_FAULT`` environment variable."""
        return ";".join(rule.to_spec() for rule in self.rules)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a plan spec: ``;``-separated rules of ``kind[,name=value...]``.

        Example::

            eio,op=read,tier=nvme,count=2;dead,op=write,tier=pfs,count=0,after=8
        """
        rules = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields = [f.strip() for f in chunk.split(",")]
            kwargs: Dict[str, object] = {"kind": fields[0]}
            for pair in fields[1:]:
                name, sep, value = pair.partition("=")
                if not sep:
                    raise ValueError(f"malformed fault rule field {pair!r} in {chunk!r}")
                name = name.strip()
                if name in ("count", "after"):
                    kwargs[name] = int(value)
                elif name == "seconds":
                    kwargs[name] = float(value)
                elif name in ("kind", "op", "tier", "key"):
                    kwargs[name] = value.strip()
                else:
                    raise ValueError(f"unknown fault rule field {name!r} in {chunk!r}")
            rules.append(FaultRule(**kwargs))  # type: ignore[arg-type]
        return cls(rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.to_spec()!r})"


# -- arming (mirrors repro.ckpt.faults) ----------------------------------

_active_plan: Optional[FaultPlan] = None
_arm_lock = threading.Lock()


def arm_faults(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` in-process; subsequently built tiers wrap their stores."""
    global _active_plan
    with _arm_lock:
        _active_plan = plan
    return plan


def clear_faults() -> None:
    """Disarm the in-process plan (tests call this in teardown)."""
    global _active_plan
    with _arm_lock:
        _active_plan = None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan: the in-process one, else a fresh parse of the env spec.

    Each call with only the environment armed returns a *new* plan (fresh
    counters) — callers capture it once at construction time, so every
    store set built under the arming runs the schedule from the top.
    """
    with _arm_lock:
        if _active_plan is not None:
            return _active_plan
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return None
    return FaultPlan.from_spec(spec)


def maybe_wrap(stores: Mapping[str, object], *, plan: Optional[FaultPlan] = None):
    """Wrap every store in ``stores`` when a fault plan is armed.

    Returns a plain dict — either the originals (nothing armed) or one
    :class:`FaultInjectingStore` per entry sharing a single plan instance.
    """
    plan = plan if plan is not None else active_plan()
    if plan is None:
        return dict(stores)
    return {name: FaultInjectingStore(store, plan) for name, store in stores.items()}


class FaultInjectingStore:
    """A fault-injecting proxy around one :class:`~repro.tiers.spec.BlobStore`.

    Data-plane operations (``read`` / ``load_into`` / ``load_into_chunks``
    on the read side, ``write`` / ``save_from`` on the write side) consult
    the plan before delegating; everything else — metadata, deletes,
    adopts, stats, attributes like ``name`` / ``root`` / ``throttle`` —
    passes straight through, so the wrapper is transparent to the engine,
    the striped composite and the checkpoint writer alike.

    Conformance note: this class satisfies ``BlobStore`` *structurally*
    (``isinstance`` via the runtime-checkable protocol, plus the shared
    conformance suite) but deliberately does **not** subclass it — the
    protocol's placeholder method bodies would be inherited as real methods
    and shadow the ``__getattr__`` delegation for everything the proxy does
    not intercept explicitly.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    # Explicit name/root: hot attributes, and __getattr__ keeps repr honest.
    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def root(self):
        return self.inner.root

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)

    # -- injection ---------------------------------------------------------

    def _inject(self, op: str, key: str, array: Optional[np.ndarray] = None) -> None:
        rule = self.plan.next_fault(op, self.inner.name, key)
        if rule is None:
            return
        _LOG.debug("injecting %s on %s %s/%s", rule.kind, op, self.inner.name, key)
        if rule.kind == "stall":
            time.sleep(rule.seconds)
            return
        if rule.kind == "torn-write" and op == "write" and array is not None:
            self._torn_write(key, array)
        if rule.kind == "enospc":
            raise OSError(errno.ENOSPC, f"injected device full ({op} {self.inner.name}/{key})")
        if rule.kind == "short-read":
            raise TruncatedBlobError(f"blob for {key!r} is truncated (injected short read)")
        # "eio", "dead", and a torn-write rule matched on the read side all
        # surface as an I/O error; "dead" differs only in its schedule
        # (count=0 = the path never comes back on its own).
        label = "dead path" if rule.kind == "dead" else "transient I/O error"
        raise OSError(errno.EIO, f"injected {label} ({op} {self.inner.name}/{key})")

    def _torn_write(self, key: str, array: np.ndarray) -> None:
        """Leave a truncated blob visible under the final key, then fail.

        This is the on-disk state the *legacy* (pre temp+rename) write path
        could leave after a mid-stream crash: header plus roughly half the
        payload under the published name.  Readers must reject it
        (``TruncatedBlobError``), which is exactly what the chaos tests
        assert.
        """
        contiguous = np.ascontiguousarray(array)
        meta = _pack_meta(contiguous)
        payload = memoryview(contiguous.reshape(-1)).cast("B")
        path = self.inner._path(key)
        with open(path, "wb") as handle:
            handle.write(meta)
            handle.write(payload[: max(0, len(payload) // 2)])
        raise OSError(errno.EIO, f"injected torn write (write {self.inner.name}/{key})")

    # -- intercepted data plane -------------------------------------------

    def read(self, key: str) -> np.ndarray:
        self._inject("read", key)
        return self.inner.read(key)

    def load_into(self, key: str, out: np.ndarray) -> np.ndarray:
        self._inject("read", key)
        return self.inner.load_into(key, out)

    def load_into_chunks(self, key: str, out: np.ndarray, **kwargs) -> np.ndarray:
        self._inject("read", key)
        return self.inner.load_into_chunks(key, out, **kwargs)

    def write(self, key: str, array: np.ndarray) -> int:
        self._inject("write", key, array)
        return self.inner.write(key, array)

    def save_from(self, key: str, array: np.ndarray) -> int:
        self._inject("write", key, array)
        return self.inner.save_from(key, array)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjectingStore({self.inner!r})"
