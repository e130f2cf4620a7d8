"""Fluid (processor-sharing) resources for the discrete-event simulator.

Every shared device — an NVMe drive, a PFS mount, the PCIe link, the node's
CPU update capacity — is modelled as a :class:`FluidResource` with a nominal
capacity in units/second (bytes/s or parameters/s).  Concurrent transfers on
a resource share its capacity equally (processor sharing), optionally
degraded by a *contention penalty* that models the per-process overhead of
uncoordinated access observed in the paper's Figure 4/Figure 9 (aggregate
NVMe throughput drops from 5.3 GB/s to ~3.2 GB/s when four worker processes
hammer it concurrently).

Resources may also be marked *exclusive*: at most one distinct owner may have
active transfers at any time, and other owners' transfers queue — this is how
the simulator realizes MLP-Offload's tier-exclusive concurrency control.

:class:`FluidSimulation` advances time by repeatedly finding the next
transfer completion under the current rate assignment.  Rates only change at
completion (or admission) events, so the piecewise-constant integration is
exact for this model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class FluidResource:
    """One capacity-shared device.

    Attributes
    ----------
    name:
        Identifier used in results and for lock bookkeeping.
    capacity:
        Nominal capacity in units/second.
    exclusive:
        If ``True``, only one owner's transfers may be active at a time;
        other owners' transfers wait in FIFO order (tier-exclusive locks).
    contention_penalty:
        Per-extra-owner efficiency loss applied when ``exclusive`` is
        ``False``: with ``k`` distinct owners active the usable aggregate
        capacity is ``capacity / (1 + contention_penalty * (k - 1))``.
        ``0`` means ideal sharing.
    """

    name: str
    capacity: float
    exclusive: bool = False
    contention_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"resource {self.name!r} must have positive capacity")
        if self.contention_penalty < 0:
            raise ValueError("contention_penalty must be non-negative")

    def effective_capacity(self, distinct_owners: int) -> float:
        """Aggregate usable capacity with ``distinct_owners`` concurrent owners."""
        if distinct_owners <= 1:
            return self.capacity
        return self.capacity / (1.0 + self.contention_penalty * (distinct_owners - 1))


@dataclass
class Transfer:
    """One unit of work on a resource (a fetch, a flush, a compute slice)."""

    resource: FluidResource
    units: float
    owner: str
    label: str = ""
    on_complete: Optional[Callable[["Transfer", float], None]] = None
    remaining: float = field(init=False)
    started_at: Optional[float] = field(default=None, init=False)
    completed_at: Optional[float] = field(default=None, init=False)
    admitted: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.units < 0:
            raise ValueError("transfer units must be non-negative")
        self.remaining = float(self.units)

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def duration(self) -> float:
        if self.started_at is None or self.completed_at is None:
            raise RuntimeError("transfer has not completed")
        return self.completed_at - self.started_at


class FluidSimulation:
    """Processor-sharing discrete-event simulation over a set of resources."""

    def __init__(self) -> None:
        self.now = 0.0
        self._active: Dict[str, List[Transfer]] = {}
        self._queued: Dict[str, List[Transfer]] = {}
        self._resources: Dict[str, FluidResource] = {}
        self._counter = itertools.count()

    # -- submission ---------------------------------------------------------

    def submit(self, transfer: Transfer) -> Transfer:
        """Register a transfer; it becomes active immediately unless its
        resource is exclusive and held by a different owner."""
        resource = transfer.resource
        self._resources.setdefault(resource.name, resource)
        self._active.setdefault(resource.name, [])
        self._queued.setdefault(resource.name, [])
        if transfer.units == 0:
            transfer.started_at = self.now
            transfer.completed_at = self.now
            if transfer.on_complete is not None:
                transfer.on_complete(transfer, self.now)
            return transfer
        if self._admissible(transfer):
            self._admit(transfer)
        else:
            self._queued[resource.name].append(transfer)
        return transfer

    def _admissible(self, transfer: Transfer) -> bool:
        resource = transfer.resource
        if not resource.exclusive:
            return True
        owners = {t.owner for t in self._active[resource.name]}
        return not owners or owners == {transfer.owner}

    def _admit(self, transfer: Transfer) -> None:
        transfer.admitted = True
        transfer.started_at = self.now
        self._active[transfer.resource.name].append(transfer)

    # -- execution ------------------------------------------------------------

    def _rates(self) -> Dict[int, float]:
        """Current per-transfer rates keyed by ``id(transfer)``."""
        rates: Dict[int, float] = {}
        for name, transfers in self._active.items():
            if not transfers:
                continue
            resource = self._resources[name]
            owners = {t.owner for t in transfers}
            capacity = resource.effective_capacity(len(owners))
            share = capacity / len(transfers)
            for transfer in transfers:
                rates[id(transfer)] = share
        return rates

    def _next_completion(self, rates: Dict[int, float]) -> Optional[float]:
        horizon: Optional[float] = None
        for transfers in self._active.values():
            for transfer in transfers:
                rate = rates.get(id(transfer), 0.0)
                if rate <= 0:
                    continue
                eta = transfer.remaining / rate
                if horizon is None or eta < horizon:
                    horizon = eta
        return horizon

    def step(self) -> bool:
        """Advance to the next completion event.  Returns ``False`` when idle."""
        rates = self._rates()
        horizon = self._next_completion(rates)
        if horizon is None:
            return False
        self.now += horizon
        completed: List[Transfer] = []
        for name, transfers in self._active.items():
            still_active: List[Transfer] = []
            for transfer in transfers:
                rate = rates.get(id(transfer), 0.0)
                transfer.remaining -= rate * horizon
                if transfer.remaining <= 1e-9:
                    transfer.remaining = 0.0
                    transfer.completed_at = self.now
                    completed.append(transfer)
                else:
                    still_active.append(transfer)
            self._active[name] = still_active
        # Promote queued transfers on resources that freed up.
        for name, queue in self._queued.items():
            if not queue:
                continue
            promoted: List[Transfer] = []
            for transfer in list(queue):
                if self._admissible(transfer):
                    queue.remove(transfer)
                    self._admit(transfer)
                    promoted.append(transfer)
            # (promotion order is FIFO per resource by construction)
        for transfer in completed:
            if transfer.on_complete is not None:
                transfer.on_complete(transfer, self.now)
        return True

    def run(self, *, max_events: int = 10_000_000) -> float:
        """Run until every submitted transfer has completed; returns the final clock."""
        events = 0
        while self.step():
            events += 1
            if events > max_events:
                raise RuntimeError("simulation exceeded the event budget (livelock?)")
        pending = sum(len(q) for q in self._queued.values())
        if pending:
            raise RuntimeError(f"simulation stalled with {pending} queued transfers")
        return self.now

    # -- introspection -----------------------------------------------------------

    def busy(self) -> bool:
        return any(self._active.values()) or any(self._queued.values())
