"""Bandwidth throttling for functional storage tiers.

The functional engine runs on whatever disk backs the test machine, which is
usually *much* faster (page cache) or occasionally much slower than the
paper's NVMe/PFS.  To let small functional experiments reproduce the paper's
*relative* tier speeds, stores can be throttled to a configured bandwidth.

Two modes are supported:

* ``simulate=True`` (default): no real sleeping — the throttle only accounts
  the time a transfer *would* have taken at the configured bandwidth and
  returns it, so experiments stay fast while timing-derived metrics remain
  meaningful.
* ``simulate=False``: the throttle actually sleeps, pacing real I/O.  Useful
  for demonstrations where wall-clock behaviour should match the model.
  Concurrent transfers are *serialized* against the device's timeline: each
  transfer reserves the next free slot and sleeps until its slot ends, so N
  parallel requests share the configured bandwidth instead of each enjoying
  it in full — the aggregate throughput cap of a real NVMe/PFS (Figure 4).
"""

from __future__ import annotations

import threading
import time


class BandwidthThrottle:
    """Token-bucket style pacing of byte transfers.

    Parameters
    ----------
    bytes_per_second:
        Target sustained bandwidth.
    simulate:
        If ``True``, :meth:`consume` returns the modelled transfer time
        without sleeping.  If ``False``, it sleeps to enforce the pace.
    latency:
        Fixed per-operation latency (seconds) added to every transfer,
        modelling submission + device latency.
    duplex:
        When ``True`` (pacing mode only), reads and writes are serialized on
        *independent* device timelines — the full-duplex behaviour of NVMe
        and PFS links, whose read and write bandwidths Table 1 lists
        separately.  When ``False`` (default, conservative), one shared
        timeline serializes all transfers regardless of direction.
    write_bytes_per_second:
        Optional separate write bandwidth.  When given, reads are charged at
        ``bytes_per_second`` and writes at this rate — matching Table 1's
        asymmetric read/write columns (e.g. Testbed-2's NVMe reads 13.5 GB/s
        but writes 4.8 GB/s).  When omitted, both directions share
        ``bytes_per_second``.
    """

    def __init__(
        self,
        bytes_per_second: float,
        *,
        simulate: bool = True,
        latency: float = 0.0,
        duplex: bool = False,
        write_bytes_per_second: "float | None" = None,
    ) -> None:
        if bytes_per_second <= 0:
            raise ValueError("bytes_per_second must be positive")
        if write_bytes_per_second is not None and write_bytes_per_second <= 0:
            raise ValueError("write_bytes_per_second must be positive when given")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.bytes_per_second = float(bytes_per_second)
        self.write_bytes_per_second = (
            float(write_bytes_per_second) if write_bytes_per_second is not None else None
        )
        self.simulate = simulate
        self.latency = float(latency)
        self.duplex = duplex
        self._lock = threading.Lock()
        self._consumed_bytes = 0
        self._charged_seconds = 0.0
        #: Monotonic timestamp when each modelled device channel next becomes
        #: free (pacing mode only); half-duplex throttles use one channel.
        self._busy_until: dict = {}

    def transfer_time(self, nbytes: int, *, direction: str = "read") -> float:
        """Modelled time to move ``nbytes`` at the configured bandwidth.

        ``direction`` picks the write rate when a separate
        ``write_bytes_per_second`` was configured; otherwise both directions
        use the shared rate.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        rate = self.bytes_per_second
        if direction == "write" and self.write_bytes_per_second is not None:
            rate = self.write_bytes_per_second
        return self.latency + nbytes / rate

    def consume(self, nbytes: int, *, direction: str = "read") -> float:
        """Charge a transfer of ``nbytes`` and return the time charged (seconds).

        In pacing mode (``simulate=False``) the transfer is queued on the
        device timeline: it starts when the device (or, for duplex throttles,
        the per-direction channel) frees up, so concurrent consumers split
        the configured bandwidth rather than multiplying it.  ``direction``
        ("read"/"write") picks the channel and is ignored for half-duplex.
        """
        cost = self.transfer_time(nbytes, direction=direction)
        wait = 0.0
        with self._lock:
            self._consumed_bytes += nbytes
            self._charged_seconds += cost
            if not self.simulate and cost > 0:
                channel = direction if self.duplex else "shared"
                now = time.monotonic()
                start = max(now, self._busy_until.get(channel, 0.0))
                self._busy_until[channel] = start + cost
                wait = self._busy_until[channel] - now
        if wait > 0:
            time.sleep(wait)
        return cost

    @property
    def consumed_bytes(self) -> int:
        with self._lock:
            return self._consumed_bytes

    @property
    def charged_seconds(self) -> float:
        with self._lock:
            return self._charged_seconds

    def reset(self) -> None:
        with self._lock:
            self._consumed_bytes = 0
            self._charged_seconds = 0.0
