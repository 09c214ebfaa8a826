"""Host-speed probe: measures how fast this host runs a fixed reference
burst while the benchmark's jobs run, so that job times can be expressed
in seconds of a host running at a fixed reference speed.

On a VM that shares its host with other tenants, the same code runs up to
1.6x slower for stretches of seconds to minutes, and a process's CPU time
slows with its wall time (the slowdown is contention for the host's cores
and caches, not descheduling).  A probe interrupts the measured process
every `PERIOD_S` seconds of wall time (SIGALRM) and, in the signal
handler, runs a reference burst twice and times the second run.  The
timed run's duration against `REFERENCE_BURST_S`, its median duration on
the reference host, gives the host's speed for the interval before it.  A job's reference
seconds are its wall seconds outside the interruptions, each interval
scaled by the speed measured at its end.

The burst is pure-Python interpreter work of the kind sdag does
(sha256, dicts, tuples, sorting) and, for about two fifths of its time,
numpy passes of the kind its Monte Carlo does (exponential draws, cumsum),
so it slows with the host as the workloads do.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import time

import numpy as np

PERIOD_S = 0.1
# about the median duration of a timed burst during the workloads' jobs on
# the reference host: a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4
REFERENCE_BURST_S = 0.0021
# the burst writes into these buffers: allocating in a signal handler
# changes how the measured code's memory is laid out, and its peak RSS
_ARRAY = np.arange(50000, dtype=np.float64)
_SCALED = np.empty_like(_ARRAY)
_SUMS = np.empty_like(_ARRAY)
_RNG = np.random.Generator(np.random.Philox(0))
_DRAWS = np.empty((64, 512))
_ARRIVALS = np.empty_like(_DRAWS)
_LATE = np.empty(_DRAWS.shape, dtype=bool)
BURST_STEPS = 1000
# filled by the first burst; later bursts store the same keys and slots
_SEEN: dict[bytes, int] = {}
_ROWS: list = [None] * BURST_STEPS


def reference_burst() -> int:
    """A fixed amount of work; its duration measures the host's speed."""
    h = b"sdag"
    for i in range(BURST_STEPS):
        h = hashlib.sha256(h).digest()
        _SEEN[h[:6]] = i
        _ROWS[i] = (h[0], i, h[1:3])
    _ROWS.sort()
    np.multiply(_ARRAY, 1.0001, out=_SCALED)
    np.cumsum(_SCALED, out=_SUMS)
    _RNG.standard_exponential(out=_DRAWS)
    np.multiply(_DRAWS, 2.0, out=_DRAWS)
    np.cumsum(_DRAWS, axis=1, out=_ARRIVALS)
    np.greater(_ARRIVALS, 100.0, out=_LATE)
    return len(_SEEN) + int(_SUMS[-1]) % 7 + int(np.count_nonzero(_LATE))


class Probe:
    """Runs `reference_burst` every PERIOD_S seconds of wall time from
    `start` to `stop`, recording (handler entry, handler exit, timed burst
    seconds) for each interruption."""

    def __init__(self):
        self.bursts: list[tuple[float, float, float]] = []
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        # an untimed burst first refills the caches the measured code used,
        # and the collector, which would walk the measured code's heap, is
        # off, so that the timed burst does not depend on that code's state
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_burst()
            t0 = time.perf_counter()
            reference_burst()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.bursts.append((entered, t1, t1 - t0))

    def start(self) -> None:
        if self._previous is not None:
            raise RuntimeError("probe already running")
        reference_burst()  # fills the burst's containers outside the handler
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end]: each stretch
        between interruptions, scaled by the speed the burst at its end
        measured; the stretch after the last one takes that burst's speed.
        Without an interruption in the interval, the nearest one's."""
        inside = [b for b in self.bursts if start < b[1] <= end]
        if not inside:
            if not self.bursts:
                raise RuntimeError("the probe recorded no burst")
            d = min(self.bursts, key=lambda b: abs(b[1] - end))[2]
            return (end - start) * REFERENCE_BURST_S / d
        total = 0.0
        previous = start
        for entered, left, d in inside:
            total += max(0.0, entered - previous) * REFERENCE_BURST_S / d
            previous = left
        total += (end - previous) * REFERENCE_BURST_S / inside[-1][2]
        return total

    def burst_speeds(self, start: float, end: float) -> list[float]:
        """Speed (reference burst seconds over burst seconds) of each burst
        in [start, end]."""
        return [REFERENCE_BURST_S / d for _e, left, d in self.bursts if start < left <= end]
