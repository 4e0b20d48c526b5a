"""Machine-speed probe: a fixed calibration loop, timed again and again during a run.

The reference machine (a shared 2-core VM) switches between a fast and a slow
state every few seconds, up to 2x apart, because of other tenants, not this
program. The drift is too slow for a longer run to average it out: run-to-run
spreads of raw times were 10-40%. So the time of every operation behind the
end-to-end metrics (all but setup_s) is scaled to a nominal machine speed:
raw time x the mean of NOMINAL_S / calibration time over the probe samples
around the operation. Raw times are printed next to the metrics. The calibration mixes interpreter
work (dicts, tuples, small loops, as in the exact checks) with cache-resident
numpy gathers (as in the kernels), a mix whose slow/fast ratio is close to
the workloads'; it does not touch mtgames, so no change to the program can
move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0018    # calibration time at the nominal speed, typical of the reference VM
INTERVAL_S = 0.1      # probe period during a run
WINDOW_S = 0.3        # samples this close to an operation describe its speed

_TABLE = np.arange(1 << 14, dtype=np.int32)
_INDEX = (np.arange(1 << 17, dtype=np.int64) * 7919) & ((1 << 14) - 1)


def _work() -> int:
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for k in range(2500):
        key = (k & 63, k % 7)
        acc += seen.get(key, k) % 5
        seen[key] = acc
    for _ in range(2):
        acc += int(np.take(_TABLE, _INDEX).sum() & 1)
    return acc


def calibrate() -> float:
    """Run the calibration loop twice; return the second, cache-warm duration.

    Timing a warm pass keeps the workload's own cache footprint out of it,
    and pausing the garbage collector keeps the size of its heap out."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Probe:
    """Times ``calibrate()`` every INTERVAL_S from a SIGALRM handler.

    The handler runs on the main thread between bytecodes, so it may land
    inside a timed operation; ``busy`` accumulates its own time so callers
    can take it out of what they measure.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)
        self.busy = 0.0
        self._previous = None
        self._times: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        dur = calibrate()
        self.samples.append((t0 + dur / 2, dur))
        self.busy += perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._times = [t for t, _ in self.samples]

    def since(self, first: int) -> float:
        """Speed relative to nominal over the samples from index ``first`` on
        (the last sample if there is none yet), during the run."""
        recent = [d for _, d in self.samples[first:] or self.samples[-1:]]
        return statistics.fmean(NOMINAL_S / d for d in recent) if recent else 1.0

    def scale(self, t0: float, t1: float) -> float:
        """Mean speed around [t0, t1] relative to nominal, after the run.

        Samples are evenly spaced, so over a long operation the mean of
        NOMINAL_S / calibration time weights each stretch by its duration."""
        lo = bisect.bisect_left(self._times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._times, t1 + WINDOW_S)
        near = [d for _, d in self.samples[lo:hi]] or [d for _, d in self.samples]
        return statistics.fmean(NOMINAL_S / d for d in near)
