"""Task latencies in reference seconds, corrected for the host's speed.

On the reference machine (a 2-vCPU VM) the speed of interpreter-bound code
swings by up to a factor of two, in phases of about half a second, and
drifts from minute to minute.  Wall-clock latencies of one fixed task then
spread by 30-45% from run to run, more than any bound worth setting.

`SpeedProbe.time(fn)` times `fn` and, alongside it, a fixed calibration
kernel that does not touch matorder: a small symmetric eigensolve plus a
short pure-Python loop, the mix matorder's inner loops are made of.  The
kernel runs once before the call, once after it, and every PERIOD_S during
it (from a SIGALRM handler, between bytecodes).  Its own time is taken out
of the call's.  The call's latency in reference seconds is its wall time
times REF_KERNEL_S / (mean kernel time): the time it would have taken on a
host where the kernel takes REF_KERNEL_S, about its median on the reference
machine.  A faster matorder lowers the figure; a faster or slower host
leaves it where it was.
"""

from __future__ import annotations

import signal
import statistics

import numpy as np

PERIOD_S = 0.05
REF_KERNEL_S = 5e-4
KERNEL_REPS = 20


def plain_timer(clock):
    """Times a call without correction: (result, seconds, factor 1.0)."""
    def time_call(fn):
        t0 = clock()
        result = fn()
        return result, clock() - t0, 1.0
    return time_call


class SpeedProbe:
    """Times calls in reference seconds; see the module docstring."""

    def __init__(self, clock):
        self.clock = clock
        h = np.random.default_rng(0).standard_normal((10, 10))
        self._h = h + h.T
        self.samples: list[float] = []
        self.spent = 0.0

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(KERNEL_REPS):
            acc += float(np.linalg.eigvalsh(self._h)[0])
            acc += sum(j * j for j in range(30))
        return acc

    def sample(self, *_signal) -> None:
        t0 = self.clock()
        self._kernel()
        dt = self.clock() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        """Sample once, then every PERIOD_S until stop()."""
        self._first = len(self.samples)
        self.sample()
        self._spent0 = self.spent
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = self.clock()

    def stop(self) -> tuple[float, float]:
        """(wall seconds since start() without the kernel's, factor to
        reference seconds), after one last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = self.clock() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        busy = elapsed - (self.spent - self._spent0)
        self.sample()
        return busy, REF_KERNEL_S / statistics.fmean(self.samples[self._first:])

    def time(self, fn):
        """(fn's result, its wall seconds without the kernel's, factor to
        reference seconds)."""
        self.start()
        try:
            result = fn()
        finally:
            busy, factor = self.stop()
        return result, busy, factor
