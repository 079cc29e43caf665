"""Host-speed reference: a fixed loop, timed every 25 ms while a workload runs.

On a shared host the speed of one core drifts by up to a factor of two within
minutes, as other tenants come and go; CPU time drifts with it, because the
core itself gets slower.  Raw wall times of the same work then spread by
20-40% across runs.  A SIGALRM handler runs a fixed pure-Python loop
(the Tribonacci recurrence modulo a 101-bit number) every INTERVAL_S of wall
time in the worker's main thread and records how long it took.  A time
measured over an interval is scaled by NOMINAL_S / (mean loop time in that
interval), which is the time it would have taken on a host where the loop
takes NOMINAL_S.  The handler's own time (under 1% of the run) is taken out
first.  The loop is the benchmark's code, so a change to the program moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.025
NOMINAL_S = 175e-6  # the loop's time on the reference host, in its usual state
_MODULUS = (1 << 100) + 277


def reference() -> None:
    """The fixed loop whose duration measures the host's current speed."""
    a, b, c = 0, 1, 1
    for _ in range(700):
        a, b, c = b, c, (a + b + c) % _MODULUS


def reference_time(repeats: int = 20) -> float:
    """Mean duration of `repeats` back-to-back runs of the loop."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        reference()
    return (time.perf_counter() - t0) / repeats


class HostClock:
    """Context manager that samples the reference loop every INTERVAL_S."""

    def __init__(self):
        self.stamps = []  # start of each sample (perf_counter seconds)
        self.samples = []  # its duration

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.stamps.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, duration: float, fallback: float) -> float:
        """duration, measured from start, without the handler's time and scaled to
        nominal speed by the samples within one interval of it (else by fallback,
        a mean loop time)."""
        lo = bisect.bisect_left(self.stamps, start - INTERVAL_S)
        hi = bisect.bisect_right(self.stamps, start + duration + INTERVAL_S)
        near = self.samples[lo:hi]
        inside = sum(s for t, s in zip(self.stamps[lo:hi], near) if start <= t < start + duration)
        mean = sum(near) / len(near) if near else fallback
        return (duration - inside) * NOMINAL_S / mean

    def mean(self, fallback: float) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else fallback
