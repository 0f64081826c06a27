"""A clock that runs at the host's undisturbed speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow
this process down in bursts that last from tens of milliseconds to
minutes.  On a 2-core x86_64 host the same Python code ran about 1.7 to 1.9
times slower in a burst, in CPU time as much as in wall time, and a pass of
tens of seconds read up to 40% slower or faster from one run to the next
with no change in the program.

``HostClock`` measures that slowdown while the program runs.  A profiling
timer (``ITIMER_PROF``) interrupts the process after every ``INTERVAL_S``
of its CPU time, and the handler runs ``probe()`` twice: a fixed piece of
work of the same kind as the program's (small numpy vectors and exact
rational arithmetic in an interpreted loop).  The first run only brings the
probe back into the caches the program has just used; the duration of the
second says how fast the host runs at that moment.

``seconds(a, b)`` is the time from ``a`` to ``b`` (``time.perf_counter``
readings) spent outside the probes, with each stretch between two probes
divided by the median duration of the ``WINDOW`` probes around it and
multiplied by ``PROBE_NOMINAL_S``: the time the program would have taken
at the speed where the probe lasts ``PROBE_NOMINAL_S``.  That constant is
about the probe's duration on the undisturbed host above, so the figures
read close to seconds there; on other hardware they are seconds of that
hardware scaled by a fixed factor.  The probe is part of the benchmark,
not of fejerflow, so a change to fejerflow does not change the unit.
The probes cost about 4-7% of the run, which the clock leaves out.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.01         # process CPU time between two probes
WINDOW = 5                # probes whose median gives the speed of a stretch
PROBE_NOMINAL_S = 0.0002  # the probe's duration at the reference speed


def probe() -> float:
    """A fixed piece of work (RK4 steps on a 2-vector, a few exact rational
    operations); returns a number so that nothing is optimised away."""
    y = np.array([1.0, 0.5])
    h = 0.01
    for _ in range(12):
        k1 = -y
        k2 = -(y + h / 2 * k1)
        k3 = -(y + h / 2 * k2)
        k4 = -(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    f = Fraction(1, 3)
    for _ in range(12):
        f = (f * f + Fraction(1, 7)) / 2
        f = Fraction(f.numerator % 10 ** 12 + 1, f.denominator % 10 ** 12 + 1)
    return float(np.linalg.norm(y)) + float(f)


class HostClock:
    def __init__(self) -> None:
        self.origin = None
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []  # duration of the second, warm probe
        self._previous = None

    def _handler(self, signum, frame) -> None:
        # the program's garbage is collected in the program, not in the probe
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe()  # warms the caches: the program has just evicted the probe
            t1 = time.perf_counter()
            probe()
            t2 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t2)
        self.speeds.append(t2 - t1)

    def start(self) -> None:
        self.origin = time.perf_counter()
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._build()

    def probe_summary(self) -> dict:
        """How many probes ran, and percentiles of their durations in ms."""
        qs = (1, 10, 50, 90, 99)
        return {"count": len(self.speeds), "percentiles_ms": dict(zip(
            map(str, qs), (float(x) * 1e3 for x in np.percentile(self.speeds, qs))))}

    def _build(self) -> None:
        if not self.starts:
            raise RuntimeError("no host-speed probe ran")
        s = np.array(self.starts)
        e = np.array(self.ends)
        p = np.array(self.speeds)
        # stretch k runs from the end of probe k-1 (the origin for k = 0)
        # to the start of probe k (open-ended after the last probe); its
        # speed is the median of the WINDOW probes nearest to it, so that a
        # probe slowed by an interrupt does not count alone
        self._gap_start = np.concatenate(([self.origin], e))
        self._gap_end = np.concatenate((s, [np.inf]))
        half = WINDOW // 2
        padded = np.pad(p, (half, half), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
        self._gap_probe = np.median(windows, axis=1)
        self._gap_probe = np.concatenate((self._gap_probe, [self._gap_probe[-1]]))
        lengths = np.maximum(self._gap_end[:-1] - self._gap_start[:-1], 0.0)
        self._cum = np.concatenate(([0.0], np.cumsum(lengths / self._gap_probe[:-1])))

    def _at(self, t: float) -> float:
        k = int(np.searchsorted(self._gap_start, t, side="right")) - 1
        if k < 0:
            raise ValueError("time before the clock started")
        inside = min(t, self._gap_end[k]) - self._gap_start[k]
        return float(self._cum[k] + max(inside, 0.0) / self._gap_probe[k])

    def seconds(self, a: float, b: float) -> float:
        """Time from a to b outside the probes, at the reference speed."""
        return (self._at(b) - self._at(a)) * PROBE_NOMINAL_S
