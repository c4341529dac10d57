"""Timings scaled to a fixed machine speed.

On a shared virtual machine the same pure-Python loop runs 15-25% faster or
slower from one minute to the next, so raw wall times of identical work
spread more than any useful bound.  The clock therefore samples the
machine's current speed with a probe: a fixed loop of integer arithmetic,
run from a SIGALRM handler every PERIOD_S seconds, with the collector off.
The probe shares no code with the library, so no change to the library can
speed it up or slow it down.

``Clock.elapsed`` returns the wall time of an interval, less the time the
probe itself took inside it, multiplied by REFERENCE_S over the median
probe duration around that interval.  The result is in seconds as they
would read on a machine where the probe takes REFERENCE_S: the fastest
probe time seen on the 2-vCPU machine where the baseline was recorded.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.2
REFERENCE_S = 0.0006
NEAREST = 9  # probe samples used for an interval that contains fewer


def probe() -> int:
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


class Clock:
    def __init__(self) -> None:
        self.times: list[float] = []  # probe start times, increasing
        self.durations: list[float] = []
        self.probe_s = 0.0  # total time spent in the handler

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_) -> None:
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.times.append(start)
        self.durations.append(took)
        self.probe_s += time.perf_counter() - enter

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.probe_s

    def elapsed(self, mark: tuple[float, float]) -> tuple[float, float]:
        """(scaled seconds, wall seconds) since mark, probe time excluded."""
        end, probed = time.perf_counter(), self.probe_s
        wall = end - mark[0] - (probed - mark[1])
        lo = bisect.bisect_left(self.times, mark[0])
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < NEAREST:
            middle = bisect.bisect_left(self.times, (mark[0] + end) / 2)
            lo = max(0, min(middle - NEAREST // 2, len(self.times) - NEAREST))
            hi = min(len(self.times), lo + NEAREST)
        return wall * REFERENCE_S / statistics.median(self.durations[lo:hi]), wall

    def speed(self) -> float:
        """Median probe duration over REFERENCE_S: above 1 is a slow machine."""
        return statistics.median(self.durations) / REFERENCE_S
