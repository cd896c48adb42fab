"""A reference workload timed alongside the measured one.

On a shared host the CPU's speed shifts between regimes tens of percent
apart that last for minutes, so two runs of the same code differ by more
than most changes worth measuring.  While a run measures, SIGALRM runs a
fixed piece of pure-Python work every INTERVAL_S seconds and times it.  The
work is of the kind votelab does: small tuples, sorting, pairwise tallies
and Fraction sums.  A time reported at reference speed is the measured time
scaled by NOMINAL_S over the reference's mean time in the second of the run
around it, so that a regime change within a run is followed too.  The
slowest tenth of the reference's times is left out of that mean, and the
garbage collector is off while the reference runs, so that neither an
outlier nor a collection of the measured program's heap moves the factor.
Time spent in the reference is left out of every measured time.

The scaling assumes the measured program does not change the speed of the
interpreter itself, for example by starting threads or switching the
garbage collector off; the details line keeps the unscaled figures.
"""

from __future__ import annotations

import gc
import itertools
import math
import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

NOMINAL_S = 0.0014  # the reference's trimmed mean time at nominal speed
INTERVAL_S = 0.05
WINDOW_S = 1.0  # the least part of the run whose samples scale a time
MIN_SAMPLES = 5
_RANKINGS = list(itertools.permutations(range(4)))


def reference() -> Fraction:
    """Fixed work: tally 12 small profiles and sum their losing margins."""
    total = Fraction(0)
    for j in range(12):
        ballots = sorted((1 + i * j % 3, _RANKINGS[(7 * i + j) % 24]) for i in range(5))
        h = [[0] * 4 for _ in range(4)]
        n = 0
        for count, ranking in ballots:
            n += count
            for i in range(4):
                row = h[ranking[i]]
                for b in ranking[i + 1:]:
                    row[b] += count
        half = Fraction(n, 2)
        total += min(
            sum((max(half - h[a][b], Fraction(0)) for b in range(4) if b != a), Fraction(0))
            for a in range(4)
        )
    return total


def time_reference() -> float:
    """Seconds one run of `reference` takes, with the garbage collector off."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    reference()
    took = time.perf_counter() - start
    if collecting:
        gc.enable()
    return took


def factor(samples) -> float:
    """NOMINAL_S over the mean of the fastest nine tenths of `samples`."""
    fastest = sorted(samples)[: math.ceil(0.9 * len(samples))]
    return NOMINAL_S / statistics.fmean(fastest)


class SpeedProbe:
    """Times `reference` on a timer while active; see the module docstring."""

    def __init__(self):
        self.spent = 0.0
        self.at: list[float] = []  # clock() when each sample was taken
        self.samples: list[float] = []  # the reference's time, one per tick
        self._previous = None

    def _tick(self, signum, frame):
        at = self.clock()
        took = time_reference()
        self.spent += took
        self.at.append(at)
        self.samples.append(took)

    def clock(self) -> float:
        """perf_counter less the time spent in the reference so far."""
        return time.perf_counter() - self.spent

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from seconds measured between start and end on clock() to
        seconds at reference speed; by default the whole run's factor.

        A window shorter than WINDOW_S is widened to WINDOW_S around its
        middle.  With fewer than MIN_SAMPLES samples in it, the whole run's
        samples are used.
        """
        if end - start < WINDOW_S:
            pad = (WINDOW_S - (end - start)) / 2
            start, end = start - pad, end + pad
        window = self.samples[bisect_left(self.at, start):bisect_left(self.at, end)]
        if len(window) < MIN_SAMPLES:
            window = self.samples
        return factor(window)

    def at_speed(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start` on clock(), at reference speed."""
        return seconds * self.scale(start, start + seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
