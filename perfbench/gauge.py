"""A fixed piece of work that gauges the host's current speed.

The host this benchmark was written on runs the same code up to about two
times slower for minutes at a time, and its speed also swings from one
second to the next (contention from other tenants; steal time stays near
3 %, so it is not the guest being descheduled). Runs of a minute cannot
average that out. So every timed step runs inside a `Sampler`: a timer
signal runs the gauge every `TICK_S` seconds while the step runs, the
gauge's own time is taken out of the step's time, and the rest is scaled
by `GAUGE_REF_S / (mean gauge time)`. The result reads in seconds on a
host where one gauge run takes `GAUGE_REF_S`.

The gauge does three fixed pieces of work: Fraction arithmetic (the
pure-Python work that dominates `compare-reference`), dict, tuple and
string handling, and four passes over a 4 MB array (the memory traffic of
`sweep-longstream`'s stream matrices). It allocates only small objects,
which leave the C heap alone, and one array made at import, which adds
4 MB to the process's peak resident memory. It imports nothing from scmac,
so a change to scmac cannot move it. WORKLOADS.md gives the measurements
behind this choice.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# seconds one gauge run takes at the reference host speed: about its
# median on the host above
GAUGE_REF_S = 0.01
TICK_S = 0.25
EDGE_RUNS = 4  # gauge runs before and after a step

_ARRAY = np.ones(1 << 19)  # 4 MB


def measure() -> float:
    """Host seconds one run of the fixed gauge work takes right now."""
    t0 = time.perf_counter()
    acc, lo, hi = Fraction(0), Fraction(0), Fraction(1)
    for i in range(1, 750):
        x = Fraction((i * 7919) % 1000, 1000)
        acc += min(max(x, lo), hi) * Fraction(i % 15 + 1, 16)
    table = {}
    for i in range(9000):
        table[f"k{i % 300}"] = (i, 2 * i, str(i))
    sum(len(v[2]) for _, v in sorted(table.items(), key=lambda kv: kv[1][2]))
    for _ in range(4):
        np.negative(_ARRAY, out=_ARRAY)
        _ARRAY.sum()
    return time.perf_counter() - t0


class Sampler:
    """Gauges the host around and, with `ticks`, during one timed step.

    The gauge runs `EDGE_RUNS` times on entry and on exit, outside the
    step's timing. With `ticks` it also runs from a SIGALRM handler every
    `TICK_S` seconds; those runs fall inside the timing and `normalise`
    takes them out again.
    """

    def __init__(self, ticks: bool = True):
        self.ticks_on = ticks
        self.edges: list[float] = []
        self.ticks: list[float] = []

    def __enter__(self) -> Sampler:
        self.edges += [measure() for _ in range(EDGE_RUNS)]
        if self.ticks_on:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame) -> None:
        self.ticks.append(measure())

    def __exit__(self, *exc) -> None:
        if self.ticks_on:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.edges += [measure() for _ in range(EDGE_RUNS)]

    def normalise(self, seconds: float) -> float:
        """`seconds` timed inside the sampler, less the ticks, at the reference host speed."""
        return (seconds - sum(self.ticks)) * GAUGE_REF_S / statistics.fmean(self.edges + self.ticks)
