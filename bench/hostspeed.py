"""Op times corrected for the host's speed at the moment they were taken.

On a shared host the same code runs up to twice as slow in phases of 10 to
60 seconds, so raw wall times of one run say as much about the neighbours
as about the program.  While a run measures, `HostSpeed` interrupts it
with SIGALRM, every PERIOD_S seconds unless given another period, and in
the measuring thread times a fixed reference chunk of mpmath arithmetic.  A timed interval [a, b] is then
reported as the time it would have taken with the chunk at REF_S:

    nominal = (b - a) * REF_S / mean(chunk times within PAD_S of [a, b])

The mean of the chunk times is the host's mean slowness over the interval,
so a phase change inside a long op is weighed by how long it lasted.  The
chunk uses mpmath's low-level functions with an explicit precision: it
reads and writes no global state of mpmath or of the package, whatever the
interrupted code is doing.  Intervals are taken on `clock()`, which leaves
out the time spent in the chunks themselves.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from mpmath.libmp import (from_int, mpf_add, mpf_div, mpf_mul, mpf_sqrt,
                          round_nearest)

PERIOD_S = 0.1      # one reference chunk per PERIOD_S of wall time, default
PAD_S = 0.5         # chunks this close to an interval count for it
REF_S = 0.0015      # the chunk's time in a fast phase of a 2-vCPU Xeon VM
CHUNK = 150         # iterations of the chunk
PREC = 256          # bits, the package's default working precision


def chunk():
    """A fixed piece of the package's kind of work: big-float arithmetic
    driven from Python."""
    x = from_int(2)
    for i in range(3, CHUNK + 3):
        y = from_int(i)
        x = mpf_sqrt(mpf_add(mpf_mul(x, y, PREC, round_nearest),
                             mpf_div(y, x, PREC, round_nearest),
                             PREC, round_nearest), PREC, round_nearest)
    return x


class HostSpeed:
    """Reference-chunk samples of one run, on its own clock."""

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.at = []            # clock() at the start of each chunk
        self.took = []          # wall seconds of each chunk
        self.spent = 0.0        # wall seconds spent in chunks so far

    def clock(self) -> float:
        """Wall seconds, less the time spent in reference chunks."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        start = time.perf_counter()
        chunk()
        took = time.perf_counter() - start
        self.at.append(start - self.spent)
        self.took.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, a: float, b: float) -> float:
        """Seconds the interval [a, b] of clock() takes at the reference
        speed.  Call it once sampling has ended."""
        lo = bisect.bisect_left(self.at, a - PAD_S)
        hi = bisect.bisect_right(self.at, b + PAD_S)
        if lo == hi:
            raise RuntimeError("no host-speed sample near a timed interval")
        return (b - a) * REF_S / statistics.fmean(self.took[lo:hi])

    def slowness(self) -> float:
        """Mean chunk time over REF_S: how slow the host ran this run."""
        return statistics.fmean(self.took) / REF_S
