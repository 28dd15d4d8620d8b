"""Machine speed, sampled while the benchmark runs.

The benchmark runs on a few cores of a shared host, where the same work
runs up to twice as slow in phases that last from seconds to minutes,
with no CPU time stolen: the wall time of a 30-second run says as much
about the phase it fell in as about the program.  A ``Speedometer`` times a
fixed NumPy kernel, which shares no code with certlap, every ``PERIOD_S``
seconds of wall time, from a SIGALRM handler in the main thread.  The
kernel has two parts: sums of exp(sin(x)) over an array that stays in
cache, which time the core's arithmetic, and one sum over an 8 MiB array,
which streams from memory.  In the slowest phases the cache-resident part
took twice its usual time while a catalog3d pass took 1.25 times its, and
the streaming part slowed less than the passes; their sum tracked all
three workloads.  A stretch
of work is then reported twice: its wall time less the kernel's own time,
and that time at reference speed, scaled sample by sample by
``REF_KERNEL_S / kernel seconds`` (the mean of that ratio over the samples
taken in the stretch, which come at equal steps of wall time).  Work in
another process, too short to be sampled on its own, is scaled by the mean
over every sample taken in the run.

On a shared 2-core x86_64 virtual machine, over 2.5-minute stretches of
repeated passes, the interquartile range of pass times as a share of their
median fell from 0.13-0.14 to 0.03-0.04 with this scaling in a slow
period, and from 0.06 to 0.02 on inline2d in a steady one.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Optional

# one sample every PERIOD_S seconds of wall time; a sample takes 1-2 ms,
# under 1% of the measured process's time, and is left out of it
PERIOD_S = 0.2
CACHED_SIZE = 4096  # doubles, 32 KiB
CACHED_REPS = 10
STREAMED_SIZE = 1 << 20  # doubles, 8 MiB
# sets the scale of the reported seconds, not their spread: about the
# kernel's time when the host runs at full speed
REF_KERNEL_S = 1.0e-3


class Speedometer:
    """Samples the kernel while it is entered as a context manager."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []  # kernel seconds, in order
        # imported here, after run.py has pinned the BLAS/OpenMP pools
        import numpy as np

        self._exp, self._sin = np.exp, np.sin
        self._cached = np.linspace(0.0, 1.0, CACHED_SIZE)
        self._streamed = np.linspace(0.0, 1.0, STREAMED_SIZE)
        self._previous = None

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        for _ in range(CACHED_REPS):
            self._exp(self._sin(self._cached)).sum()
        self._streamed.sum()
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.kernel_s())

    def __enter__(self) -> "Speedometer":
        self.kernel_s()  # warm up before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Where the next sample will go; pass it to ``scale``."""
        return len(self.samples)

    def speed(self, first: int = 0, last: Optional[int] = None) -> float:
        """Mean of REF_KERNEL_S / kernel seconds over samples ``first:last``,
        all so far by default; below 1 while the host runs slow.  With no
        sample there, one kernel is timed now."""
        taken = self.samples[first:last] or [self.kernel_s()]
        return statistics.fmean(REF_KERNEL_S / s for s in taken)

    def scale(self, wall_s: float, first: int, last: int) -> float:
        """Seconds at reference speed of a stretch that took ``wall_s`` of
        wall time, less the kernel's, and holds samples ``first:last``."""
        return (wall_s - sum(self.samples[first:last])) * self.speed(first, last)
