"""The core's speed while a worker runs, from a fixed reference chunk.

On a shared host the speed of one core drifts by up to 1.7x, for seconds
to minutes at a time, with CPU time tracking wall time (the core is slowed,
not taken away), and the two cores drift apart.  A worker therefore times
a small fixed chunk of pure-Python work on its own core every
``PERIOD_S`` while its ops run, from a ``SIGALRM`` handler, so the samples
are spread evenly over time.  ``rate`` is ``CHUNK_S`` divided by a chunk's
time, averaged over the samples: 1 when the core runs at the speed the
benchmark was calibrated at, less when it is slowed.  Seconds times that
rate are seconds at the calibrated speed, the figures the benchmark
reports for ``wall_s`` and ``setup_s``.

The chunk composes permutations stored as tuples and counts them in a
dict, the kind of work hgslab's group code does; its working set is a few
kilobytes, so it measures the core, not the program's memory.
"""

from __future__ import annotations

import signal
import time

CHUNK_S = 0.0009    # a chunk's median time on the 2-vCPU Xeon host used
PERIOD_S = 0.04     # one chunk per period while ops run

_CYCLE = tuple(range(1, 16)) + (0,)


def chunk() -> int:
    x = tuple(range(16))
    seen = {}
    for i in range(400):
        x = tuple(x[j] for j in _CYCLE)
        seen[x] = seen.get(x, 0) + i
    return len(seen)


class Sampler:
    """Times one chunk every ``PERIOD_S`` between ``start`` and ``stop``.

    ``clock()`` is ``time.perf_counter()`` minus the time spent in chunks,
    so calls timed with it do not pay for the sampling.
    """

    def __init__(self) -> None:
        self.chunk_s = []
        self.inside_s = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.inside_s

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        dt = time.perf_counter() - t0
        self.chunk_s.append(dt)
        self.inside_s += dt

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rate(self) -> float:
        """Mean rate over the samples; 0 with none."""
        if not self.chunk_s:
            return 0.0
        return sum(CHUNK_S / dt for dt in self.chunk_s) / len(self.chunk_s)
