"""Host-speed sampler: a tiny fixed kernel timed every few milliseconds while jobs run.

On a shared host the speed of a core swings by tens of percent within
seconds (other tenants on the same cores, caches and memory), and the
process CPU time swings with it.  ``Sampler`` pins the process to one CPU
and runs a thread that times a fixed pure-Python kernel every
``INTERVAL_S`` on that CPU, so the kernel's time follows the speed the jobs
get.  A stretch of work's host-normalised time is its measured time times
``REFERENCE_S`` over the mean kernel time during it: the time it would take
at the reference host speed.  The kernel does not call phononet, so a
change to the program moves the normalised times exactly as it moves the
measured ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# Kernel time at the reference host speed: about the fast-state kernel time
# on a 2-vCPU Intel Xeon VM at 2.1 GHz.
REFERENCE_S = 0.0003
INTERVAL_S = 0.05
OUTLIER = 3.0


def _kernel() -> None:
    # pure Python, so it never releases the interpreter lock part-way through
    acc, xs = 0.0, {}
    for i in range(1500):
        acc += (i * 0.5) % 3.0
        xs[i & 63] = acc


class Sampler:
    """Context manager: pins the process to one CPU and samples the kernel;
    leaving it restores the CPU set."""

    def __init__(self):
        self.cpus = os.sched_getaffinity(0)
        self.cpu = min(self.cpus)
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.monotonic()
            _kernel()
            self.samples.append((t0, time.monotonic() - t0))

    def __enter__(self) -> Sampler:
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self.cpus)

    def between(self, t0: float, t1: float) -> list[float]:
        """Kernel times of the samples started in [t0, t1] (``time.monotonic``)."""
        return [d for t, d in list(self.samples) if t0 <= t <= t1]

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time of the samples started in [t0, t1]."""
        window = self.between(t0, t1)
        if not window:  # shorter than the sampling interval: use the nearest samples
            window = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - t0))[:3]]
        # a sample that another thread or process interrupted is far slower
        # than any host-speed swing; leave it out
        limit = OUTLIER * statistics.median(window)
        return statistics.fmean(d for d in window if d <= limit)

    def normalised(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` spent in [t0, t1], at the reference host speed."""
        return seconds * REFERENCE_S / self.kernel_s(t0, t1)
