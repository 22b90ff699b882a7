"""Core-speed probe: rescales measured times to a fixed reference core speed.

On the shared 2-vCPU VM the baseline was recorded on, the same pass took up
to twice as long while neighbours loaded the host, for minutes at a time, so
raw wall times of one commit spread by 10-50% (quartile distance over median,
ten runs) between runs. A sampling thread therefore times a fixed
kernel (small-array numpy calls in a Python loop, the same mix as lorot's
solver) every few milliseconds, in thread CPU time, so that the main
thread's own work does not count. The process is pinned to one CPU so that
both threads see the same core. A time measured over an interval is then
reported at reference speed: ``seconds * REFERENCE_KERNEL_S / kernel_s``,
where ``kernel_s`` is the mean kernel time sampled over that interval.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

# Roughly the kernel CPU time on an uncontended core of the 2-vCPU x86-64 VM
# the baseline was recorded on (Python 3.11, numpy 2.4). It only sets the
# scale: comparisons between commits on one machine do not depend on it.
REFERENCE_KERNEL_S = 1.5e-4
PERIOD_S = 0.01


def pin_to_one_cpu():
    """Run this process (and the processes it starts) on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel_seconds(steps=50):
    """Thread CPU time of one fixed kernel run."""
    a = np.linspace(0.0, 1.0, 200)
    b = a[::-1].copy()
    t0 = time.thread_time()
    for _ in range(steps):
        k = int(np.argmin(np.minimum(a, b)))
        a[k] += 1.0
    return time.thread_time() - t0


class SpeedProbe:
    """Samples the kernel time from a background thread while it runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self.samples.append((time.perf_counter(), kernel_seconds()))
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), kernel_seconds()))

    def scale(self, t0, t1):
        """Factor taking times measured in [t0, t1] to reference speed."""
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        if not inside:  # interval shorter than the sampling period
            inside = [min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        return REFERENCE_KERNEL_S / (sum(inside) / len(inside))
