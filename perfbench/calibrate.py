"""Machine-speed calibration of the benchmark's time metrics.

On a shared machine the same pass over the same instances runs 15-25%
faster or slower from one moment to the next, because other tenants
load the cores and caches.  That drift is larger than the changes the
benchmark must resolve.  So while a run measures, a fixed pure-Python
kernel runs every INTERVAL_S from a SIGALRM handler: the operations
liesolv spends its time in (bit loops, a memo dict, XOR of wide ints),
frozen here so that no change to liesolv moves it.  The kernel allocates
no objects the cyclic garbage collector tracks, and the collector is off
while it runs, so no collection of liesolv's objects happens inside the
handler, where its time would be subtracted from liesolv's.

A measured interval is reported at reference speed: its duration times
REF_KERNEL_S over the trimmed mean kernel time of the samples taken
within WINDOW_S of it; trimming drops the samples the scheduler
preempted.  The kernel's own time is subtracted from the intervals it
interrupts.  Raw times are reported next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
WINDOW_S = 0.1
TRIM = 0.2          # share of samples dropped at each end before averaging
# Kernel time on the machine the bounds in BENCHMARK.json were set on
# (2 vCPUs, Python 3.11); it only fixes the scale of the reported times.
REF_KERNEL_S = 0.00072


def kernel() -> int:
    memo = {}
    acc = 0
    wide = (1 << 256) - 1
    x = 0x1234567
    for r in range(512):
        key = (r & 63) * 7 + r % 7
        v = memo.get(key)
        if v is None:
            a, b, out = r | 1, (r * 37) & 0xFF, 0
            while b:
                if b & 1:
                    out ^= a
                a <<= 1
                b >>= 1
            v = out % 0x11B
            memo[key] = v
        x = ((x << 1) ^ (v << (r & 127))) & wide
        acc ^= x
    return acc


class Calibrator:
    """Samples the kernel on a timer while active (use as a context manager)."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list = []
        self.wall: list = []
        self.cpu: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            c1 = time.process_time()
        finally:
            if gc_was_on:
                gc.enable()
            self._busy = False
        self.starts.append(t0)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.spent_wall += t1 - t0
        self.spent_cpu += c1 - c0

    def __enter__(self) -> "Calibrator":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def factor(self, start: float, end: float, cpu: bool = False) -> float:
        """Scale from times measured in [start, end] to reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        samples = self.cpu if cpu else self.wall
        near = sorted(samples[lo:hi] or samples)
        if not near:
            return 1.0
        k = int(len(near) * TRIM)
        return REF_KERNEL_S / statistics.fmean(near[k:len(near) - k])
