"""Reference kernel and host-drift scaling.

The host this benchmark runs on changes speed by tens of percent from one
run to the next.  Every reported time is therefore divided by the time of
a fixed pure-Python kernel sampled in the same process between
operations, and multiplied by ``REF_MS``: a scaled time reads "seconds on
a host where the kernel takes ``REF_MS`` ms".

The kernel is frozen.  It touches no program object and runs with the
garbage collector off, so no change to the program can move it; changing
the kernel (or ``REF_MS``) re-bases every number the benchmark reports.

A CLI op is mostly process start, which does not follow the
interpreter's speed on this kind of host (over ten runs its raw
throughput moved with about the square root of the kernel's speed).
For the ``cli`` workload each sample therefore also times one bare
interpreter process, and the nominal grows by ``SPAWN_MS``.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import time

REF_MS = 12.0
SPAWN_MS = 36.0
# ops are timed in segments of about this much op time between samples
SEGMENT_S = 0.2
# a segment is scaled by the median of the samples in this window around it
WINDOW_BEFORE, WINDOW_AFTER = 4, 5


def kernel() -> int:
    """Dict-of-tuples churn, a keyed sort, an integer LCG loop and a 24x24
    fraction-free integer elimination."""
    table = {}
    for i in range(9000):
        table[(i % 97, i % 89)] = (i, i * 3)
        if i % 3 == 0:
            table.pop(((i * 7) % 97, (i * 5) % 89), None)
    items = sorted(table.items(), key=lambda kv: (kv[1][1] % 101, kv[0]))
    x = 12345
    acc = 0
    for _ in range(30000):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        acc ^= x >> 7
    n = 24
    y = 7
    a = []
    for _ in range(n):
        row = []
        for _ in range(n):
            y = (69069 * y + 1) % 1000003
            row.append(y % 19 - 9)
        a.append(row)
    prev = 1
    for k in range(n - 1):
        p = a[k][k] or 1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = p
    return len(items) + acc + a[-1][-1]


class Reference:
    """Kernel samples on one timeline.

    Segment ``k`` is the stretch between ``samples[k-1]`` and
    ``samples[k]``; a duration measured in it is scaled by the median of
    the samples in a short window around it.
    """

    def __init__(self, spawn_argv=None):
        self.samples: list[float] = []
        self._since_sample = 0.0
        self._spawn_argv = spawn_argv
        self.nominal_s = (REF_MS + (SPAWN_MS if spawn_argv else 0.0)) / 1e3

    @property
    def segment(self) -> int:
        return len(self.samples)

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if self._spawn_argv:
            t0 = time.perf_counter()
            subprocess.run(self._spawn_argv, capture_output=True, check=True)
            elapsed += time.perf_counter() - t0
        self.samples.append(elapsed)
        self._since_sample = 0.0

    def tick(self, raw_s: float) -> None:
        """Count op time; sample the kernel once a segment is full."""
        self._since_sample += raw_s
        if self._since_sample >= SEGMENT_S:
            self.sample()

    def scale(self, raw_s: float, segment: int) -> float:
        """``raw_s`` in seconds on a host where a sample takes the nominal."""
        lo = max(0, segment - WINDOW_BEFORE)
        window = self.samples[lo:segment + WINDOW_AFTER] or self.samples
        return raw_s * self.nominal_s / statistics.median(window)

    def summary(self) -> dict:
        ms = sorted(s * 1e3 for s in self.samples)
        q = statistics.quantiles(ms, n=4)
        return {"samples": len(ms), "median_ms": statistics.median(ms),
                "iqr_ms": q[2] - q[0], "min_ms": ms[0], "max_ms": ms[-1]}
