"""A fixed reference computation that measures how fast the machine runs right now.

On a shared machine the speed available to one process changes by 20%
and more over seconds to minutes, and a median over runs cannot remove
a change that outlasts the run.  ``child.py`` therefore times this
kernel right before and right after each run of the CLI path and
``run.py`` scales the run's throughput to ``REFERENCE_S``, the kernel's
time on the reference machine (2-vCPU Intel Xeon, Python 3.11.7,
numpy 2.4.6).  The kernel mixes the kinds of work chunkfair does
(interpreted greedy loops over small numpy arrays, seeded generator
construction, FFTs, elementwise logs) and shares no code with it, so a
change to chunkfair moves the scaled throughput exactly as much as the
raw one.  ``python3 perfbench/calibrate.py`` prints the kernel's median
time on the current machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.02
REPEATS = 3


def kernel() -> float:
    """One pass of the reference work; returns a value so nothing is skipped."""
    table = np.random.default_rng(np.random.SeedSequence((1, 2, 3))).random((4, 512))
    acc = np.zeros(4)
    remaining = list(range(table.shape[1]))
    while remaining:
        k = int(np.argmin(acc))
        cand = np.array(remaining)
        m = int(cand[int(np.argmax(table[k, cand]))])
        acc[k] += table[k, m]
        remaining.remove(m)
    total = float(acc.sum())
    for i in range(160):
        rng = np.random.default_rng(np.random.SeedSequence((7, i, 0, 1)))
        taps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        h = np.fft.fft(taps, n=512)
        total += float(np.log2(1.0 + h.real**2 + h.imag**2).sum())
    return total


def calibrate() -> list[float]:
    """Durations in seconds of ``REPEATS`` passes of the kernel."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    kernel()
    print(statistics.median(t for _ in range(40) for t in calibrate()))
