"""Host-speed calibration: a fixed kernel timed between the operations.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 2x within a minute, in phases that can outlast a whole run. The same
operation, repeated in one process, then reads 0.21 s in a fast minute and
0.42 s in a slow one, so a run's raw wall times say more about the
neighbours than about sigspec. ``Calibrator.kernel`` is a fixed piece of
work that uses no sigspec code (interpreter loop, Fraction and big-integer
arithmetic, a 4 MB random walk, a LAPACK call). ``Calibrator.measure`` times
it before and after an operation; the operation's scaled time is its wall
time times ``REFERENCE_S`` over the mean of those two kernel times: the
seconds it would take on a host on which the kernel takes ``REFERENCE_S``.
A change to sigspec moves the scaled time exactly as it moves the wall
time; a change of host speed moves both the operation and the kernel and
cancels out of their ratio.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# the kernel's median time on the reference host (two vCPUs, see README.md)
REFERENCE_S = 0.032

REPEAT = 3  # kernel runs per sample: one run is shorter than the host's speed swings

WALK_LEN = 1 << 19  # 4 MB of 64-bit slots: past L2, so the walk waits on memory
WALK_STEPS = 60_000


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        order = rng.permutation(WALK_LEN)
        walk = np.empty(WALK_LEN, dtype=np.int64)
        walk[order[:-1]] = order[1:]  # one cycle through all slots
        walk[order[-1]] = order[0]
        self.walk = memoryview(walk)  # indexing yields plain ints
        m = rng.standard_normal((96, 96))
        self.sym = m + m.T
        self.big = (3 ** 40_000, 7 ** 30_000)
        self.samples: list[float] = []  # every kernel time taken, in order

    def kernel(self) -> int:
        s = 0
        for i in range(60_000):
            s += i * i % 7
        f = Fraction(0)
        for k in range(1, 700):
            f += Fraction(k % 13 - 6, k)
        a, b = self.big
        for _ in range(3):
            s += (a * b) & 0xFF
        i, walk = 0, self.walk
        for _ in range(WALK_STEPS):
            i = walk[i]
        s += int(np.linalg.eigvalsh(self.sym)[0])
        return s + i + f.numerator % 3

    def sample(self) -> float:
        """Mean time of one kernel run, over REPEAT runs."""
        t = time.perf_counter()
        for _ in range(REPEAT):
            self.kernel()
        k = (time.perf_counter() - t) / REPEAT
        self.samples.append(k)
        return k

    @staticmethod
    def scale(seconds: float, kernels: list[float]) -> float:
        """Wall seconds at the reference speed, given kernel times taken around them."""
        return seconds * REFERENCE_S / statistics.mean(kernels)

    def measure(self, fn):
        """fn(), its wall seconds, and those seconds scaled by the kernel samples around it."""
        before = self.samples[-1] if self.samples else self.sample()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, seconds, self.scale(seconds, [before, self.sample()])
