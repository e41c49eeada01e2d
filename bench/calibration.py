"""A fixed reference kernel that measures how fast the machine runs right now.

The host this benchmark runs on is shared, and its speed for the same code
moves by a factor of two or more over minutes: one sweep pass took 0.9 s at
one time and 2.6 s at another.  Each worker times KERNEL_REPS runs of
``Kernel.run`` just before and just after its pass, and scales its wall
times by REFERENCE_S / (the mean of the two kernel times), so that they read
as seconds on the machine at its reference speed.  The kernel never calls
oplab, so a change to the program cannot move it.

Its mix follows the program's: pure-Python loops, small LAPACK calls on
100x15 matrices (as in the MCD and MVE searches) and whole-array passes over
150k rows (as in the M-location fits).
"""

from __future__ import annotations

import time

import numpy as np

KERNEL_REPS = 10
# wall seconds KERNEL_REPS kernels take on the 2-CPU Xeon VM the
# benchmark was tuned on, in its fast phase
REFERENCE_S = 0.144


class Kernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20090303)
        self.small = [rng.standard_normal((100, 15)) for _ in range(20)]
        self.big = rng.standard_normal((150_000, 2))
        self.run()  # first calls load LAPACK and fault in the arrays

    def run(self) -> float:
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        total = float(acc)
        for a in self.small * 5:
            cov = np.cov(a, rowvar=False)
            total += np.linalg.slogdet(cov)[1]
            total += float(np.linalg.solve(cov, a.T)[0, 0])
        for _ in range(10):
            total += float(np.einsum("ij,ij->i", self.big, self.big).sum())
        return total

    def seconds(self) -> float:
        """Wall seconds of KERNEL_REPS runs."""
        start = time.perf_counter()
        for _ in range(KERNEL_REPS):
            self.run()
        return time.perf_counter() - start
