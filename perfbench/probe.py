"""A fixed calibration load that measures how fast the host is right now.

A small shared host (2 CPUs) was measured changing speed by +-20% over
tens of seconds, which swamps the run-to-run differences the benchmark
exists to show.  The probe is a fixed mix of the kinds of work the
workloads do (a HiGHS solve through ``scipy.optimize.linprog``, dense
numpy linear algebra, and interpreter-bound dict and integer work),
built only from numpy, scipy and the standard library, so no change to
the program can make it faster or slower.  The harness runs it between
steps and divides each step's time by the probe time measured around
it: the step time in "ref" units.  Set-up time is scaled the same way,
to seconds on a host where the probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

#: Probe time that defines the "reference host" set-up times are scaled
#: to (about what the probe takes on a shared 2-CPU x86-64 host).
NOMINAL_S = 0.050


class Probe:
    """Callable that runs the fixed load once and returns its seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20191209)
        self.a_ub = rng.random((150, 200))
        self.b_ub = self.a_ub.sum(axis=1) * 0.3
        self.cost = -rng.random(200)
        self.dense = rng.random((200, 200))

    def __call__(self) -> float:
        start = time.perf_counter()
        result = linprog(
            self.cost, A_ub=self.a_ub, b_ub=self.b_ub, bounds=(0, 1),
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"calibration LP failed: {result.message}")
        np.linalg.svd(self.dense)
        table = {}
        total = 0
        for i in range(20000):
            table[str(i)] = i
            total += i * i % 7
        return time.perf_counter() - start

    def median(self, runs: int = 3) -> float:
        return sorted(self() for _ in range(runs))[runs // 2]
