"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same op takes 20-60% longer in one minute than in the
next, and every workload slows together.  An untraced run therefore times
this kernel between its slices of measuring (a few percent of the measured
time) and scales each op's latency by ``NOMINAL_S / median(kernel time)``
over the timings taken just before and just after the op's slice: the time
the op would have taken on a host that runs the kernel in ``NOMINAL_S``.
Set-up and throughput are scaled by the factor of the whole run.  The
kernel is benchmark code, the same on both sides of any comparison, so a
change to the program moves the scaled figures exactly as it moves the raw
ones; only the host's drift cancels.  Raw figures are kept in the run's
record.

The kernel sorts and sums a fixed array with numpy.  On a 2-core Xeon VM,
over ten 18-second runs of each workload, scaling by the whole run's factor
cut the spread (IQR / median) of the cold op from 13.0% to 9.6%, of the
warm round from 16.8% to 7.3% and of the served median from 5.8% to 2.5%;
on further runs, scaling each op by the timings next to it cut the cold
op's spread from 9.2% (whole-run factor) to 5.9% and the served p99's from
9.0% to 5.0%.  A pure-Python kernel (dict updates, JSON, hashing) tracked
the program worse than the unscaled times and is not used.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

#: Kernel time that scaled figures are expressed at (a typical reading on a
#: 2-core Xeon VM, so scaled and raw figures are close there).
NOMINAL_S = 0.0105
#: Share of the measured time spent timing the kernel.
SHARE = 0.06

_INPUT = np.random.default_rng(20221114).random(100_000)


def kernel() -> float:
    """One run of the fixed computation; returns its checksum."""
    total = 0.0
    for step in range(10):
        ordered = np.sort(_INPUT * (1.0 + 1e-4 * step) + 0.5)
        total += float(np.cumsum(ordered)[-1])
    return total


class Speedometer:
    """Kernel timings taken between the slices of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: (start, kernel timings) of each call of :meth:`sample`.
        self.blocks: List[Tuple[float, List[float]]] = []
        self.checksum = kernel()  # first call pays numpy's lazy set-up

    def sample(self, budget_s: float = 0.0) -> None:
        """Time the kernel once, and again until ``budget_s`` is spent."""
        block: List[float] = []
        self.blocks.append((time.perf_counter(), block))
        while not block or sum(block) < budget_s:
            t0 = time.perf_counter()
            checksum = kernel()
            block.append(time.perf_counter() - t0)
            if checksum != self.checksum:
                raise RuntimeError("the reference kernel changed its answer")
        self.samples += block

    @property
    def factor(self) -> float:
        """Multiply a time by this to express it at the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)

    def factor_at(self, when: float) -> float:
        """The factor from the timings just before and just after the slice
        holding ``when`` (a ``perf_counter`` time)."""
        after = next((index for index, (start, _) in enumerate(self.blocks)
                      if start >= when), len(self.blocks) - 1)
        near = self.blocks[max(after - 1, 0)][1] + self.blocks[after][1]
        return NOMINAL_S / statistics.median(near)
