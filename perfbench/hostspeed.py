"""Host-speed calibration for timings taken on a shared host.

On a virtual machine whose cores are shared with other tenants (measured
on a 2-vCPU x86-64 VM), the host's speed drifts by tens of percent over
minutes: a fixed loop measured 69 ms and 161 ms of wall time a few
minutes apart (68 ms and 75 ms of CPU time), so two 30-second runs of
identical work can differ by 25%.  A run therefore times a fixed
calibration loop between its passes; :data:`REFERENCE_S` over the loop's
lower-quartile time is the host's speed, and end-to-end times are scaled
by that factor, so runs made at different host speeds report comparable
figures.  The loop calls no code of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "calibration_seconds"]

#: Lower-quartile time of :func:`calibration_seconds` on a quiet host
#: (2-vCPU x86-64 virtual machine, Python 3.11, numpy 2.4).
REFERENCE_S = 0.033


def calibration_seconds() -> float:
    """Wall time of a fixed mix of interpreter work and numpy gathers/masks,
    the two kinds of work a kernel step does."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1000, 4096)
    index = rng.integers(0, 4096, 16384)
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(300):
        gathered = values[index]
        mask = gathered % 7 == 0
        total += int(np.count_nonzero(mask)) + int(np.where(mask, gathered, 0).sum())
    return time.perf_counter() - start
