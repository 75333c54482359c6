"""Stabilization measurement of a plain configuration predicate.

The *stabilization time* of a self-stabilizing algorithm is the maximum
time, over every execution, to reach a legitimate configuration (paper,
Section 2.4).  :func:`measure_stabilization` measures it for a
``Configuration -> bool`` predicate through a decode-tier
:class:`~repro.probes.stabilization.StabilizationProbe`; attach a probe
with a ``mask`` instead to measure on the array-native path.
"""

from __future__ import annotations

from typing import Callable

from ..probes.stabilization import StabilizationProbe
from .configuration import Configuration
from .exceptions import NotStabilized
from .simulator import RunResult, Simulator

__all__ = ["measure_stabilization"]

Predicate = Callable[[Configuration], bool]


def measure_stabilization(
    simulator: Simulator,
    predicate: Predicate,
    max_steps: int = 1_000_000,
    run_past: int = 0,
    name: str = "legitimate",
) -> tuple[StabilizationProbe, RunResult]:
    """Run ``simulator`` until ``predicate`` holds; return probe + result.

    The probe (``stop=False``: the runs here decide when to stop)
    records ``step``/``rounds``/``moves`` at the first hit and
    ``violations_after_hit`` afterwards.  ``run_past`` continues the
    execution for that many extra steps after the first hit (or until
    terminal), letting closure assertions observe the suffix.  Raises
    :class:`~repro.core.exceptions.NotStabilized` when the budget is
    exhausted first.
    """
    probe = StabilizationProbe(predicate, name=name, stop=False)
    simulator.add_probe(probe)
    result = simulator.run(max_steps=max_steps, stop_when=lambda sim: probe.hit)
    if not probe.hit:
        raise NotStabilized(
            f"predicate {name!r} not reached within {max_steps} steps",
            steps=result.steps,
        )
    if run_past > 0 and not simulator.is_terminal():
        result = simulator.run(max_steps=run_past)
    return probe, result
