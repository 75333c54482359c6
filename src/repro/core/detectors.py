"""Stabilization measurement of a plain configuration predicate.

The *stabilization time* of a self-stabilizing algorithm is the maximum
time, over every execution, to reach a legitimate configuration (paper,
Section 2.4).  :func:`measure_stabilization` measures it through a
:class:`~repro.probes.stabilization.StabilizationProbe` that also stops
the run: decode-tier for a ``Configuration -> bool`` predicate alone,
array-native on the kernel backend when ``mask`` names the predicate the
rule set declares.
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
    mask: str | None = None,
) -> tuple[StabilizationProbe, RunResult]:
    """Run ``simulator`` until ``predicate`` holds; return probe + result.

    The probe records ``step``/``rounds``/``moves`` at the first hit and
    ``violations_after_hit`` afterwards, and stops the run ``run_past``
    steps after the hit (or at a terminal configuration), letting
    closure assertions observe the suffix.  ``mask`` names the same
    legitimacy notion as a predicate the kernel program declares
    (``"normal"``): the run then stays on the fused loop.  The probe is
    detached before returning, so later runs of ``simulator`` go on.
    Raises :class:`~repro.core.exceptions.NotStabilized` when the
    predicate does not hold within ``max_steps`` steps.
    """
    probe = StabilizationProbe(predicate, mask=mask, name=name,
                               run_past=run_past)
    start = simulator.step_count
    simulator.add_probe(probe)
    try:
        result = simulator.run(max_steps=max_steps + run_past)
    finally:
        simulator.probes.remove(probe)
    if not probe.hit or probe.step - start > max_steps:
        raise NotStabilized(
            f"predicate {name!r} not reached within {max_steps} steps",
            steps=result.steps,
        )
    return probe, result
