"""repro.faults — transient faults: injection, schedules, and recovery.

Fault model (Devismes & Johnen, ICDCS 2019, Section 2): a transient
fault corrupts the *register contents* of a process — any of its
declared variables may be overwritten with an arbitrary value drawn
from that variable's declared domain — but never the code, the
topology, or a process identity.  Everything in this package enforces
that contract: corrupted values come from ``algorithm.random_state``
(dict side) or the kernel schema's declared domains (vector side), so
an injection can never produce a configuration the algorithm itself
could not be started from.

Two injection surfaces:

* **Adversarial initial configurations** — :class:`FaultPlan`,
  :func:`corrupt_processes` / :func:`corrupt_variables`, and the
  structured scenario builders (:func:`clock_gradient`,
  :func:`clock_split`, :func:`fake_reset_wave`,
  :func:`hollow_alliance`) perturb γ0 before the run starts.
* **Mid-run fault schedules** — :class:`FaultSchedule` (declarative,
  seeded; parsed from specs like ``"every=200,k=3,scope=input"``) fires
  *during* the run, identically on the dict engine, the fused kernel
  loop, and batched cells.  :class:`RecoveryProbe` and
  :class:`SdrWaveProbe` (re-exported from :mod:`repro.probes`) measure
  per-burst recovery without leaving the fused loop.

A third surface relaxes the fixed-topology half of that contract in a
controlled way: **topology churn** (:class:`ChurnSchedule`,
:mod:`repro.faults.churn`) mutates the *graph* mid-run — links drop and
appear, processes crash and rejoin with arbitrary state — with the same
seeded, backend-identical occurrence discipline.

Both schedule families fire :class:`Occurrence` objects, and the drivers
land both the same way: probes hear of each one through the single
``Probe.on_disturbance`` hook, as a :class:`Disturbance` (the occurrence
plus the step, moves and rounds at landing).
"""

from .churn import (
    BoundChurnSchedule,
    ChurnEvent,
    ChurnSchedule,
    parse_churn,
)
from .injector import FaultPlan, corrupt_processes, corrupt_variables
from .scenarios import clock_gradient, clock_split, fake_reset_wave, hollow_alliance
from .schedule import (
    BoundFaultSchedule,
    Disturbance,
    FaultEvent,
    FaultSchedule,
    Occurrence,
    parse_schedule,
    resolve_variables,
)

__all__ = [
    # Initial-configuration corruption
    "FaultPlan",
    "corrupt_processes",
    "corrupt_variables",
    # Structured adversarial scenarios
    "clock_gradient",
    "clock_split",
    "fake_reset_wave",
    "hollow_alliance",
    # Mid-run fault schedules
    "FaultSchedule",
    "FaultEvent",
    "BoundFaultSchedule",
    "parse_schedule",
    "resolve_variables",
    # Mid-run topology churn
    "ChurnSchedule",
    "ChurnEvent",
    "BoundChurnSchedule",
    "parse_churn",
    # What a probe hears of either
    "Occurrence",
    "Disturbance",
]
