"""repro.probes — capability-tiered observation of executions.

The paper's claims are *measurements* — stabilization times in rounds
and moves under the neutralization-faithful accounting of Section 2.4.
This subsystem makes observation a first-class, declared capability of
the model interface instead of an opaque callback bolted onto the run
loop (the DEVS tradition of structuring what a simulator exposes to
instrumentation):

* :class:`Probe` — the protocol: a decoded per-step hook plus an
  optional vectorized hook served inline by the array driver.
  ``Simulator.run`` needs no per-step Python callback whenever every
  attached probe advertises the array-native path.
* :class:`StabilizationProbe` / :class:`StopProbe` — stabilization
  measurement, closure (``run_past``) monitoring, and stop predicates
  over the legitimacy predicates a rule set declares.
* :class:`AccountingProbe` / :class:`TraceProbe` — periodic accounting
  snapshots and every-k-steps configuration sampling.
* :class:`RecoveryProbe` / :class:`SdrWaveProbe` — per-fault-burst
  recovery stopwatches and SDR reset-wave counters, armed by the
  drivers' ``on_fault`` notification (see :mod:`repro.faults.schedule`).

Measuring stabilization on the array-native path::

    probe = StabilizationProbe(sdr.is_normal, mask="normal")
    sim.add_probe(probe)
    sim.run(max_steps=...)
    probe.require_hit()
"""

from .base import Probe
from .recovery import RecoveryProbe, SdrWaveProbe
from .registry import PROBE_NAMES, is_named_probe, make_probe
from .sampling import AccountingProbe, TraceProbe
from .stabilization import StabilizationProbe, StopProbe
from .view import ColumnView

__all__ = [
    "Probe",
    "ColumnView",
    "StabilizationProbe",
    "StopProbe",
    "AccountingProbe",
    "TraceProbe",
    "RecoveryProbe",
    "SdrWaveProbe",
    "PROBE_NAMES",
    "is_named_probe",
    "make_probe",
]
