"""repro — reproduction of *Self-Stabilizing Distributed Cooperative Reset*.

Devismes & Johnen, ICDCS 2019 (HAL hal-01976276v3).

The package implements, from scratch:

* the locally shared memory model with composite atomicity
  (:mod:`repro.core`): networks, guarded-rule algorithms, daemons
  (including the distributed unfair daemon family), atomic steps, and
  exact move/round accounting;
* **SDR**, the paper's multi-initiator cooperative self-stabilizing reset
  (:mod:`repro.reset`), plus its proof artifacts as executable analyses;
* **U ∘ SDR**, self-stabilizing asynchronous unison (:mod:`repro.unison`),
  with the Boulinier-style reset-tail baseline;
* **FGA ∘ SDR**, silent self-stabilizing 1-minimal (f,g)-alliance
  (:mod:`repro.alliance`), with the six classical instances and a
  Turau-style MIS baseline;
* substrates: topology generators (:mod:`repro.topology`), fault injection
  (:mod:`repro.faults`), adversarial schedule search
  (:mod:`repro.adversary`), bound formulas and statistics
  (:mod:`repro.analysis`), capability-tiered measurement probes
  (:mod:`repro.probes`), and the experiment harness
  (:mod:`repro.harness`).
"""

from . import adversary, alliance, analysis, faults, probes, topology, unison
from .adversary import (
    BeamAdversary,
    GreedyAdversary,
    ScheduleCertificate,
    SearchDaemon,
)
from .alliance import FGA, TurauMIS
from .core import (
    Algorithm,
    CentralDaemon,
    Composition,
    Configuration,
    Daemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    Network,
    NotStabilized,
    ReproError,
    RunResult,
    ScriptedDaemon,
    Simulator,
    SynchronousDaemon,
    Trace,
    WeaklyFairDaemon,
    make_daemon,
    measure_stabilization,
)
from .probes import (
    AccountingProbe,
    Probe,
    StabilizationProbe,
    StopProbe,
    TraceProbe,
)
from .reset import SDR, InputAlgorithm, RequirementObserver, check_requirements
from .unison import BoulinierUnison, Unison

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Network",
    "Configuration",
    "Algorithm",
    "Composition",
    "Simulator",
    "RunResult",
    "Trace",
    "Daemon",
    "SynchronousDaemon",
    "CentralDaemon",
    "LocallyCentralDaemon",
    "DistributedRandomDaemon",
    "WeaklyFairDaemon",
    "ScriptedDaemon",
    "SearchDaemon",
    "GreedyAdversary",
    "BeamAdversary",
    "ScheduleCertificate",
    "make_daemon",
    "measure_stabilization",
    "Probe",
    "StabilizationProbe",
    "StopProbe",
    "AccountingProbe",
    "TraceProbe",
    "ReproError",
    "NotStabilized",
    # the paper's algorithms
    "SDR",
    "InputAlgorithm",
    "RequirementObserver",
    "check_requirements",
    "Unison",
    "BoulinierUnison",
    "FGA",
    "TurauMIS",
    # subpackages
    "topology",
    "unison",
    "alliance",
    "adversary",
    "faults",
    "analysis",
    "probes",
]

