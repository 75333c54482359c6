"""Simulation kernel for the locally shared memory model with composite atomicity.

This subpackage implements the computational model of the paper (Section 2):
networks, configurations, guarded-rule algorithms, daemons, atomic steps,
and move/round accounting.  Everything else in :mod:`repro` builds on it.
"""

from .algorithm import Algorithm
from .composition import Composition
from .configuration import Configuration
from .daemon import (
    CentralDaemon,
    Daemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    ScriptedDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
    make_daemon,
)
from .detectors import measure_stabilization
from .exceptions import (
    AlgorithmError,
    DaemonError,
    ModelViolation,
    NotStabilized,
    ReproError,
    RequirementViolation,
    TopologyError,
)
from .graph import Network
from .rounds import RoundCounter
from .simulator import BACKENDS, RunResult, Simulator
from .trace import StepRecord, Trace


__all__ = [
    "Algorithm",
    "BACKENDS",
    "Composition",
    "Configuration",
    "Daemon",
    "SynchronousDaemon",
    "CentralDaemon",
    "LocallyCentralDaemon",
    "DistributedRandomDaemon",
    "WeaklyFairDaemon",
    "ScriptedDaemon",
    "make_daemon",
    "measure_stabilization",
    "Network",
    "RoundCounter",
    "RunResult",
    "Simulator",
    "StepRecord",
    "Trace",
    "ReproError",
    "TopologyError",
    "AlgorithmError",
    "DaemonError",
    "ModelViolation",
    "RequirementViolation",
    "NotStabilized",
]
