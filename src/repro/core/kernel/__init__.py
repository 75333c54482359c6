"""Array-backed fast execution kernel for the step/round hot loop.

The dict backend (:class:`~repro.core.simulator.Simulator`'s reference
engine) evaluates guards process by process over per-process state dicts.
This subpackage is the flattened alternative: algorithms declare a typed
variable :class:`~repro.core.kernel.schema.Schema`, states live in one
numpy column per variable indexed by process id, adjacency is CSR, and a
step is a handful of vectorized gathers/segmented reductions plus a
double-buffer swap.  Model semantics — composite atomicity, enabled-set
contents and ordering, move/round accounting — are identical by
construction and machine-checked by the simulator's paranoid lockstep
mode (see ``Simulator(backend="kernel", paranoid=True)``).

Every program the kernel runs is an
:class:`~repro.ir.kernelc.IRKernelProgram`, generated from the
algorithm's rule set (``Algorithm.rule_set().compile_kernel()``); the
runtime only duck-types it (``schema``, ``rules``, ``predicates``,
``evaluate``, ``apply`` and ``tiled``; ``csr`` under topology churn).
"""

from __future__ import annotations

__all__ = [
    "BatchResult",
    "CSRAdjacency",
    "FusedResult",
    "KernelRuntime",
    "Schema",
    "TrialOutcome",
    "Var",
    "run_batch",
    "vectorize",
]

from .batch import BatchResult, TrialOutcome, run_batch
from .csr import CSRAdjacency
from .daemons import vectorize
from .engine import FusedResult, KernelRuntime
from .schema import Schema, Var
