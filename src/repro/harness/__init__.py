"""Experiment harness: trial runners, per-claim experiments, tables, figures.

Layered as follows (bottom-up):

* :mod:`~repro.harness.runner` — the trial pipeline: one registry entry
  per sweepable algorithm (:data:`~repro.harness.runner.ALGORITHMS`:
  builder, declared start scenarios, legitimacy notion, step budget,
  record extras), :func:`run_network_trial` for one in-process trial,
  :func:`run_trial` for one :class:`repro.engine.TrialSpec`, and the
  batched twin :func:`~repro.harness.runner.run_trial_batch`;
* :mod:`repro.engine` — the campaign engine: declarative parameter grids,
  deterministic per-trial seed derivation, an in-process executor and
  supervised worker processes, an append-only JSONL result store, and
  resume (run only the grid cells missing from the store);
* :mod:`~repro.harness.experiments` — the per-claim experiment registry;
  the sweep-shaped ones (T3/T4, T5, T11, T12, T13, F1/F2 and F7) route
  their grids through the engine and accept ``workers``/``store``
  arguments;
* :mod:`~repro.harness.tables` / :mod:`~repro.harness.figures` /
  :mod:`~repro.harness.io` — dependency-free reporting and persistence.

``python -m repro.harness`` runs experiments by id;
``python -m repro.harness sweep --grid n=8,16 --workers 4 --out r.jsonl
--resume`` drives arbitrary campaign grids through the engine from the
command line.
"""

from . import experiments
from .experiments import REGISTRY, ExperimentResult
from .figures import Figure
from .runner import ALGORITHMS, Trial, run_network_trial, run_trial
from .tables import Table

__all__ = [
    "experiments",
    "REGISTRY",
    "ExperimentResult",
    "Figure",
    "Table",
    "ALGORITHMS",
    "Trial",
    "run_network_trial",
    "run_trial",
]
