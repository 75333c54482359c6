"""Parallel experiment-campaign engine with deterministic seed-splitting,
a persistent result store, and resume.

The paper's evaluation is a grid — (topology × scenario × daemon × size ×
seed) — and this package is the orchestration layer that runs such grids
at full hardware speed without giving up reproducibility:

* :mod:`~repro.engine.campaign` — declarative grids (:class:`Campaign`)
  that expand to picklable :class:`TrialSpec` descriptors with canonical
  string keys;
* :mod:`~repro.engine.seeds` — per-trial seeds derived by hashing the
  campaign master seed with the trial key, so results are identical for
  any execution order or worker count;
* :mod:`~repro.engine.pool` — an in-process serial executor and one
  multi-process executor (long-lived supervised workers that survive a
  worker dying or hanging), with progress callbacks and — under a
  :class:`FailurePolicy` — per-trial deadlines, bounded retries, a
  batch → serial → dict ladder, and poison-trial quarantine;
* :mod:`~repro.engine.store` — an append-only JSONL store with atomic
  writes, schema versioning, and query helpers;
* :mod:`~repro.engine.resume` — diff a grid against the store and run only
  the missing trials;
* :mod:`~repro.engine.reports` — aggregate stored records into the
  harness ``Table``/``Figure`` machinery.

Typical use::

    from repro.engine import Campaign, ResultStore, run_campaign

    campaign = Campaign("unison-scaling", seed=7, algorithms=("unison",),
                        topologies=("ring", "random"), sizes=(8, 16, 32),
                        scenarios=("gradient",), trials=10)
    store = ResultStore("results.jsonl")
    outcome = run_campaign(campaign, store=store, workers=8, resume=True)

Import-cycle contract: the harness imports this package at module scope,
so engine modules must import ``repro.harness.*`` either from leaf modules
that do not import the engine (``tables``, ``figures``) or lazily inside
functions (``runner``).
"""

from .campaign import Campaign, TrialSpec
from .pool import FailurePolicy, execute_trial, run_specs
from .reports import (
    aggregate,
    scaling_figure,
    summary_table,
    trials_from_records,
)
from .resume import CampaignOutcome, completed_records, missing_specs, run_campaign
from .seeds import derive_seed, spread_seed
from .store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    trial_from_record,
    trial_to_dict,
)

__all__ = [
    "Campaign",
    "TrialSpec",
    "derive_seed",
    "spread_seed",
    "execute_trial",
    "run_specs",
    "FailurePolicy",
    "SCHEMA_VERSION",
    "ResultStore",
    "StoreError",
    "trial_to_dict",
    "trial_from_record",
    "CampaignOutcome",
    "completed_records",
    "missing_specs",
    "run_campaign",
    "aggregate",
    "summary_table",
    "scaling_figure",
    "trials_from_records",
]
