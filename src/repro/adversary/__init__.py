"""Adversarial schedule search over the kernel engine.

The daemon zoo (:mod:`repro.core.daemon`) samples the *friendly* part of
the distributed unfair daemon's schedule space: every zoo daemon is
stochastic or fair.  The paper's complexity claims, however, are
worst-case bounds quantified over **all** unfair schedules — ``3n``
rounds / ``O(D·n²)`` moves for ``U∘SDR`` (Theorems 6–7) and ``8n+4``
rounds for ``FGA∘SDR`` (Theorem 14).  This package *searches* for
move-maximizing schedules so those formulas become empirically
tightened curves instead of unexercised upper bounds:

* :mod:`repro.adversary.potential` — per-algorithm potential functions
  (reset-distance mass, unison skew, FGA election churn, enabled-moves
  preservation) evaluated directly on the kernel's columns;
* :mod:`repro.adversary.search` — :class:`GreedyAdversary` (1-step
  lookahead) and :class:`BeamAdversary` (width-W beam over bounded
  rollouts), both rolling out on column dicts of their own — the
  kernel runtime is only read — and adapted into the daemon contract
  by :class:`SearchDaemon` (kernel backend only; the scored ``delay``
  strategy runs on both);
* :mod:`repro.adversary.certificates` — every search emits a replayable
  schedule certificate that :class:`~repro.core.daemon.ScriptedDaemon`
  re-executes byte-identically on the dict backend.

Searched schedules are still *legal* unfair-daemon executions (every
step activates a non-empty subset of the enabled processes), so every
bound in :mod:`repro.analysis.bounds` must hold on them — CI asserts
exactly that.
"""

from .certificates import (
    CertificateError,
    ReplayReport,
    ScheduleCertificate,
    certificate_from_daemon,
    config_digest,
    dump_certificate,
    load_certificate,
    loads_certificate,
    replay_certificate,
    verify_certificate,
    write_certificate,
)
from .potential import (
    POTENTIAL_KINDS,
    EnabledMoves,
    FgaElectionChurn,
    Potential,
    ResetDistanceMass,
    UnisonSkew,
    WeightedPotential,
    default_potential,
    make_potential,
)
from .search import (
    STRATEGY_KINDS,
    AdversarialDaemon,
    BeamAdversary,
    GreedyAdversary,
    ScoredStrategy,
    SearchDaemon,
    SearchStrategy,
    delay_strategy,
    known_strategy,
    make_search_daemon,
)

__all__ = [
    # potentials
    "Potential",
    "EnabledMoves",
    "ResetDistanceMass",
    "UnisonSkew",
    "FgaElectionChurn",
    "WeightedPotential",
    "default_potential",
    "make_potential",
    "POTENTIAL_KINDS",
    # search
    "SearchStrategy",
    "GreedyAdversary",
    "BeamAdversary",
    "ScoredStrategy",
    "SearchDaemon",
    "AdversarialDaemon",
    "delay_strategy",
    "make_search_daemon",
    "known_strategy",
    "STRATEGY_KINDS",
    # certificates
    "ScheduleCertificate",
    "ReplayReport",
    "CertificateError",
    "config_digest",
    "certificate_from_daemon",
    "write_certificate",
    "dump_certificate",
    "load_certificate",
    "loads_certificate",
    "replay_certificate",
    "verify_certificate",
]
