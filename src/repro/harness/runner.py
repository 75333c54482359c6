"""The trial pipeline, driven by a registry of sweepable algorithms.

A *trial* fixes (topology, algorithm, initial-configuration scenario,
daemon, seed), runs to stabilization (or termination), and reports a flat
record of measurements.  Every sweepable algorithm is one
:class:`AlgorithmEntry` in :data:`ALGORITHMS`; the pipeline on top is
written once:

* :func:`run_network_trial` runs one trial in-process — plain,
  fault/churn recovery, or adversary search — riding the fused kernel
  loop on a vectorized legitimacy mask when the program has one;
* :func:`run_trial` runs one :class:`repro.engine.TrialSpec`;
* :func:`run_trial_batch` runs a campaign cell's replicates as one tiled
  multi-trial simulation, record-identical to serial runs.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import types
import typing
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Literal, Mapping, Sequence

from ..alliance.fga import FGA
from ..alliance.functions import INSTANCES, instance_by_name
from ..analysis.metrics import RunMetrics, collect_metrics
from ..core.daemon import DAEMON_KINDS, Daemon, make_daemon
from ..core.exceptions import NotStabilized, UnbatchableError
from ..core.graph import Network
from ..core.simulator import BACKENDS, Simulator
from ..faults.injector import corrupt_processes
from ..faults.scenarios import clock_gradient, clock_split, fake_reset_wave, hollow_alliance
from ..faults.churn import parse_churn
from ..faults.schedule import parse_schedule
from ..probes import RecoveryProbe, SdrWaveProbe, StabilizationProbe
from ..reset.sdr import SDR
from ..topology import by_name
from ..unison.boulinier import BoulinierUnison
from ..unison.unison import Unison

if TYPE_CHECKING:  # descriptor type only — the engine imports this module
    from ..engine.campaign import TrialSpec

__all__ = [
    "ALGORITHMS",
    "AlgorithmEntry",
    "RUN_OPTIONS",
    "Trial",
    "can_batch",
    "check_params",
    "run_network_trial",
    "run_trial",
    "run_trial_batch",
    "scenario_start",
]


@dataclass(frozen=True)
class Trial:
    """Flat record of one stabilization measurement."""

    algorithm: str
    scenario: str
    daemon: str
    seed: int
    n: int
    m: int
    diameter: int
    max_degree: int
    rounds: int
    moves: int
    steps: int
    metrics: RunMetrics
    extra: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The algorithm registry
# ----------------------------------------------------------------------
#: ``start(algorithm, rng)`` — one scenario's initial configuration.
StartFn = Callable[[Any, Random], Any]


@dataclass(frozen=True)
class AlgorithmEntry:
    """What the trial pipeline needs to know about one algorithm.

    ``build(network, **params)`` instantiates it from the trial's own
    params.  ``scenarios`` maps each declared start scenario to its
    ``start(algorithm, rng)``; ``corruptible`` also declares
    ``faults:<k>`` (the initial configuration with ``k`` random processes
    corrupted).  ``legitimacy`` is the ``(mask, predicate)`` pair of the
    legitimacy notion — ``mask`` names the predicate the rule set
    declares (it rides the fused loop, and tells an adversary search
    where the measured run stops), ``predicate`` the algorithm's
    decode-tier method — or ``None`` when trials run to termination
    (silent compositions).  ``max_steps`` is the default step
    budget; ``extra(algorithm, final)`` returns the algorithm's own record
    fields, ``final()`` decoding the final configuration on demand.
    """

    label: str
    build: Callable[..., Any]
    scenarios: Mapping[str, StartFn]
    max_steps: int
    legitimacy: tuple[str, str] | None = None
    corruptible: bool = False
    extra: Callable[[Any, Callable[[], Any]], dict] | None = None

    @property
    def mask(self) -> str | None:
        return self.legitimacy[0] if self.legitimacy is not None else None


def _random(algo, rng: Random):
    return algo.random_configuration(rng)


def _corrupted(k: int) -> StartFn:
    """``faults:k`` — the initial configuration with ``k`` random victims."""

    def start(algo, rng: Random):
        n = algo.network.n
        cfg = algo.initial_configuration()
        return corrupt_processes(algo, cfg, rng.sample(range(n), min(k, n)), rng)

    return start


def _boulinier_gradient(algo: BoulinierUnison, rng: Random):
    cfg = algo.initial_configuration()
    for u in algo.network.processes():
        cfg.set(u, "r", (3 * u) % algo.period)
    return cfg


def _boulinier_split(algo: BoulinierUnison, rng: Random):
    cfg = algo.initial_configuration()
    half, far = algo.network.n // 2, algo.period // 2
    for u in algo.network.processes():
        cfg.set(u, "r", 0 if u < half else far)
    return cfg


def _build_unison(network: Network, period: int | None = None) -> SDR:
    return SDR(Unison(network, period=period))


def _build_boulinier(network: Network, period: int | None = None,
                     alpha: int | None = None) -> BoulinierUnison:
    return BoulinierUnison(network, period=period, alpha=alpha)


#: The alliance instances ``fga`` builds by name.
Instance = Literal[tuple(INSTANCES)]


def _build_fga(network: Network,
               instance: Instance | tuple = "dominating-set") -> SDR:
    """``instance`` names an alliance instance or is an ``(f, g)`` pair."""
    f, g = instance_by_name(instance, network) if isinstance(instance, str) else instance
    return SDR(FGA(network, f, g))


def _alliance(sdr: SDR, final) -> dict:
    alliance = sdr.input.alliance(final())
    return {"alliance_size": len(alliance), "alliance": frozenset(alliance)}


#: The sweepable algorithms, by campaign name — the one list the engine,
#: the CLI and the batched runner consult.  A new one is one entry here.
#: The ``gradient``/``split`` scenarios of both unisons put the same
#: amount of disorder on the shared clock variable, so head-to-head
#: comparisons start alike.
ALGORITHMS: dict[str, AlgorithmEntry] = {
    "unison": AlgorithmEntry(
        label="U o SDR",
        build=_build_unison,
        scenarios={
            "random": _random,
            "gradient": lambda sdr, rng: clock_gradient(sdr),
            "split": lambda sdr, rng: clock_split(sdr),
            "fake-wave": fake_reset_wave,
        },
        max_steps=2_000_000,
        legitimacy=("normal", "is_normal"),
        corruptible=True,
    ),
    "boulinier": AlgorithmEntry(
        label="boulinier",
        build=_build_boulinier,
        scenarios={
            "random": _random,
            "gradient": _boulinier_gradient,
            "split": _boulinier_split,
        },
        max_steps=5_000_000,
        legitimacy=("legitimate", "is_legitimate"),
        extra=lambda algo, final: {"period": algo.period, "alpha": algo.alpha},
    ),
    "fga": AlgorithmEntry(
        label="FGA o SDR",
        build=_build_fga,
        scenarios={
            "random": _random,
            "init": lambda sdr, rng: sdr.initial_configuration(),
            "hollow": lambda sdr, rng: hollow_alliance(sdr),
        },
        max_steps=5_000_000,
        corruptible=True,
        extra=_alliance,
    ),
}


def _entry(algorithm: str) -> AlgorithmEntry:
    try:
        return ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown trial algorithm {algorithm!r}; choose from {list(ALGORITHMS)}"
        ) from None


def scenario_start(algorithm: str, scenario: str) -> StartFn:
    """The start function ``algorithm`` declares for ``scenario``.

    Raises ``ValueError`` for an unknown algorithm, an undeclared
    scenario, or a malformed ``faults:<k>``.
    """
    entry = _entry(algorithm)
    start = entry.scenarios.get(scenario)
    if start is not None:
        return start
    kind, _, arg = scenario.partition(":")
    if entry.corruptible and kind == "faults" and arg.isdecimal():
        return _corrupted(int(arg))
    declared = list(entry.scenarios) + (["faults:<k>"] if entry.corruptible else [])
    raise ValueError(
        f"unknown {algorithm} scenario {scenario!r}; choose from {declared}"
    )


def _max_steps(value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"max_steps must be a non-negative int, got {value!r}")


def _backend(value) -> None:
    if value not in BACKENDS:
        raise ValueError(f"unknown backend {value!r}; choose from {list(BACKENDS)}")


def _adversary(value) -> None:
    from ..adversary.search import STRATEGY_KINDS, known_strategy

    # An empty spec would parse as greedy under a second trial key.
    if not (isinstance(value, str) and value and known_strategy(value)):
        raise ValueError(
            f"unknown adversary strategy {value!r}; choose from "
            f"{list(STRATEGY_KINDS)} (beam takes optional -W, -WxH, -WxHxB "
            "suffixes, e.g. beam-3x3)"
        )


#: The run options: spec params that steer a run (the keyword options of
#: :func:`run_network_trial`) rather than build the algorithm, each with
#: its check, which raises ``ValueError`` on a malformed value.  The
#: checks read names and parse specs; they build nothing.
RUN_OPTIONS: dict[str, Callable[[Any], object]] = {
    "max_steps": _max_steps,
    "backend": _backend,
    "faults": parse_schedule,
    "churn": parse_churn,
    "adversary": _adversary,
}


def _split_params(params) -> tuple[tuple, dict]:
    """Trial ``params`` as (build-param pairs, run options)."""
    build = tuple((k, v) for k, v in params if k not in RUN_OPTIONS)
    options = {k: v for k, v in params if k in RUN_OPTIONS}
    return build, options


def _check_run(options: Mapping[str, Any], daemon) -> None:
    """Check a trial's run options (``None`` for an absent one) under
    ``daemon``, then the adversary's exclusions: the search *is* the
    scheduler, so the daemon stays at its default; it has no dict twin
    (its certificate is replayed on the dict backend instead); and a
    disturbance mid-rollout would invalidate every rollout score."""
    for key, value in options.items():
        if value is not None:
            RUN_OPTIONS[key](value)
    adversary = options.get("adversary")
    if adversary is None:
        return
    if options.get("faults") is not None or options.get("churn") is not None:
        raise ValueError(
            "adversary search does not compose with faults/churn schedules"
        )
    if isinstance(daemon, Daemon) or daemon != "distributed-random":
        raise ValueError(
            f"adversary={adversary!r} replaces the daemon; leave the "
            f"daemon at its default (got {daemon!r})"
        )
    if options.get("backend") == "dict":
        raise ValueError(
            "adversary search requires the kernel backend; its certificate "
            "is replayed on the dict backend instead (done automatically)"
        )


def check_params(algorithm: str, params,
                 daemon: str = "distributed-random") -> None:
    """Reject a malformed ``params`` (``(key, value)`` pairs) of an
    ``algorithm`` trial under ``daemon``, before anything is built.

    Run options (:data:`RUN_OPTIONS`) go through their checks and the
    adversary's exclusions.  Every other key must be a keyword parameter
    of the entry's ``build`` after the network argument, and its value
    must match that parameter's annotation, if it has one.  Raises
    ``ValueError``.
    """
    values, options = _split_params(params)
    _check_run(options, daemon)
    if not values:
        return
    build = _entry(algorithm).build
    names = list(inspect.signature(build).parameters)[1:]
    unknown = [key for key, _ in values if key not in names]
    if unknown:
        raise ValueError(
            f"{algorithm} takes no param(s) {unknown}; it declares {names} "
            f"(run options: {sorted(RUN_OPTIONS)})"
        )
    hints = typing.get_type_hints(build)
    for key, value in values:
        if key in hints and not _admits(hints[key], value):
            raise ValueError(
                f"{algorithm} param {key}={value!r} is not {_describe(hints[key])}"
            )


def _admits(hint, value) -> bool:
    """Whether ``value`` fits the annotation ``hint``: a class, a
    ``Literal`` of the admitted values, or a union of those."""
    if typing.get_origin(hint) is Literal:
        return value in typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_admits(h, value) for h in typing.get_args(hint))
    # A bool is an int to isinstance, never to an annotated param.
    return not isinstance(value, bool) and isinstance(value, hint)


def _describe(hint) -> str:
    """The annotation ``hint`` in words, for a refusal: ``one of 'a',
    'b'``, a class by its name, alternatives joined with "or"."""
    if typing.get_origin(hint) is Literal:
        return "one of " + ", ".join(map(repr, typing.get_args(hint)))
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, typing.get_args(hint)))
    return "None" if hint is type(None) else hint.__name__


# ----------------------------------------------------------------------
# The shared pipeline pieces
# ----------------------------------------------------------------------
class _Disturbances:
    """One trial's fault and churn schedules, bound, with their probes.

    Both schedules bind to the trial seed (unless a spec pins its own
    ``seed=``) and share one :class:`~repro.probes.RecoveryProbe`: every
    fault burst and churn occurrence arms a stopwatch, and the per-burst
    series lands in ``Trial.extra``, byte-identical on every execution
    path.  Finite schedules stop the run once every burst recovered;
    silent compositions stop at the re-termination after the last burst.
    SDR compositions also count reset waves.
    """

    def __init__(self, entry: AlgorithmEntry, algo, seed: int, faults, churn):
        self.fault_sched = parse_schedule(faults) if faults is not None else None
        self.churn_sched = parse_churn(churn) if churn is not None else None
        self.faults = self.churn = None
        if self.fault_sched is not None:
            self.faults = self.fault_sched.bind(algo, default_seed=seed)
        if self.churn_sched is not None:
            self.churn = self.churn_sched.bind(algo, default_seed=seed)
        scheds = [s for s in (self.fault_sched, self.churn_sched) if s is not None]
        self.finite = all(s.finite for s in scheds)
        self.total = sum(s.total_occurrences for s in scheds) if self.finite else None
        mask, predicate = entry.legitimacy or (None, None)
        terminal = entry.legitimacy is None
        self.recovery = RecoveryProbe(
            None if terminal else getattr(algo, predicate),
            mask=mask,
            terminal=terminal,
            expected=self.total,
            stop=self.finite and not terminal,
        )
        self.waves = SdrWaveProbe() if isinstance(algo, SDR) else None
        self.probes = [self.recovery] + ([self.waves] if self.waves else [])

    def failure(self, stop_reason: str, steps: int) -> str | None:
        """Finite schedules must fully recover; unbounded ones run to budget."""
        if not self.finite or self.recovery.all_recovered:
            return None
        bound = [b for b in (self.faults, self.churn) if b is not None]
        if stop_reason == "terminal" and all(b.exhausted for b in bound):
            # A pulled-forward burst can leave a terminal configuration
            # terminal (the drawn junk matched the current registers); no
            # observation follows the break, so that burst stays open.
            return None
        open_bursts = len(self.recovery.bursts) - self.recovery.recovered_count
        pending = self.total - len(self.recovery.bursts)
        return (
            f"fault schedule not absorbed within {steps} steps "
            f"({open_bursts} bursts unrecovered, {pending} not yet fired)"
        )

    def extra(self) -> dict:
        out: dict[str, Any] = {}
        if self.fault_sched is not None:
            out["faults"] = self.fault_sched.canonical()
        if self.churn is not None:
            out["churn"] = self.churn_sched.canonical()
            dead = self.churn.dead()
            out["churn_final"] = {
                "fired": self.churn.fired,
                "live": self.churn.n - len(dead),
                "dead": list(dead),
                "components": self.churn.components(),
                "edges": len(self.churn.current_edges()),
            }
        out["recovery"] = self.recovery.summary()
        if self.waves is not None:
            out["sdr_waves"] = self.waves.summary()
        return out


def _trial_probes(entry: AlgorithmEntry, algo, seed: int, faults, churn):
    """One trial's probes, the same on the serial and batched paths:
    ``(kit, measure, probes)``.

    A disturbed trial carries its :class:`_Disturbances` kit's probes; a
    plain one with a legitimacy notion the :class:`StabilizationProbe`
    ``measure`` that stops it at the first legitimate configuration and
    whose ``(rounds, moves, step)`` the record reports.
    """
    kit = measure = None
    probes = []
    if faults is not None or churn is not None:
        kit = _Disturbances(entry, algo, seed, faults, churn)
        probes = kit.probes
    elif entry.legitimacy is not None:
        mask, predicate = entry.legitimacy
        measure = StabilizationProbe(getattr(algo, predicate), mask=mask,
                                     name=mask)
        probes = [measure]
    return kit, measure, probes


def _failure(entry: AlgorithmEntry, kit: _Disturbances | None,
             measure: StabilizationProbe | None, max_steps: int,
             stop_reason: str, steps: int) -> str | None:
    """Why a finished run does not count as a trial (``None`` if it does)."""
    if kit is not None:
        return kit.failure(stop_reason, steps)
    if measure is None:
        if stop_reason != "terminal":
            return f"no terminal configuration within {max_steps} steps"
    elif not measure.hit:
        return f"predicate {entry.mask!r} not reached within {max_steps} steps"
    return None


def _counts(measure: StabilizationProbe | None, rounds: int, moves: int,
            steps: int) -> tuple[int, int, int]:
    """The record's ``(rounds, moves, steps)``: at the first legitimate
    configuration, else the run's totals."""
    if measure is not None:
        return measure.rounds, measure.moves, measure.step
    return rounds, moves, steps


def _extra(entry: AlgorithmEntry, algo, final, kit: _Disturbances | None) -> dict:
    extra = entry.extra(algo, final) if entry.extra is not None else {}
    if kit is not None:
        extra.update(kit.extra())
    return extra


def _topology(network: Network) -> tuple[int, int, int, int]:
    """The record's ``(n, m, diameter, max_degree)``, taken before the run.

    Churn mutates the network in place, and a crashed-for-good process
    leaves the final graph disconnected (diameter undefined).  The trial
    record describes the experiment's *parameter* topology; the final
    shape lands in ``extra["churn_final"]``.
    """
    return network.n, network.m, network.diameter, network.max_degree


def _record(entry: AlgorithmEntry, scenario: str, daemon: str, seed: int,
            topology: tuple, counts: tuple, metrics: RunMetrics,
            extra: dict) -> Trial:
    """The one :class:`Trial` constructor: ``topology`` is ``(n, m,
    diameter, max_degree)``, ``counts`` is ``(rounds, moves, steps)``."""
    return Trial(entry.label, scenario, daemon, seed, *topology, *counts,
                 metrics, extra)


# ----------------------------------------------------------------------
# Adversarial schedule search (the ``adversary`` trial param)
# ----------------------------------------------------------------------
def _adversary_extra(daemon: Daemon, adversary: str, label: str, algo,
                     initial, final, rounds: int, seed: int,
                     network: Network) -> dict:
    """Certificate + dict-backend replay verification of a finished search.

    Raises :class:`~repro.adversary.certificates.CertificateError` if the
    replay diverges in any way — a found schedule that the reference
    interpreter cannot reproduce is not a result.  With
    ``$REPRO_CERT_DIR`` set, the certificate is also written there.
    """
    from ..adversary.certificates import (
        certificate_from_daemon,
        verify_certificate,
        write_certificate,
    )

    cert = certificate_from_daemon(
        daemon, algorithm=label, seed=seed, initial=initial, final=final,
        rounds=rounds,
        meta={"spec": adversary, "m": network.m, "diameter": network.diameter},
    )
    report = verify_certificate(cert, algo, initial, backend="dict")
    out = {
        "strategy": getattr(daemon, "spec", daemon.name),
        "spec": adversary,
        "digest": cert.digest(),
        "initial_hash": cert.initial_hash,
        "final_hash": cert.final_hash,
        "replay": {
            "backend": report.backend,
            "ok": report.ok,
            "steps": report.steps,
            "moves": report.moves,
            "rounds": report.rounds,
        },
    }
    cert_dir = os.environ.get("REPRO_CERT_DIR")
    if cert_dir:
        os.makedirs(cert_dir, exist_ok=True)
        slug = re.sub(
            r"[^A-Za-z0-9.]+", "-", f"{cert.algorithm}-{cert.strategy}"
        ).strip("-").lower()
        path = os.path.join(cert_dir, f"{slug}-n{cert.n}-s{cert.seed}.jsonl")
        write_certificate(cert, path)
        out["certificate_path"] = path
    return out


# ----------------------------------------------------------------------
# Serial trials
# ----------------------------------------------------------------------
def run_network_trial(
    algorithm: str,
    network: Network,
    *,
    seed: int = 0,
    daemon: str | Daemon = "distributed-random",
    scenario: str = "random",
    max_steps: int | None = None,
    backend: str = "auto",
    faults=None,
    churn=None,
    adversary: str | None = None,
    **params,
) -> Trial:
    """Run one trial of a registered algorithm on ``network``.

    ``algorithm`` (a key of :data:`ALGORITHMS`) is built from ``params``
    — ``period``/``alpha`` for the unisons, ``instance`` for FGA (a name
    or an ``(f, g)`` pair) — started from ``scenario``, and run until
    legitimate (or terminal) within ``max_steps`` (default: the entry's).
    ``backend`` picks the engine; records never depend on it.
    ``faults`` and/or ``churn``
    (schedule specs or objects) switch to the recovery workload: a finite
    schedule must be absorbed within ``max_steps`` and the per-burst
    series lands in ``Trial.extra``.  ``adversary`` (``greedy``,
    ``beam-WxH``, ``delay`` …) replaces the daemon with a schedule search
    on the kernel backend, replay-verified on the dict backend before
    ``Trial.extra["adversary"]`` lands.  These run options are checked
    (:data:`RUN_OPTIONS`) before anything is built.
    """
    entry = _entry(algorithm)
    return _run_built(
        entry, algorithm,
        lambda: (network, entry.build(network, **params), _topology(network)),
        seed=seed, daemon=daemon, scenario=scenario, max_steps=max_steps,
        backend=backend, faults=faults, churn=churn, adversary=adversary,
    )


def _run_built(entry: AlgorithmEntry, algorithm: str,
               setup: Callable[[], tuple[Network, Any, tuple]], *, seed: int,
               daemon, scenario: str, max_steps: int | None = None,
               backend: str = "auto", faults=None, churn=None,
               adversary: str | None = None) -> Trial:
    """:func:`run_network_trial` past the arguments: check the run
    options, then run the algorithm of ``setup()`` — ``(network,
    algorithm built by entry on it, its _topology)``; only a churn trial
    may edit that network."""
    _check_run({"max_steps": max_steps, "backend": backend, "faults": faults,
                "churn": churn, "adversary": adversary}, daemon)
    network, algo, topology = setup()
    cfg = scenario_start(algorithm, scenario)(algo, Random(seed))
    if max_steps is None:
        max_steps = entry.max_steps
    if adversary is not None:
        from ..adversary.search import make_search_daemon

        # The search replaces the daemon, on the kernel backend, and treats
        # the legitimacy predicate as terminal: the measured run stops there.
        daemon, backend = make_search_daemon(adversary), "kernel"
        daemon.strategy.stop_mask = entry.mask
    kit, measure, probes = _trial_probes(entry, algo, seed, faults, churn)
    if not isinstance(daemon, Daemon):
        daemon = make_daemon(daemon, network)
    sim = Simulator(algo, daemon, config=cfg, seed=seed,
                    backend=backend, probes=probes,
                    faults=kit.faults if kit else None,
                    churn=kit.churn if kit else None)
    result = sim.run(max_steps=max_steps)
    why = _failure(entry, kit, measure, max_steps, result.stop_reason,
                   result.steps)
    if why is not None:
        raise NotStabilized(why, steps=result.steps)
    counts = _counts(measure, result.rounds, result.moves, result.steps)
    extra = _extra(entry, algo, lambda: sim.cfg, kit)
    if adversary is not None:
        extra["adversary"] = _adversary_extra(
            sim.daemon, adversary, entry.label, algo, cfg, sim.cfg,
            counts[0], seed, network,
        )
    return _record(entry, scenario, sim.daemon.name, seed, topology, counts,
                   collect_metrics(sim), extra)


def run_trial(spec: "TrialSpec", seed: int | None = None) -> Trial:
    """Descriptor-driven entry point used by :mod:`repro.engine`.

    ``spec`` names the algorithm, topology family (built via
    :func:`repro.topology.by_name` with ``spec.topology_seed``), scenario,
    daemon, and any extra keyword params; ``seed`` is the trial's PRNG seed
    (the engine derives it from the campaign seed and the spec key; when
    omitted, the replicate index is used so bare specs stay runnable).
    The network and algorithm come from the process's setup memo
    (:func:`_setup`), except for churn trials, which own theirs.
    """
    entry = _entry(spec.algorithm)
    params, options = _split_params(spec.params)
    return _run_built(
        entry, spec.algorithm,
        lambda: _setup(entry, spec, params, options.get("churn")),
        seed=spec.trial if seed is None else seed,
        daemon=spec.daemon, scenario=spec.scenario, **options,
    )


# ----------------------------------------------------------------------
# Per-process setup
# ----------------------------------------------------------------------
def _build(build, topology: str, n: int, topology_seed: int,
           params: tuple) -> tuple[Network, Any, tuple]:
    network = by_name(topology, n, seed=topology_seed)
    return network, build(network, **dict(params)), _topology(network)


_shared_setup = functools.lru_cache(maxsize=16)(_build)


def _setup(entry: AlgorithmEntry, spec: "TrialSpec", params: tuple,
           churn=None) -> tuple[Network, Any, tuple]:
    """The trial's ``(Network, algorithm, topology descriptors)``, shared
    by every trial of the process with the same entry ``build``,
    topology, n, topology seed and build params: a run cannot change
    them, so the topology is built and its diameter computed once.  The
    rule set and its generated code are not part of this memo: they
    come from the per-process shape cache (:func:`repro.ir.rule_set_of`)
    for churn trials too."""
    args = (entry.build, spec.topology, spec.n, spec.topology_seed, params)
    if churn is not None:
        # Churn edits its Network in place: a churn trial builds its own
        # network and algorithm, and never sees or leaves a shared one.
        return _build(*args)
    return _shared_setup(*args)


# ----------------------------------------------------------------------
# Batched cells
# ----------------------------------------------------------------------
def can_batch(spec: "TrialSpec") -> bool:
    """Whether a cell of replicates of ``spec`` can run as one batch.

    Requires a registered algorithm, a zoo daemon (every one has an
    exact vector twin), no schedule search and no explicit
    ``backend=dict``: batching never changes results, but a user who
    asked for the dict engine must get it.
    """
    params = dict(spec.params)
    return not (
        spec.algorithm not in ALGORITHMS
        or spec.daemon not in DAEMON_KINDS
        # A search has no vector twin: it *is* the scheduler, looking
        # ahead from the runtime's columns every step.
        or params.get("adversary")
        or params.get("backend") == "dict"
        # The trials of a churn cell share one Network that every bound
        # churn schedule edits in place, and compaction re-tiles
        # from the base CSR, dropping per-lane deltas.
        or params.get("churn")
    )


def run_trial_batch(
    specs: Sequence["TrialSpec"],
    seeds: Sequence[int],
) -> list[Trial]:
    """Run one campaign cell's replicate trials as a single tiled batch.

    ``specs`` must share everything but the replicate index (one cell);
    ``seeds`` are the per-trial PRNG seeds in the same order.  Results
    are record-identical to ``[run_trial(spec, seed) for …]``: each
    replicate carries the probes its serial run would
    (:func:`_trial_probes`) on its block of the tiled buffers.

    Raises :class:`~repro.core.exceptions.UnbatchableError` when the
    cell cannot be batched (callers fall back to serial trials).  When a
    replicate exhausts its step budget, the raised
    :class:`~repro.core.exceptions.NotStabilized` carries the siblings'
    finished ``(index, Trial)`` pairs in ``partial``.
    """
    spec = specs[0]
    if any(s.cell_key() != spec.cell_key() for s in specs[1:]):
        raise ValueError("run_trial_batch requires specs from one grid cell")
    params, options = _split_params(spec.params)
    if not can_batch(spec):
        raise UnbatchableError(f"cell {spec.cell_key()!r} cannot be batched")
    from ..core.kernel.batch import run_batch

    entry = ALGORITHMS[spec.algorithm]
    # Batching implies the kernel backend (can_batch routed an explicit
    # backend=dict away).
    faults = options.get("faults")
    max_steps = options.get("max_steps", entry.max_steps)
    network, algo, topology = _setup(entry, spec, params)
    program = algo.kernel_program()
    if program is None:
        raise UnbatchableError(
            f"{algo.name}: no kernel program — cell cannot be batched"
        )
    start = scenario_start(spec.algorithm, spec.scenario)
    cfgs = [start(algo, Random(seed)) for seed in seeds]
    # Bound schedules and probes are stateful: every replicate gets its own.
    kits, measures, trial_probes = zip(*(
        _trial_probes(entry, algo, seed, faults, None)
        for seed in seeds
    ))
    daemons = [make_daemon(spec.daemon, network) for _ in specs]
    result = run_batch(
        program, cfgs, daemons, [Random(seed) for seed in seeds], network,
        max_steps=max_steps,
        exclusion_name=algo.name if algo.mutually_exclusive_rules else None,
        probes=trial_probes,
        faults=[kit.faults if kit else None for kit in kits],
    )

    finished: list[tuple[int, Trial]] = []
    first_failure = None
    for t, (seed, daemon, outcome, kit, measure) in enumerate(
        zip(seeds, daemons, result.outcomes, kits, measures)
    ):
        why = _failure(entry, kit, measure, max_steps, outcome.stop_reason,
                       outcome.steps)
        if why is not None:
            first_failure = first_failure or (why, outcome.steps)
            continue
        metrics = RunMetrics(outcome.steps, outcome.moves, outcome.rounds,
                             outcome.moves_per_process, outcome.moves_per_rule)
        counts = _counts(measure, outcome.rounds, outcome.moves, outcome.steps)
        extra = _extra(entry, algo, lambda: result.configuration(t), kit)
        finished.append((t, _record(entry, spec.scenario, daemon.name, seed,
                                    topology, counts, metrics, extra)))
    if first_failure is not None:
        why, steps = first_failure
        raise NotStabilized(why, steps=steps, partial=finished)
    return [trial for _, trial in finished]
