"""Daemons (schedulers) of the locally shared memory model.

A daemon decides, in every step, which non-empty subset of the enabled
processes is activated (paper, Section 2.2).  The *distributed unfair*
daemon is the weakest assumption: any non-empty subset may be activated and
no fairness is guaranteed.  Consequently every daemon below produces
executions that are legal under the distributed unfair daemon; the zoo
exists to drive benchmarks toward interesting corners of that ∀-quantifier:

* :class:`SynchronousDaemon` — everybody moves (classic lower-bound driver);
* :class:`CentralDaemon` — exactly one process moves per step (sequential);
* :class:`LocallyCentralDaemon` — no two neighbors move in the same step;
* :class:`DistributedRandomDaemon` — independent coin per enabled process;
* :class:`WeaklyFairDaemon` — bounded waiting for continuously enabled
  processes (models the weakly fair daemon assumption of related work);
* :class:`ScriptedDaemon` — exact replay for unit tests (and the replay
  vehicle of adversarial schedule certificates).

Schedule searches are not zoo daemons: they live in
:mod:`repro.adversary.search` and reach a trial through its
``adversary=<strategy>`` param, never through :func:`make_daemon`.

All daemons honor the contract checked by the simulator: return a non-empty
subset of the enabled processes, each mapped to one of its enabled rules.
"""

from __future__ import annotations

import abc
from random import Random
from typing import Callable, Mapping, Sequence

from .configuration import Configuration
from .exceptions import DaemonError

__all__ = [
    "Daemon",
    "SynchronousDaemon",
    "CentralDaemon",
    "LocallyCentralDaemon",
    "DistributedRandomDaemon",
    "WeaklyFairDaemon",
    "ScriptedDaemon",
    "DAEMON_KINDS",
    "make_daemon",
]

EnabledMap = Mapping[int, tuple[str, ...]]
Selection = dict[int, str]


class Daemon(abc.ABC):
    """Scheduling strategy: picks activated processes and their rules."""

    name: str = "daemon"

    #: How to pick among several enabled rules of one activated process.
    #: ``"first"`` is deterministic (rule declaration order); ``"random"``
    #: models the nondeterministic choice allowed by the model.
    rule_choice: str = "first"

    @abc.abstractmethod
    def select(
        self,
        cfg: Configuration,
        enabled: EnabledMap,
        rng: Random,
        step: int,
    ) -> Selection:
        """Choose the activated processes (non-empty) and one rule each."""

    # ------------------------------------------------------------------
    def _pick_rule(self, rules: tuple[str, ...], rng: Random) -> str:
        if self.rule_choice == "random" and len(rules) > 1:
            return rules[rng.randrange(len(rules))]
        return rules[0]

    def reset(self) -> None:
        """Clear internal scheduling state (between executions)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SynchronousDaemon(Daemon):
    """Activates every enabled process in every step."""

    name = "synchronous"

    def select(self, cfg, enabled, rng, step):
        return {u: self._pick_rule(rules, rng) for u, rules in enabled.items()}


class CentralDaemon(Daemon):
    """Activates exactly one enabled process per step.

    Parameters
    ----------
    priority:
        Optional scoring callback ``priority(cfg, u, rules) -> float``; the
        enabled process with the highest score is activated (ties broken by
        index).  Without it the choice is uniformly random.
    """

    name = "central"

    def __init__(self, priority: Callable[[Configuration, int, tuple[str, ...]], float] | None = None):
        self._priority = priority

    def select(self, cfg, enabled, rng, step):
        candidates = sorted(enabled)
        if self._priority is None:
            u = candidates[rng.randrange(len(candidates))]
        else:
            u = max(candidates, key=lambda p: (self._priority(cfg, p, enabled[p]), -p))
        return {u: self._pick_rule(enabled[u], rng)}


class LocallyCentralDaemon(Daemon):
    """Activates a maximal set of enabled processes, no two of them neighbors.

    Requires the network at construction to know adjacency.  A greedy pass
    over a random permutation yields a maximal independent set within the
    enabled processes.
    """

    name = "locally-central"

    def __init__(self, network):
        self._network = network

    def select(self, cfg, enabled, rng, step):
        order = list(enabled)
        rng.shuffle(order)
        chosen: Selection = {}
        blocked: set[int] = set()
        for u in order:
            if u in blocked:
                continue
            chosen[u] = self._pick_rule(enabled[u], rng)
            blocked.add(u)
            blocked.update(self._network.neighbors(u))
        return chosen


class DistributedRandomDaemon(Daemon):
    """Includes each enabled process independently with probability ``p``.

    If the coin flips exclude everyone, one enabled process is activated
    uniformly at random so the step is legal (the daemon must be
    "distributed": at least one process moves).
    """

    name = "distributed-random"

    def __init__(self, p: float = 0.5):
        if not 0.0 < p <= 1.0:
            raise DaemonError(f"activation probability must be in (0, 1], got {p}")
        self.p = p

    def select(self, cfg, enabled, rng, step):
        chosen = {
            u: self._pick_rule(rules, rng)
            for u, rules in enabled.items()
            if rng.random() < self.p
        }
        if not chosen:
            candidates = sorted(enabled)
            u = candidates[rng.randrange(len(candidates))]
            chosen[u] = self._pick_rule(enabled[u], rng)
        return chosen

    def __repr__(self) -> str:
        return f"DistributedRandomDaemon(p={self.p})"


class WeaklyFairDaemon(Daemon):
    """Random daemon with bounded waiting.

    A process continuously enabled for ``patience`` consecutive steps is
    forcibly activated, which realizes weak fairness (every continuously
    enabled process is eventually activated).
    """

    name = "weakly-fair"

    def __init__(self, p: float = 0.5, patience: int = 8):
        if patience < 1:
            raise DaemonError("patience must be >= 1")
        self.p = p
        self.patience = patience
        self._waiting: dict[int, int] = {}

    def reset(self) -> None:
        self._waiting.clear()

    def select(self, cfg, enabled, rng, step):
        # Age the waiting counters: processes no longer enabled start over.
        self._waiting = {u: self._waiting.get(u, 0) + 1 for u in enabled}
        chosen: Selection = {}
        for u, rules in enabled.items():
            overdue = self._waiting[u] >= self.patience
            if overdue or rng.random() < self.p:
                chosen[u] = self._pick_rule(rules, rng)
                self._waiting[u] = 0
        if not chosen:
            candidates = sorted(enabled)
            u = candidates[rng.randrange(len(candidates))]
            chosen[u] = self._pick_rule(enabled[u], rng)
            self._waiting[u] = 0
        return chosen


class ScriptedDaemon(Daemon):
    """Replays a fixed list of selections; raises when the script diverges.

    Each script entry is either a mapping ``{u: rule}`` or a collection of
    process indices (their first enabled rule is used).  Intended for unit
    tests that exercise hand-constructed executions.
    """

    name = "scripted"

    def __init__(self, script: Sequence[Mapping[int, str] | Sequence[int]]):
        self._script = list(script)

    def select(self, cfg, enabled, rng, step):
        if step >= len(self._script):
            raise DaemonError(f"scripted daemon exhausted at step {step}")
        entry = self._script[step]
        if isinstance(entry, Mapping):
            chosen = dict(entry)
        else:
            chosen = {}
            for u in entry:
                if u not in enabled:
                    raise DaemonError(f"scripted activation of disabled process {u} at step {step}")
                chosen[u] = enabled[u][0]
        for u, rule in chosen.items():
            if u not in enabled or rule not in enabled[u]:
                raise DaemonError(
                    f"scripted daemon picked disabled move ({u}, {rule}) at step {step}"
                )
        if not chosen:
            raise DaemonError(f"scripted daemon selected nothing at step {step}")
        return chosen


_FACTORIES = {
    "synchronous": lambda network: SynchronousDaemon(),
    "central": lambda network: CentralDaemon(),
    "locally-central": lambda network: LocallyCentralDaemon(network),
    "distributed-random": lambda network: DistributedRandomDaemon(),
    "weakly-fair": lambda network: WeaklyFairDaemon(),
}


#: Daemon names :func:`make_daemon` accepts (for up-front CLI validation).
DAEMON_KINDS = tuple(sorted(_FACTORIES))


def make_daemon(kind: str, network=None) -> Daemon:
    """Instantiate a zoo daemon by name (used by the experiment harness)."""
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise DaemonError(
            f"unknown daemon {kind!r}; choose from {list(DAEMON_KINDS)}"
        ) from None
    return factory(network)
