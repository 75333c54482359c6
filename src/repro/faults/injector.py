"""Transient-fault injection.

Self-stabilization promises recovery from *any* finite number of transient
faults.  The fault injector realizes the standard experimental protocol:
start from a legitimate configuration, corrupt the variables of ``k``
processes (values drawn from the algorithm's own variable domains via
``random_state``), and measure recovery.  Per-variable corruption is also
supported for finer-grained experiments (e.g. corrupting only the input
algorithm's state but not SDR's, or vice versa).
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Sequence

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration

__all__ = ["corrupt_processes", "corrupt_variables", "pick_victims",
           "FaultPlan"]


def corrupt_processes(
    algorithm: Algorithm,
    cfg: Configuration,
    processes: Iterable[int],
    rng: Random,
    variables: Sequence[str] | None = None,
) -> Configuration:
    """Return a copy of ``cfg`` with the given processes' state corrupted.

    ``variables`` restricts which variables get corrupted (default: all of
    the algorithm's variables).  Values come from ``random_state`` so they
    stay within the declared domains — transient faults in the model can
    corrupt register *contents*, not the program.
    """
    targets = set(processes)
    allowed = tuple(variables) if variables is not None else algorithm.variables()
    corrupted = cfg.copy()
    for u in targets:
        junk = algorithm.random_state(u, rng)
        for var in allowed:
            corrupted.set(u, var, junk[var])
    return corrupted


def corrupt_variables(
    algorithm: Algorithm,
    cfg: Configuration,
    assignments: Iterable[tuple[int, str]],
    rng: Random,
) -> Configuration:
    """Corrupt an explicit list of ``(process, variable)`` registers."""
    corrupted = cfg.copy()
    for u, var in assignments:
        junk = algorithm.random_state(u, rng)
        corrupted.set(u, var, junk[var])
    return corrupted


def pick_victims(network, rng: Random, k: int, clustered: bool) -> list[int]:
    """``min(k, n)`` distinct victim processes of ``network``: sampled
    uniformly, or, when ``clustered``, a connected region grown from a
    random seed process (faults that hit one physical area)."""
    k = min(k, network.n)
    if not clustered:
        return rng.sample(range(network.n), k)
    seed = rng.randrange(network.n)
    victims = [seed]
    frontier = list(network.neighbors(seed))
    seen = {seed}
    while len(victims) < k and frontier:
        idx = rng.randrange(len(frontier))
        v = frontier.pop(idx)
        if v in seen:
            continue
        seen.add(v)
        victims.append(v)
        frontier.extend(w for w in network.neighbors(v) if w not in seen)
    return victims


class FaultPlan:
    """Reusable fault scenario: *which* processes get hit, and *how*.

    Parameters
    ----------
    k:
        Number of distinct processes to corrupt.
    variables:
        Optional restriction of the corrupted variables.
    clustered:
        When true, the ``k`` victims form a connected region around a
        random seed process (faults that hit one physical area); when
        false, victims are sampled uniformly.
    """

    def __init__(self, k: int, variables: Sequence[str] | None = None, clustered: bool = False):
        if k < 1:
            raise ValueError("a fault plan must corrupt at least one process")
        self.k = k
        self.variables = tuple(variables) if variables is not None else None
        self.clustered = clustered

    def pick_victims(self, algorithm: Algorithm, rng: Random) -> list[int]:
        """Choose the victim processes for one experiment run."""
        return pick_victims(algorithm.network, rng, self.k, self.clustered)

    def apply(self, algorithm: Algorithm, cfg: Configuration, rng: Random) -> tuple[Configuration, list[int]]:
        """Corrupt a copy of ``cfg``; returns ``(corrupted, victims)``."""
        victims = self.pick_victims(algorithm, rng)
        corrupted = corrupt_processes(algorithm, cfg, victims, rng, self.variables)
        return corrupted, victims
