"""Baseline: reset-tail asynchronous unison in the style of Boulinier et al.

The paper compares ``U ∘ SDR`` against the self-stabilizing unison of
Boulinier, Petit and Villain (PODC 2004, reference [11]), whose stabilization
time is ``O(n)`` rounds and ``O(D·n³ + α·n²)`` moves (as analyzed in [23]).
No public artifact of [11] exists, so this module provides a faithful-shape
**reconstruction** of the classical parametric "reset-tail" algorithm, the
family that also contains Couvreur et al.'s algorithm [20] as a
parameterization (see :func:`couvreur_parameters`).

Model
-----
Each process holds a clock ``r ∈ {−α, …, −1} ∪ {0, …, K−1}``: negative
values form the *tail* (reset zone), non-negative values are normal clock
values counted modulo ``K``.  Two values are *locally comparable* when they
differ by at most one increment — circularly if both are normal, in ℤ if
either is in the tail.

Rules
-----
* ``rule_NA`` (normal advance): a normal process whose neighbors are all on
  time or one ahead ticks modulo ``K``;
* ``rule_TA`` (tail advance): a tail process below ``−1`` climbs one step
  when no neighbor is strictly below it;
* ``rule_TO`` (tail out): a process at ``−1`` enters the normal zone at
  ``0`` when every neighbor is in ``{−1, 0, 1}``;
* ``rule_RA`` (reset): a normal process seeing an incomparable neighbor
  jumps to the bottom of the tail ``−α``.

A reset therefore floods every process whose clock is incomparable with the
spreading tail — the *global, uncoordinated* behaviour that SDR's
cooperative partial resets are designed to avoid; the move-complexity gap
measured by the benchmarks comes precisely from this flooding plus the
``α``-deep climb out.

Parameter validity: the original analysis requires ``K > C_G`` and
``α ≥ T_G − 2``.  :func:`default_parameters` picks the conservative
``K = 2n + 2`` and ``α = n``, valid on every graph since ``C_G ≤ n`` and
``T_G ≤ n``.
"""

from __future__ import annotations

from random import Random
from typing import Any

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration
from ..core.exceptions import AlgorithmError
from ..core.graph import Network

__all__ = [
    "BoulinierUnison",
    "default_parameters",
    "couvreur_parameters",
]

#: Variable name of the extended clock.
RCLOCK = "r"


def default_parameters(n: int) -> tuple[int, int]:
    """Conservative ``(K, α)`` valid on any ``n``-process graph."""
    return 2 * n + 2, n


def couvreur_parameters(n: int) -> tuple[int, int]:
    """Parameters approximating Couvreur et al. [20] (``K > n²``, reset≈0).

    The original resets clocks to 0; a tail of depth 1 is the closest member
    of the parametric family (reset to ``−1``, one climb step out).
    """
    return n * n + 1, 1


class BoulinierUnison(Algorithm):
    """Reconstruction of the reset-tail self-stabilizing unison [11].

    Parameters
    ----------
    network: the communication graph (anonymous).
    period:  the clock period ``K`` (normal zone size).
    alpha:   the tail depth ``α ≥ 1``.
    """

    name = "boulinier"
    mutually_exclusive_rules = True

    def __init__(self, network: Network, period: int | None = None, alpha: int | None = None):
        super().__init__(network)
        default_k, default_a = default_parameters(network.n)
        self.period = default_k if period is None else int(period)
        self.alpha = default_a if alpha is None else int(alpha)
        if self.period < 3:
            raise AlgorithmError("period K must be at least 3")
        if self.alpha < 1:
            raise AlgorithmError("tail depth alpha must be at least 1")

    # ------------------------------------------------------------------
    # Clock-value helpers
    # ------------------------------------------------------------------
    def comparable(self, a: int, b: int) -> bool:
        """Local comparability: at most one increment apart."""
        if a >= 0 and b >= 0:
            k = self.period
            return (a - b) % k <= 1 or (b - a) % k <= 1
        return abs(a - b) <= 1

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def _guard_na(self, cfg: Configuration, u: int) -> bool:
        ru = cfg[u][RCLOCK]
        if ru < 0:
            return False
        ahead = (ru + 1) % self.period
        return all(cfg[v][RCLOCK] in (ru, ahead) for v in self.network.neighbors(u))

    def _guard_ta(self, cfg: Configuration, u: int) -> bool:
        ru = cfg[u][RCLOCK]
        if ru >= -1:
            return False
        return all(cfg[v][RCLOCK] >= ru for v in self.network.neighbors(u))

    def _guard_to(self, cfg: Configuration, u: int) -> bool:
        if cfg[u][RCLOCK] != -1:
            return False
        return all(cfg[v][RCLOCK] in (-1, 0, 1) for v in self.network.neighbors(u))

    def _guard_ra(self, cfg: Configuration, u: int) -> bool:
        ru = cfg[u][RCLOCK]
        if ru < 0:
            return False
        return any(
            not self.comparable(ru, cfg[v][RCLOCK]) for v in self.network.neighbors(u)
        )

    # ------------------------------------------------------------------
    # Algorithm interface
    # ------------------------------------------------------------------
    def variables(self) -> tuple[str, ...]:
        return (RCLOCK,)

    def rule_names(self) -> tuple[str, ...]:
        return ("rule_NA", "rule_TA", "rule_TO", "rule_RA")

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        if rule == "rule_NA":
            # A normal process with an incomparable neighbor must reset, not
            # advance: RA takes priority by excluding NA.
            return self._guard_na(cfg, u) and not self._guard_ra(cfg, u)
        if rule == "rule_TA":
            return self._guard_ta(cfg, u)
        if rule == "rule_TO":
            return self._guard_to(cfg, u)
        if rule == "rule_RA":
            return self._guard_ra(cfg, u)
        self.check_rule(rule)
        return False

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        ru = cfg[u][RCLOCK]
        if rule == "rule_NA":
            return {RCLOCK: (ru + 1) % self.period}
        if rule == "rule_TA":
            return {RCLOCK: ru + 1}
        if rule == "rule_TO":
            return {RCLOCK: 0}
        if rule == "rule_RA":
            return {RCLOCK: -self.alpha}
        self.check_rule(rule)
        raise AssertionError("unreachable")

    def initial_state(self, u: int) -> dict[str, Any]:
        return {RCLOCK: 0}

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        return {RCLOCK: rng.randrange(-self.alpha, self.period)}

    def rule_set(self):
        """IR definition (see :mod:`repro.unison.kernelized`)."""
        from ..ir import rule_set_of
        from .kernelized import boulinier_rule_set

        return rule_set_of(boulinier_rule_set, self.period, self.alpha)

    # ------------------------------------------------------------------
    # Legitimacy
    # ------------------------------------------------------------------
    def is_legitimate(self, cfg: Configuration, live=None) -> bool:
        """No tail values and every edge circularly within one increment.

        ``live`` restricts the check to the live subsystem under
        topology churn (crashed processes and their frozen registers
        are excluded; their incident links are already gone from the
        mutated network).
        """
        if live is None:
            procs = self.network.processes()
            edges = self.network.edges()
        else:
            alive = set(live)
            procs = alive
            edges = [
                (u, v) for u, v in self.network.edges()
                if u in alive and v in alive
            ]
        if any(cfg[u][RCLOCK] < 0 for u in procs):
            return False
        return all(
            self.comparable(cfg[u][RCLOCK], cfg[v][RCLOCK])
            for u, v in edges
        )
