"""Algorithm U — asynchronous unison (paper, Algorithm 2, Section 5).

Each process holds a periodic clock ``c_u ∈ {0, …, K−1}`` with ``K > n``.
Starting from ``γ_init`` (all clocks zero), ``U`` implements unison in
anonymous networks: a process increments (mod ``K``) when it is on time or
one increment late with respect to every neighbor.  ``U`` is *not*
self-stabilizing — ``U ∘ SDR`` is (Theorem 6) with stabilization in at most
``3n`` rounds and ``O(D·n²)`` moves.

As an :class:`~repro.reset.interface.InputAlgorithm`, ``U`` exports to SDR:

* ``P_ICorrect(u) ≡ ∀v ∈ N(u): c_v ∈ {c_u ⊖ 1, c_u, c_u ⊕ 1}``;
* ``P_reset(u) ≡ c_u = 0``;
* ``reset(u) : c_u := 0``.
"""

from __future__ import annotations

from random import Random
from typing import Any

from ..core.configuration import Configuration
from ..core.exceptions import AlgorithmError
from ..core.graph import Network
from ..reset.interface import InputAlgorithm

__all__ = ["Unison", "CLOCK"]

#: Variable name of the clock.
CLOCK = "c"


class Unison(InputAlgorithm):
    """The paper's Algorithm U.

    Parameters
    ----------
    network:
        Communication graph (anonymous: identifiers are never read).
    period:
        The period ``K``; must satisfy ``K > n``.  Defaults to ``n + 1``,
        the smallest legal value.
    """

    name = "U"
    mutually_exclusive_rules = True

    def __init__(self, network: Network, period: int | None = None):
        super().__init__(network)
        self.period = network.n + 1 if period is None else int(period)
        if self.period <= network.n:
            raise AlgorithmError(
                f"unison requires K > n (got K={self.period}, n={network.n})"
            )

    # ------------------------------------------------------------------
    # Predicates (Algorithm 2)
    # ------------------------------------------------------------------
    def p_ok(self, cfg: Configuration, u: int, v: int) -> bool:
        """``P_Ok(u, v) ≡ c_v ∈ {(c_u − 1) % K, c_u, (c_u + 1) % K}``."""
        cu = cfg[u][CLOCK]
        cv = cfg[v][CLOCK]
        k = self.period
        return cv in ((cu - 1) % k, cu, (cu + 1) % k)

    def p_icorrect(self, cfg: Configuration, u: int) -> bool:
        """``P_ICorrect(u) ≡ ∀v ∈ N(u), P_Ok(u, v)``."""
        return all(self.p_ok(cfg, u, v) for v in self.network.neighbors(u))

    def p_reset(self, cfg: Configuration, u: int) -> bool:
        """``P_reset(u) ≡ c_u = 0``."""
        return cfg[u][CLOCK] == 0

    def p_up(self, cfg: Configuration, u: int) -> bool:
        """``P_Up(u) ≡ ∀v ∈ N(u), c_v ∈ {c_u, (c_u + 1) % K}``.

        ``u`` may tick when every neighbor is on time or one ahead.
        """
        cu = cfg[u][CLOCK]
        k = self.period
        ahead = (cu + 1) % k
        return all(cfg[v][CLOCK] in (cu, ahead) for v in self.network.neighbors(u))

    # ------------------------------------------------------------------
    # Algorithm interface
    # ------------------------------------------------------------------
    def variables(self) -> tuple[str, ...]:
        return (CLOCK,)

    def rule_names(self) -> tuple[str, ...]:
        return ("rule_U",)

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        self.check_rule(rule)
        return self.p_clean(cfg, u) and self.p_up(cfg, u)

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        self.check_rule(rule)
        return {CLOCK: (cfg[u][CLOCK] + 1) % self.period}

    def reset_updates(self, cfg: Configuration, u: int) -> dict[str, Any]:
        return {CLOCK: 0}

    def input_rule_set(self):
        from ..ir import rule_set_of
        from .kernelized import unison_rule_set

        return rule_set_of(unison_rule_set, self.period)

    def initial_state(self, u: int) -> dict[str, Any]:
        return {CLOCK: 0}

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        return {CLOCK: rng.randrange(self.period)}
