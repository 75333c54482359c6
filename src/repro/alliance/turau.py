"""Baseline: Turau-style self-stabilizing maximal independent set / MDS.

The related-work discussion (paper, Section 6.3) cites Turau [44]: linear
self-stabilizing algorithms for independent and dominating sets under the
distributed unfair daemon with identifiers.  Since a maximal independent
set is a minimal dominating set, this classic three-state MIS algorithm is
the natural head-to-head baseline for the (1,0)-alliance instance of
``FGA ∘ SDR`` — experiment T10.

Reconstruction (no public artifact): each process holds
``s ∈ {OUT, WAIT, IN}`` and moves by the rules

* ``rule_wait``   — ``s = OUT``  and no neighbor is ``IN``  → ``s := WAIT``;
* ``rule_retreat``— ``s = WAIT`` and some neighbor is ``IN`` → ``s := OUT``;
* ``rule_enter``  — ``s = WAIT``, no neighbor ``IN``, and no ``WAIT``
  neighbor with a smaller identifier → ``s := IN``;
* ``rule_leave``  — ``s = IN`` and some ``IN`` neighbor has a smaller
  identifier → ``s := OUT``.

Terminal configurations are exactly the maximal independent sets (hence
minimal dominating sets); the identifier tie-breaking yields the linear
move behavior the benchmarks measure.
"""

from __future__ import annotations

from random import Random
from typing import Any

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration
from ..core.graph import Network

__all__ = ["TurauMIS", "OUT", "WAIT", "IN"]

OUT = "OUT"
WAIT = "WAIT"
IN = "IN"

#: Variable name of the three-valued membership state.
MSTATE = "s"


class TurauMIS(Algorithm):
    """Self-stabilizing maximal independent set (minimal dominating set)."""

    name = "turau-mis"
    mutually_exclusive_rules = True

    def __init__(self, network: Network):
        super().__init__(network)

    # ------------------------------------------------------------------
    def _has_in_neighbor(self, cfg: Configuration, u: int) -> bool:
        return any(cfg[v][MSTATE] == IN for v in self.network.neighbors(u))

    def _smaller_wait_neighbor(self, cfg: Configuration, u: int) -> bool:
        my_id = self.network.id_of(u)
        return any(
            cfg[v][MSTATE] == WAIT and self.network.id_of(v) < my_id
            for v in self.network.neighbors(u)
        )

    def _smaller_in_neighbor(self, cfg: Configuration, u: int) -> bool:
        my_id = self.network.id_of(u)
        return any(
            cfg[v][MSTATE] == IN and self.network.id_of(v) < my_id
            for v in self.network.neighbors(u)
        )

    # ------------------------------------------------------------------
    def variables(self) -> tuple[str, ...]:
        return (MSTATE,)

    def rule_names(self) -> tuple[str, ...]:
        return ("rule_wait", "rule_retreat", "rule_enter", "rule_leave")

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        state = cfg[u][MSTATE]
        if rule == "rule_wait":
            return state == OUT and not self._has_in_neighbor(cfg, u)
        if rule == "rule_retreat":
            return state == WAIT and self._has_in_neighbor(cfg, u)
        if rule == "rule_enter":
            return (
                state == WAIT
                and not self._has_in_neighbor(cfg, u)
                and not self._smaller_wait_neighbor(cfg, u)
            )
        if rule == "rule_leave":
            return state == IN and self._smaller_in_neighbor(cfg, u)
        self.check_rule(rule)
        return False

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        if rule == "rule_wait":
            return {MSTATE: WAIT}
        if rule == "rule_retreat":
            return {MSTATE: OUT}
        if rule == "rule_enter":
            return {MSTATE: IN}
        if rule == "rule_leave":
            return {MSTATE: OUT}
        self.check_rule(rule)
        raise AssertionError("unreachable")

    def initial_state(self, u: int) -> dict[str, Any]:
        return {MSTATE: OUT}

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        return {MSTATE: (OUT, WAIT, IN)[rng.randrange(3)]}

    def rule_set(self):
        """IR definition (see :mod:`repro.alliance.kernelized`)."""
        from ..ir import rule_set_of
        from .kernelized import turau_rule_set

        return rule_set_of(turau_rule_set)

    def param_values(self):
        return {"ids": self.network.ids}

    # ------------------------------------------------------------------
    def members(self, cfg: Configuration) -> set[int]:
        """The computed independent / dominating set."""
        return {u for u in self.network.processes() if cfg[u][MSTATE] == IN}
