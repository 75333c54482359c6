"""Algorithm SDR — Self-stabilizing Distributed cooperative Reset (Alg. 1).

SDR composes with an input algorithm ``I`` (see
:class:`~repro.reset.interface.InputAlgorithm`) into ``I ∘ SDR``; this class
*is* that composition: its rule set is the four SDR rules plus the rules of
``I``, and its per-process state joins SDR's two variables with ``I``'s.

Variables (per process ``u``):

* ``st ∈ {C, RB, RF}`` — reset status: Correct / Reset-Broadcast /
  Reset-Feedback;
* ``d ∈ ℕ`` — distance within a reset, arranging resetting processes in a
  DAG (prevents livelock and deadlock).

Rules (labels match the paper):

* ``rule_RB`` — join a neighbor's broadcast phase: ``compute(u); reset(u)``;
* ``rule_RF`` — switch to the feedback phase;
* ``rule_C``  — complete the reset locally (back to status ``C``);
* ``rule_R``  — initiate a reset: ``beRoot(u); reset(u)``.

Predicates are implemented verbatim from Algorithm 1, with one typo fixed
and documented: the paper prints ``P_Clean(u) ≡ ∀v ∈ N[u], st_u = C``; the
quantified variable is clearly ``st_v``.
"""

from __future__ import annotations

from random import Random
from typing import Any

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration
from ..core.exceptions import AlgorithmError
from ..core.graph import Network
from .interface import InputAlgorithm

__all__ = ["SDR", "C", "RB", "RF", "STATUSES"]

#: Reset statuses.
C = "C"
RB = "RB"
RF = "RF"
STATUSES = (C, RB, RF)

#: SDR's variable names.
ST = "st"
DIST = "d"

#: SDR's rule labels, in the paper's order of presentation.
SDR_RULES = ("rule_RB", "rule_RF", "rule_C", "rule_R")


class SDR(Algorithm):
    """The composition ``I ∘ SDR`` for a given input algorithm ``I``.

    Parameters
    ----------
    input_algorithm:
        The algorithm to make self-stabilizing.  It is attached to this SDR
        instance (its ``P_Clean`` queries are answered here) and must run on
        the same network.

    Notes
    -----
    Rules are pairwise mutually exclusive: among SDR's own rules this is
    Lemma 5; between SDR and a requirement-conforming ``I`` it is Remark 2;
    the paper's two input algorithms also have pairwise exclusive rules.
    The simulator's strict mode checks the flag at runtime, so a violation
    of Requirement 2c by a custom input algorithm surfaces as a
    :class:`~repro.core.exceptions.ModelViolation` instead of silent
    nondeterminism — opt out with ``mutually_exclusive_rules = False`` on
    the input algorithm if yours is legitimately nondeterministic.
    """

    name = "SDR"
    mutually_exclusive_rules = True

    def __init__(self, input_algorithm: InputAlgorithm):
        super().__init__(input_algorithm.network)
        self.input = input_algorithm
        self.input.attach(self)
        self.name = f"{input_algorithm.name} o SDR"

        overlap = {ST, DIST} & set(input_algorithm.variables())
        if overlap:
            raise AlgorithmError(
                f"input algorithm must not declare SDR's variables {sorted(overlap)}"
            )
        collision = set(SDR_RULES) & set(input_algorithm.rule_names())
        if collision:
            raise AlgorithmError(
                f"input algorithm must not reuse SDR rule labels {sorted(collision)}"
            )
        self._variables = (ST, DIST, *input_algorithm.variables())
        self._rules = (*SDR_RULES, *input_algorithm.rule_names())
        if not input_algorithm.mutually_exclusive_rules:
            self.mutually_exclusive_rules = False

    # ==================================================================
    # Predicates of Algorithm 1
    # ==================================================================
    def p_icorrect(self, cfg: Configuration, u: int) -> bool:
        """``P_ICorrect(u)`` — delegated to the input algorithm."""
        return self.input.p_icorrect(cfg, u)

    def p_reset(self, cfg: Configuration, u: int) -> bool:
        """``P_reset(u)`` — delegated to the input algorithm."""
        return self.input.p_reset(cfg, u)

    def p_correct(self, cfg: Configuration, u: int) -> bool:
        """``P_Correct(u) ≡ st_u = C ⇒ P_ICorrect(u)``."""
        return cfg[u][ST] != C or self.input.p_icorrect(cfg, u)

    def p_clean(self, cfg: Configuration, u: int) -> bool:
        """``P_Clean(u) ≡ ∀v ∈ N[u], st_v = C`` (paper typo ``st_u`` fixed)."""
        return all(cfg[v][ST] == C for v in self.network.closed_neighbors(u))

    def p_r1(self, cfg: Configuration, u: int) -> bool:
        """``P_R1(u) ≡ st_u = C ∧ ¬P_reset(u) ∧ (∃v ∈ N(u) | st_v = RF)``."""
        return (
            cfg[u][ST] == C
            and not self.input.p_reset(cfg, u)
            and any(cfg[v][ST] == RF for v in self.network.neighbors(u))
        )

    def p_rb(self, cfg: Configuration, u: int) -> bool:
        """``P_RB(u) ≡ st_u = C ∧ (∃v ∈ N(u) | st_v = RB)``."""
        return cfg[u][ST] == C and any(
            cfg[v][ST] == RB for v in self.network.neighbors(u)
        )

    def p_rf(self, cfg: Configuration, u: int) -> bool:
        """``P_RF(u)``: ready to switch from broadcast to feedback.

        ``st_u = RB ∧ P_reset(u) ∧ ∀v ∈ N(u):
        (st_v = RB ∧ d_v ≤ d_u) ∨ (st_v = RF ∧ P_reset(v))``.
        """
        if cfg[u][ST] != RB or not self.input.p_reset(cfg, u):
            return False
        du = cfg[u][DIST]
        for v in self.network.neighbors(u):
            stv = cfg[v][ST]
            if stv == RB and cfg[v][DIST] <= du:
                continue
            if stv == RF and self.input.p_reset(cfg, v):
                continue
            return False
        return True

    def p_c(self, cfg: Configuration, u: int) -> bool:
        """``P_C(u)``: the feedback reached ``u``'s whole sub-DAG.

        ``st_u = RF ∧ ∀v ∈ N[u]: P_reset(v) ∧
        ((st_v = RF ∧ d_v ≥ d_u) ∨ st_v = C)``.
        """
        if cfg[u][ST] != RF:
            return False
        du = cfg[u][DIST]
        for v in self.network.closed_neighbors(u):
            if not self.input.p_reset(cfg, v):
                return False
            stv = cfg[v][ST]
            if stv == C:
                continue
            if stv == RF and cfg[v][DIST] >= du:
                continue
            return False
        return True

    def p_r2(self, cfg: Configuration, u: int) -> bool:
        """``P_R2(u) ≡ st_u ≠ C ∧ ¬P_reset(u)``."""
        return cfg[u][ST] != C and not self.input.p_reset(cfg, u)

    def p_up(self, cfg: Configuration, u: int) -> bool:
        """``P_Up(u) ≡ ¬P_RB(u) ∧ (P_R1(u) ∨ P_R2(u) ∨ ¬P_Correct(u))``."""
        if self.p_rb(cfg, u):
            return False
        return self.p_r1(cfg, u) or self.p_r2(cfg, u) or not self.p_correct(cfg, u)

    # ------------------------------------------------------------------
    # Derived predicates used by the analysis (Definitions 1 and 6)
    # ------------------------------------------------------------------
    def p_root(self, cfg: Configuration, u: int) -> bool:
        """``P_root(u) ≡ st_u = RB ∧ ∀v ∈ N(u): st_v = RB ⇒ d_v ≥ d_u``."""
        if cfg[u][ST] != RB:
            return False
        du = cfg[u][DIST]
        return all(
            cfg[v][ST] != RB or cfg[v][DIST] >= du
            for v in self.network.neighbors(u)
        )

    def is_alive_root(self, cfg: Configuration, u: int) -> bool:
        """Alive root: ``P_Up(u) ∨ P_root(u)`` (Definition 1)."""
        return self.p_up(cfg, u) or self.p_root(cfg, u)

    def is_dead_root(self, cfg: Configuration, u: int) -> bool:
        """Dead root: ``st_u = RF ∧ ∀v ∈ N(u): st_v ≠ C ⇒ d_v ≥ d_u``."""
        if cfg[u][ST] != RF:
            return False
        du = cfg[u][DIST]
        return all(
            cfg[v][ST] == C or cfg[v][DIST] >= du
            for v in self.network.neighbors(u)
        )

    def is_normal(self, cfg: Configuration, live=None) -> bool:
        """Normal configuration: ``∀u, P_Clean(u) ∧ P_ICorrect(u)``.

        By Theorem 1 / Corollary 5 this is exactly the set of terminal
        configurations of the SDR layer, i.e. the attractor ``P4``.
        ``live`` (an iterable of process ids) restricts the quantifier to
        the live subsystem under topology churn — a crashed process's
        frozen registers are not part of the configuration being judged.
        """
        procs = self.network.processes() if live is None else live
        return all(
            cfg[u][ST] == C and self.input.p_icorrect(cfg, u)
            for u in procs
        )

    # ==================================================================
    # Algorithm interface
    # ==================================================================
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def rule_names(self) -> tuple[str, ...]:
        return self._rules

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        if rule == "rule_RB":
            return self.p_rb(cfg, u)
        if rule == "rule_RF":
            return self.p_rf(cfg, u)
        if rule == "rule_C":
            return self.p_c(cfg, u)
        if rule == "rule_R":
            return self.p_up(cfg, u)
        return self.input.guard(rule, cfg, u)

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        if rule == "rule_RB":
            # compute(u); reset(u)
            updates = self._compute(cfg, u)
            updates.update(self.input.reset_updates(cfg, u))
            return updates
        if rule == "rule_RF":
            return {ST: RF}
        if rule == "rule_C":
            return {ST: C}
        if rule == "rule_R":
            # beRoot(u); reset(u)
            updates = {ST: RB, DIST: 0}
            updates.update(self.input.reset_updates(cfg, u))
            return updates
        return self.input.execute(rule, cfg, u)

    def _compute(self, cfg: Configuration, u: int) -> dict[str, Any]:
        """``compute(u)``: join the broadcast at minimal distance + 1."""
        dmin = min(
            cfg[v][DIST]
            for v in self.network.neighbors(u)
            if cfg[v][ST] == RB
        )
        return {ST: RB, DIST: dmin + 1}

    # ------------------------------------------------------------------
    # Configurations
    # ------------------------------------------------------------------
    def initial_state(self, u: int) -> dict[str, Any]:
        """Clean SDR layer (status ``C``) over the input's ``γ_init``."""
        state = {ST: C, DIST: 0}
        state.update(self.input.initial_state(u))
        return state

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        """Arbitrary state: any status, any distance in ``[0, 2n]``.

        ``d_u ∈ ℕ`` is unbounded in the paper; guards only *compare*
        distances, so corruption beyond ``2n`` is behaviorally equivalent
        to a relabeling of ``[0, 2n]`` values.
        """
        state = {
            ST: STATUSES[rng.randrange(3)],
            DIST: rng.randrange(2 * self.network.n + 1),
        }
        state.update(self.input.random_state(u, rng))
        return state

    def rule_set(self):
        """``I ∘ SDR`` composed at the IR level, when the input is ported."""
        from ..ir import rule_set_of
        from .kernelized import sdr_rule_set

        input_rule_set = self.input.input_rule_set()
        if input_rule_set is None:
            return None
        return rule_set_of(sdr_rule_set, input_rule_set)

    def param_values(self):
        """SDR reads no param of its own: its input's values."""
        return self.input.param_values()
