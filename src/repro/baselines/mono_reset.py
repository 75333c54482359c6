"""Baseline: mono-initiator reset in the style of Arora & Gouda [4].

The related work compares SDR's fully distributed, cooperative resets with
the classical *centralized* alternative: inconsistency reports travel up a
spanning tree to a distinguished root, which then runs a global
reset-and-acknowledge wave over the whole network (stabilization
``O(n + Δ·D)`` rounds in [4]).  This module reconstructs that architecture
on top of the :class:`~repro.baselines.bfs_tree.BfsTree` substrate:

* ``mode = IDLE`` — no reset activity; the input algorithm may run when the
  whole closed neighborhood is idle (the baseline's ``P_Clean``);
* ``mode = REQ`` — a locally detected inconsistency (or a child's request)
  travelling up the tree;
* ``mode = RESET`` — the root's reset wave travelling down, re-initializing
  the input algorithm (``reset(u)``) at every process;
* ``mode = ACK`` — completion feedback travelling back up; when it reaches
  the root, idleness propagates back down.

Scope (documented in DESIGN.md): unlike SDR, this reconstruction is *not*
proven self-stabilizing from arbitrary wave/tree states — the experiments
run it in the transient-fault scenario (clean tree and wave, corrupted
input state), which is generous to the baseline.  Even so, every fault
triggers a **whole-network** reset serialized through the root, while SDR's
resets stay local and cooperative — experiment F6 measures exactly that
gap.
"""

from __future__ import annotations

from random import Random
from typing import Any

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration
from ..core.exceptions import AlgorithmError
from ..reset.interface import InputAlgorithm
from .bfs_tree import PARENT_VAR, BfsTree

__all__ = ["MonoReset", "IDLE", "REQ", "RESET", "ACK", "MODE"]

IDLE = "IDLE"
REQ = "REQ"
RESET = "RESET"
ACK = "ACK"
MODES = (IDLE, REQ, RESET, ACK)

#: Variable name of the wave mode.
MODE = "mode"

WAVE_RULES = ("rule_req", "rule_reset_root", "rule_reset_down", "rule_ack", "rule_idle")


class MonoReset(Algorithm):
    """The composition ``I ∘ MonoReset`` (tree + wave + input algorithm).

    Acts as the input algorithm's host: its ``p_clean`` is "every member of
    ``N[u]`` is wave-idle", mirroring SDR's gating so the two reset
    architectures host the same input algorithms unchanged.
    """

    name = "mono-reset"
    mutually_exclusive_rules = False  # tree repair may overlap wave moves

    def __init__(self, input_algorithm: InputAlgorithm, root: int = 0):
        super().__init__(input_algorithm.network)
        self.input = input_algorithm
        self.input.attach(self)
        self.tree = BfsTree(input_algorithm.network, root=root)
        self.root = root
        self.name = f"{input_algorithm.name} o mono-reset"

        reserved = {MODE, *self.tree.variables()}
        overlap = reserved & set(input_algorithm.variables())
        if overlap:
            raise AlgorithmError(f"input algorithm reuses reserved variables {overlap}")
        self._variables = (MODE, *self.tree.variables(), *input_algorithm.variables())
        self._rules = (*WAVE_RULES, *self.tree.rule_names(), *input_algorithm.rule_names())

    # ------------------------------------------------------------------
    # Host protocol for the input algorithm
    # ------------------------------------------------------------------
    def p_clean(self, cfg: Configuration, u: int) -> bool:
        """The baseline's ``P_Clean``: whole closed neighborhood wave-idle."""
        return all(cfg[v][MODE] == IDLE for v in self.network.closed_neighbors(u))

    # ------------------------------------------------------------------
    # Wave guards
    # ------------------------------------------------------------------
    def _child_requests(self, cfg: Configuration, u: int) -> bool:
        return any(cfg[v][MODE] == REQ for v in self.tree.children(cfg, u))

    def _needs_reset(self, cfg: Configuration, u: int) -> bool:
        return not self.input.p_icorrect(cfg, u) or self._child_requests(cfg, u)

    def _children_all_ack(self, cfg: Configuration, u: int) -> bool:
        return all(cfg[v][MODE] == ACK for v in self.tree.children(cfg, u))

    def _guard_req(self, cfg: Configuration, u: int) -> bool:
        return u != self.root and cfg[u][MODE] == IDLE and self._needs_reset(cfg, u)

    def _guard_reset_root(self, cfg: Configuration, u: int) -> bool:
        return u == self.root and cfg[u][MODE] in (IDLE, REQ) and self._needs_reset(cfg, u)

    def _guard_reset_down(self, cfg: Configuration, u: int) -> bool:
        if u == self.root or cfg[u][MODE] not in (IDLE, REQ):
            return False
        parent = cfg[u][PARENT_VAR]
        return parent is not None and cfg[parent][MODE] == RESET

    def _guard_ack(self, cfg: Configuration, u: int) -> bool:
        return (
            u != self.root
            and cfg[u][MODE] == RESET
            and self._children_all_ack(cfg, u)
        )

    def _guard_idle(self, cfg: Configuration, u: int) -> bool:
        if u == self.root:
            return cfg[u][MODE] == RESET and self._children_all_ack(cfg, u)
        if cfg[u][MODE] != ACK:
            return False
        parent = cfg[u][PARENT_VAR]
        return parent is not None and cfg[parent][MODE] == IDLE

    # ------------------------------------------------------------------
    # Algorithm interface
    # ------------------------------------------------------------------
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def rule_names(self) -> tuple[str, ...]:
        return self._rules

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        if rule == "rule_req":
            return self._guard_req(cfg, u)
        if rule == "rule_reset_root":
            return self._guard_reset_root(cfg, u)
        if rule == "rule_reset_down":
            return self._guard_reset_down(cfg, u)
        if rule == "rule_ack":
            return self._guard_ack(cfg, u)
        if rule == "rule_idle":
            return self._guard_idle(cfg, u)
        if rule in self.tree.rule_names():
            return self.tree.guard(rule, cfg, u)
        return self.input.guard(rule, cfg, u)

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        if rule == "rule_req":
            return {MODE: REQ}
        if rule in ("rule_reset_root", "rule_reset_down"):
            updates: dict[str, Any] = {MODE: RESET}
            updates.update(self.input.reset_updates(cfg, u))
            return updates
        if rule == "rule_ack":
            return {MODE: ACK}
        if rule == "rule_idle":
            return {MODE: IDLE}
        if rule in self.tree.rule_names():
            return self.tree.execute(rule, cfg, u)
        return self.input.execute(rule, cfg, u)

    # ------------------------------------------------------------------
    def initial_state(self, u: int) -> dict[str, Any]:
        state = {MODE: IDLE}
        state.update(self.tree.initial_state(u))
        state.update(self.input.initial_state(u))
        return state

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        state = {MODE: MODES[rng.randrange(4)]}
        state.update(self.tree.random_state(u, rng))
        state.update(self.input.random_state(u, rng))
        return state

    # ------------------------------------------------------------------
    def is_normal(self, cfg: Configuration) -> bool:
        """All wave-idle and input locally correct everywhere."""
        return all(
            cfg[u][MODE] == IDLE and self.input.p_icorrect(cfg, u)
            for u in self.network.processes()
        )

    # ------------------------------------------------------------------
    def rule_set(self):
        """``I ∘ MonoReset`` composed at the IR level, when ``I`` is ported."""
        from ..ir import rule_set_of
        from .kernelized import mono_rule_set

        input_rule_set = self.input.input_rule_set()
        if input_rule_set is None:
            return None
        return rule_set_of(mono_rule_set, input_rule_set, self.network.n)

    def param_values(self):
        """The tree's root flags, then the input's values."""
        return {**self.tree.param_values(), **self.input.param_values()}
