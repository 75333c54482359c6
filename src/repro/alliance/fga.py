"""Algorithm FGA — 1-minimal (f,g)-alliance (paper, Algorithm 3, Section 6).

Given non-negative node functions ``f`` and ``g`` with
``δ_u ≥ max(f(u), g(u))``, FGA computes, in an *identified* network, a set
``A = {u | col_u}`` that is a 1-minimal (f,g)-alliance: every ``u ∉ A`` has
at least ``f(u)`` neighbors in ``A``, every ``u ∈ A`` has at least ``g(u)``
neighbors in ``A``, and removing any single member breaks the property.

Starting from ``γ_init`` (everybody in the alliance), processes *leave* the
alliance one by one; the pointer machinery (``ptr``) makes removals locally
central — at most one process of any closed neighborhood leaves per step —
and the score machinery (``scr``) guarantees that ``realScr(u) ≥ 0`` stays
closed, i.e. the set remains an alliance throughout.

FGA is not self-stabilizing on its own (Theorem 9: it is a correct
terminating algorithm from ``γ_init``); ``FGA ∘ SDR`` is silent and
self-stabilizing (Theorem 13) in ``O(Δ·n·m)`` moves and ``≤ 8n+4`` rounds.

Typo fixes applied from the paper (documented in DESIGN.md): in
``bestPtr(u)`` the filter and argmin run over ``v ∈ N[u]`` with ``canQ_v``
and identifier ``id_v`` (the paper prints ``canQ_u`` / ``id_u``).
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Sequence

from ..core.configuration import Configuration
from ..core.exceptions import AlgorithmError
from ..core.graph import Network
from ..reset.interface import InputAlgorithm

__all__ = ["FGA", "COL", "SCR", "CANQ", "PTR", "resolve_node_function"]

#: Variable names.
COL = "col"
SCR = "scr"
CANQ = "canQ"
PTR = "ptr"

#: The ⊥ pointer value.
BOTTOM = None

NodeFunction = Callable[[int], int] | Sequence[int] | int


def resolve_node_function(spec: NodeFunction, network: Network) -> tuple[int, ...]:
    """Normalize an ``f``/``g`` specification to a per-process tuple.

    Accepts a constant, a sequence indexed by process, or a callable on the
    process index.
    """
    if isinstance(spec, int):
        return tuple(spec for _ in network.processes())
    if callable(spec):
        return tuple(int(spec(u)) for u in network.processes())
    values = tuple(int(x) for x in spec)
    if len(values) != network.n:
        raise AlgorithmError(
            f"node function has {len(values)} entries for {network.n} processes"
        )
    return values


class FGA(InputAlgorithm):
    """The paper's Algorithm FGA.

    Parameters
    ----------
    network:
        Identified network (``network.ids`` must be unique — enforced by
        :class:`~repro.core.graph.Network`).
    f, g:
        Non-negative node functions (constant, sequence, or callable);
        every process must satisfy ``δ_u ≥ max(f(u), g(u))`` — a condition
        that guarantees a solution exists.
    """

    name = "FGA"
    mutually_exclusive_rules = True

    def __init__(self, network: Network, f: NodeFunction, g: NodeFunction):
        super().__init__(network)
        self.f = resolve_node_function(f, network)
        self.g = resolve_node_function(g, network)
        for u in network.processes():
            if self.f[u] < 0 or self.g[u] < 0:
                raise AlgorithmError(f"f and g must be non-negative (process {u})")
            if network.degree(u) < max(self.f[u], self.g[u]):
                raise AlgorithmError(
                    f"process {u} has degree {network.degree(u)} < "
                    f"max(f, g) = {max(self.f[u], self.g[u])}; no solution guaranteed"
                )

    # ==================================================================
    # Macros (Algorithm 3)
    # ==================================================================
    def in_alliance_count(self, cfg: Configuration, u: int) -> int:
        """``#InAll(u)``: number of neighbors currently in the alliance."""
        return sum(1 for w in self.network.neighbors(u) if cfg[w][COL])

    def real_scr(self, cfg: Configuration, u: int, col: bool | None = None) -> int:
        """``realScr(u)``: compares ``#InAll(u)`` against ``f`` or ``g``.

        ``col`` overrides ``u``'s own membership (used by actions that
        first flip ``col_u`` and then recompute, like ``rule_Clr``).
        """
        threshold = self.g[u] if (cfg[u][COL] if col is None else col) else self.f[u]
        count = self.in_alliance_count(cfg, u)
        if count < threshold:
            return -1
        if count == threshold:
            return 0
        return 1

    def p_can_quit(self, cfg: Configuration, u: int, col: bool | None = None) -> bool:
        """``P_canQuit(u) ≡ col_u ∧ #InAll(u) ≥ f(u) ∧ ∀v ∈ N(u): scr_v = 1``."""
        own_col = cfg[u][COL] if col is None else col
        return (
            own_col
            and self.in_alliance_count(cfg, u) >= self.f[u]
            and all(cfg[v][SCR] == 1 for v in self.network.neighbors(u))
        )

    def p_to_quit(self, cfg: Configuration, u: int) -> bool:
        """``P_toQuit(u) ≡ P_canQuit(u) ∧ ∀v ∈ N[u]: ptr_v = u``."""
        return self.p_can_quit(cfg, u) and all(
            cfg[v][PTR] == u for v in self.network.closed_neighbors(u)
        )

    def best_ptr(
        self,
        cfg: Configuration,
        u: int,
        scr: int | None = None,
        canq: bool | None = None,
    ) -> int | None:
        """``bestPtr(u)``: the closed neighbor of smallest identifier that
        can quit, or ⊥ when ``scr_u ≤ 0`` or nobody can quit.

        ``scr``/``canq`` override ``u``'s own values (sequential macro
        semantics: ``upd(u)`` runs ``cmpVar(u)`` first, so ``bestPtr`` sees
        the freshly computed values).
        """
        own_scr = cfg[u][SCR] if scr is None else scr
        if own_scr <= 0:
            return BOTTOM
        candidates = []
        for v in self.network.closed_neighbors(u):
            can = (cfg[v][CANQ] if canq is None or v != u else canq)
            if can:
                candidates.append(v)
        if not candidates:
            return BOTTOM
        return min(candidates, key=self.network.id_of)

    def p_upd_ptr(self, cfg: Configuration, u: int) -> bool:
        """``P_updPtr(u) ≡ ¬P_toQuit(u) ∧ ptr_u ≠ bestPtr(u)``."""
        return not self.p_to_quit(cfg, u) and cfg[u][PTR] != self.best_ptr(cfg, u)

    # ==================================================================
    # SDR interface predicates
    # ==================================================================
    def p_icorrect(self, cfg: Configuration, u: int) -> bool:
        """``P_ICorrect(u)`` of Algorithm 3.

        ``realScr(u) ≥ 0 ∧ [(scr_u = realScr(u) = 1) ∨ ptr_u = ⊥ ∨
        (ptr_u ≠ ⊥ ∧ scr_u = 1 ∧ ¬col_{ptr_u})]``.
        """
        real = self.real_scr(cfg, u)
        if real < 0:
            return False
        ptr = cfg[u][PTR]
        if cfg[u][SCR] == real == 1:
            return True
        if ptr is BOTTOM:
            return True
        return cfg[u][SCR] == 1 and not cfg[ptr][COL]

    def p_reset(self, cfg: Configuration, u: int) -> bool:
        """``P_reset(u) ≡ col_u ∧ ptr_u = ⊥ ∧ canQ_u ∧ scr_u = 1``."""
        state = cfg[u]
        return state[COL] and state[PTR] is BOTTOM and state[CANQ] and state[SCR] == 1

    def reset_updates(self, cfg: Configuration, u: int) -> dict[str, Any]:
        """``reset(u): col := true; ptr := ⊥; canQ := true; scr := 1``."""
        return {COL: True, PTR: BOTTOM, CANQ: True, SCR: 1}

    # ==================================================================
    # Algorithm interface
    # ==================================================================
    def variables(self) -> tuple[str, ...]:
        return (COL, SCR, CANQ, PTR)

    def rule_names(self) -> tuple[str, ...]:
        return ("rule_Clr", "rule_P1", "rule_P2", "rule_Q")

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        if not (self.p_clean(cfg, u) and self.p_icorrect(cfg, u)):
            return False
        if rule == "rule_Clr":
            return self.p_to_quit(cfg, u)
        if rule == "rule_P1":
            return self.p_upd_ptr(cfg, u) and cfg[u][PTR] is not BOTTOM
        if rule == "rule_P2":
            return self.p_upd_ptr(cfg, u) and cfg[u][PTR] is BOTTOM
        if rule == "rule_Q":
            return (
                not self.p_to_quit(cfg, u)
                and not self.p_upd_ptr(cfg, u)
                and (
                    cfg[u][SCR] != self.real_scr(cfg, u)
                    or cfg[u][CANQ] != self.p_can_quit(cfg, u)
                )
            )
        self.check_rule(rule)
        return False

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        if rule == "rule_Clr":
            # col_u := false; upd(u)  — upd sees the new col value.
            new_col = False
            scr = self.real_scr(cfg, u, col=new_col)
            canq = self.p_can_quit(cfg, u, col=new_col)
            ptr = self.best_ptr(cfg, u, scr=scr, canq=canq)
            return {COL: new_col, SCR: scr, CANQ: canq, PTR: ptr}
        if rule == "rule_P1":
            # ptr_u := ⊥; cmpVar(u)
            return {
                PTR: BOTTOM,
                SCR: self.real_scr(cfg, u),
                CANQ: self.p_can_quit(cfg, u),
            }
        if rule == "rule_P2":
            # upd(u) = cmpVar(u); ptr := bestPtr(u)
            scr = self.real_scr(cfg, u)
            canq = self.p_can_quit(cfg, u)
            return {
                SCR: scr,
                CANQ: canq,
                PTR: self.best_ptr(cfg, u, scr=scr, canq=canq),
            }
        if rule == "rule_Q":
            # cmpVar(u); if realScr(u) ≤ 0 then ptr := ⊥
            real = self.real_scr(cfg, u)
            updates: dict[str, Any] = {SCR: real, CANQ: self.p_can_quit(cfg, u)}
            if real <= 0:
                updates[PTR] = BOTTOM
            return updates
        self.check_rule(rule)
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Configurations
    # ------------------------------------------------------------------
    def initial_state(self, u: int) -> dict[str, Any]:
        """``γ_init``: everybody in the alliance, scores saturated."""
        return {COL: True, SCR: 1, CANQ: True, PTR: BOTTOM}

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        pointer_domain = (*self.network.closed_neighbors(u), BOTTOM)
        return {
            COL: rng.random() < 0.5,
            SCR: rng.randrange(-1, 2),
            CANQ: rng.random() < 0.5,
            PTR: pointer_domain[rng.randrange(len(pointer_domain))],
        }

    # ------------------------------------------------------------------
    # Array backend
    # ------------------------------------------------------------------
    def input_rule_set(self):
        from ..ir import rule_set_of
        from .kernelized import fga_rule_set

        return rule_set_of(fga_rule_set)

    def param_values(self):
        return {"ids": self.network.ids, "f": self.f, "g": self.g}

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def alliance(self, cfg: Configuration) -> set[int]:
        """The computed set ``A = {u | col_u}``."""
        return {u for u in self.network.processes() if cfg[u][COL]}
