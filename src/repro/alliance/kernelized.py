"""IR definitions of the alliance algorithms.

:func:`fga_rule_set` states Algorithm FGA declaratively; the macros of
Algorithm 3 become shared expression trees:

* ``#InAll(u)`` — a neighborhood count of alliance members;
* ``realScr(u)`` — ``sign(#InAll − threshold)`` with the threshold picked
  per process from the ``f``/``g`` parameter columns by (possibly
  overridden) membership;
* ``bestPtr(u)`` — an argmin-by-identifier over the closed neighborhood
  via the composite key ``id·n + v`` (unique ids ⇒ the min key decodes to
  the unique argmin process via ``mod n``);
* the ``∀v ∈ N[u]: ptr_v = u`` test of ``P_toQuit`` — a per-edge compare
  of the neighbor's pointer against the edge source.

The sequential-macro semantics of the actions (``upd(u)`` seeing values
``cmpVar(u)`` just computed, ``rule_Clr`` seeing ``col_u`` already
flipped) are reproduced by instantiating the macros with the overridden
membership/score expressions — all still over the frozen read columns,
exactly like the dict implementation's keyword overrides.

:func:`turau_rule_set` is the Turau-style MIS baseline: one enum column,
identifier tie-breaks as per-edge id comparisons.
"""

from __future__ import annotations

import numpy as np

from ..core.kernel.schema import Schema, Var
from ..ir import (
    Assign,
    InputRuleSet,
    Rule,
    RuleSet,
    all_neighbors,
    any_neighbors,
    col,
    count_neighbors,
    gather,
    min_over_neighbors,
    minimum,
    neigh,
    nprocs,
    own,
    param,
    proc_index,
    sign,
    where,
)
from .fga import CANQ, COL, PTR, SCR
from .turau import IN, MSTATE, OUT, WAIT

__all__ = ["fga_rule_set", "turau_rule_set"]

_NO_KEY = np.iinfo(np.int64).max


def _keys_fit(params, processes: int) -> bool:
    """Whether ``id·N + v`` keys fit int64 below :data:`_NO_KEY` for
    ``N = processes`` (one network, or ``T`` tiled copies of it)."""
    ids = params["ids"]
    return int(ids.min()) >= 0 and int(ids.max()) < _NO_KEY // (processes + 1)


def fga_rule_set() -> InputRuleSet:
    """Algorithm FGA as an :class:`~repro.ir.rules.InputRuleSet` over the
    params ``ids``, ``f`` and ``g``.

    Its ``tile_check`` refuses identifiers that would overflow the
    composite ``bestPtr`` key, so such networks stay on the dict
    backend (``kernel_program()`` is ``None``).
    """
    ids_p, f_p, g_p = param("ids"), param("f"), param("g")

    colv, scr, canq, ptr = col(COL), col(SCR), col(CANQ), col(PTR)
    # Composite argmin key: id·N + index.  Identifiers repeat across tiled
    # blocks, but neighborhoods never cross a block boundary, so the key
    # stays unambiguous; ``tile_check`` refuses layouts where it would
    # overflow int64.
    own_key = ids_p * nprocs() + proc_index()

    # ``#InAll(u)``: alliance-member neighbors.
    in_all = count_neighbors(neigh(colv))

    def real_scr(col_vec):
        """``realScr(u)`` with membership given by ``col_vec``."""
        return sign(in_all - where(col_vec, g_p, f_p))

    def can_quit(col_vec):
        """``P_canQuit(u)`` with own membership given by ``col_vec``."""
        saturated = all_neighbors(neigh(scr) == 1)
        return col_vec & (in_all >= f_p) & saturated

    def best_ptr(scr_vec, canq_own):
        """``bestPtr(u)`` with own ``scr``/``canQ`` given by the overrides.

        Neighbors always contribute their *stored* ``canQ`` (the
        overrides are sequential-macro semantics local to ``u``).
        """
        best = min_over_neighbors(
            neigh(own_key), where=neigh(canq), default=_NO_KEY
        )
        if canq_own is not None:
            best = minimum(best, where(canq_own, own_key, _NO_KEY))
        pointer = where(best == _NO_KEY, -1, best % nprocs())
        return where(scr_vec <= 0, -1, pointer)

    # ``P_ICorrect`` from the single-source ``realScr``.
    real = real_scr(colv)
    target_col = where(ptr >= 0, gather(ptr, colv), False)
    scr_is_one = scr == 1
    icorrect = (real >= 0) & (
        (scr_is_one & (real == 1)) | (ptr < 0) | (scr_is_one & ~target_col)
    )

    # Guards; the host ANDs its cleanliness onto every rule (clean_gated).
    ptr_unanimous = all_neighbors(neigh(ptr) == own(proc_index())) & (
        ptr == proc_index()
    )
    can_quit_now = can_quit(colv)
    to_quit = can_quit_now & ptr_unanimous
    upd_ptr = ~to_quit & (ptr != best_ptr(scr, canq))
    stale = (scr != real) | (canq != can_quit_now)

    clr_scr = sign(in_all - f_p)  # realScr with col_u := false
    rules = [
        # col_u := false; upd(u) — upd sees the new membership
        # (P_canQuit needs col_u, so canQ := false).
        Rule("rule_Clr", icorrect & to_quit,
             [Assign(COL, False), Assign(SCR, clr_scr),
              Assign(CANQ, False), Assign(PTR, best_ptr(clr_scr, None))],
             clean_gated=True),
        # ptr_u := ⊥; cmpVar(u)
        Rule("rule_P1", icorrect & upd_ptr & (ptr >= 0),
             [Assign(PTR, -1), Assign(SCR, real),
              Assign(CANQ, can_quit_now)],
             clean_gated=True),
        # upd(u) = cmpVar(u); ptr := bestPtr(u) on the fresh values.
        Rule("rule_P2", icorrect & upd_ptr & (ptr < 0),
             [Assign(SCR, real), Assign(CANQ, can_quit_now),
              Assign(PTR, best_ptr(real, can_quit_now))],
             clean_gated=True),
        # cmpVar(u); if realScr(u) ≤ 0 then ptr := ⊥
        Rule("rule_Q", icorrect & ~to_quit & ~upd_ptr & stale,
             [Assign(SCR, real), Assign(CANQ, can_quit_now),
              Assign(PTR, -1, where=real <= 0)],
             clean_gated=True),
    ]

    return InputRuleSet(
        "fga",
        Schema(Var.bool(COL), Var.int(SCR), Var.bool(CANQ),
               Var.opt_index(PTR)),
        rules,
        icorrect=icorrect,
        reset=colv & (ptr < 0) & canq & scr_is_one,
        reset_action=[Assign(COL, True), Assign(PTR, -1),
                      Assign(CANQ, True), Assign(SCR, 1)],
        tile_check=_keys_fit,
    )


#: Integer codes of the Turau membership enum (indices into (OUT, WAIT, IN)).
_OUT, _WAIT, _IN = 0, 1, 2


def turau_rule_set() -> RuleSet:
    """The Turau-style MIS baseline as a :class:`~repro.ir.rules.RuleSet`
    over the param ``ids``."""
    ids_p = param("ids")
    state = col(MSTATE)
    edge_state = neigh(state)
    smaller_id = neigh(ids_p) < own(ids_p)

    has_in = any_neighbors(edge_state == _IN)
    smaller_wait = any_neighbors((edge_state == _WAIT) & smaller_id)
    smaller_in = any_neighbors((edge_state == _IN) & smaller_id)

    is_out = state == _OUT
    is_wait = state == _WAIT
    return RuleSet(
        "turau-mis",
        Schema(Var.enum(MSTATE, (OUT, WAIT, IN))),
        [
            Rule("rule_wait", is_out & ~has_in, [Assign(MSTATE, _WAIT)]),
            Rule("rule_retreat", is_wait & has_in, [Assign(MSTATE, _OUT)]),
            Rule("rule_enter", is_wait & ~has_in & ~smaller_wait,
                 [Assign(MSTATE, _IN)]),
            Rule("rule_leave", (state == _IN) & smaller_in,
                 [Assign(MSTATE, _OUT)]),
        ],
    )
