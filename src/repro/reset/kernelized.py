"""IR definition of Algorithm SDR (composed with its input algorithm).

The former handwritten numpy program is replaced by
:func:`sdr_rule_set`, which *composes at the IR level*: the input
algorithm's :class:`~repro.ir.rules.InputRuleSet` contributes its
``P_ICorrect``/``P_reset`` expressions and its rules (gated by SDR's
``P_Clean`` where the input declared ``clean_gated``), and SDR's four
rules of Algorithm 1 are stated over the joint schema.  One generated
kernel then evaluates the whole ``I ∘ SDR`` system — the guards of host
and input share subexpressions through the compiler's CSE instead of a
host/input call boundary.

The normal-configuration fast path (Theorem 1's attractor) survives as a
declarative :class:`~repro.ir.rules.FastPath`: when every status is C,
``P_Clean ≡ true`` and the only live guards are ``¬P_ICorrect``
(rule R) and the input's own rules, ungated.
"""

from __future__ import annotations

import numpy as np

from ..core.kernel.schema import Schema, Var
from ..ir import (
    Assign,
    FastPath,
    Rule,
    RuleSet,
    all_neighbors,
    any_neighbors,
    col,
    min_over_neighbors,
    neigh,
    own,
)
from .sdr import DIST, SDR_RULES, ST, STATUSES

__all__ = ["sdr_rule_set"]

#: Integer codes of the ``st`` enum (indices into STATUSES = (C, RB, RF)).
_C, _RB, _RF = 0, 1, 2

#: Neutral element for the masked min in ``compute(u)``.
_NO_DIST = np.iinfo(np.int64).max // 2


def sdr_rule_set(input_rule_set) -> RuleSet:
    """``I ∘ SDR`` as one composed rule set over the joint schema."""
    st, d = col(ST), col(DIST)
    st_is_c = st == _C
    est = neigh(st)
    est_c, est_rb, est_rf = est == _C, est == _RB, est == _RF
    edge_d, own_d = neigh(d), own(d)

    # P_Clean(u): every member of N[u] (u included) has status C.
    clean = st_is_c & all_neighbors(est_c)
    icorrect = input_rule_set.icorrect
    reset = input_rule_set.reset
    edge_reset = neigh(reset)

    # P_Correct(u) ≡ st_u = C ⇒ P_ICorrect(u).
    correct = ~st_is_c | icorrect
    p_r1 = st_is_c & ~reset & any_neighbors(est_rf)
    p_rb = st_is_c & any_neighbors(est_rb)
    p_rf = (
        (st == _RB)
        & reset
        & all_neighbors((est_rb & (edge_d <= own_d)) | (est_rf & edge_reset))
    )
    # P_C quantifies over N[u]; the own-process conjunct reduces to
    # P_reset(u) once st_u = RF holds (d_u ≥ d_u is vacuous).
    p_c = (
        (st == _RF)
        & reset
        & all_neighbors(edge_reset & ((est_rf & (edge_d >= own_d)) | est_c))
    )
    p_r2 = ~st_is_c & ~reset
    p_up = ~p_rb & (p_r1 | p_r2 | ~correct)

    # compute(u); reset(u): join the broadcast at min distance + 1.
    dmin = min_over_neighbors(edge_d, where=est_rb, default=_NO_DIST)
    reset_action = tuple(input_rule_set.reset_action)
    rules = [
        Rule("rule_RB", p_rb,
             [Assign(ST, _RB), Assign(DIST, dmin + 1), *reset_action]),
        Rule("rule_RF", p_rf, [Assign(ST, _RF)]),
        Rule("rule_C", p_c, [Assign(ST, _C)]),
        # beRoot(u); reset(u)
        Rule("rule_R", p_up,
             [Assign(ST, _RB), Assign(DIST, 0), *reset_action]),
    ]
    rules += input_rule_set.gated_rules(clean)

    # Normal-configuration fast path (Theorem 1's attractor, where every
    # stabilized execution lives): with all statuses C, P_Clean ≡ true,
    # P_RB = P_RF = P_C = P_R1 = P_R2 ≡ false, and P_Up collapses to
    # ¬P_Correct = ¬P_ICorrect.  The three everywhere-false reset rules
    # are omitted (missing guard-mask keys read as all-false).
    fast_guards = {"rule_R": ~icorrect}
    fast_guards.update(
        {rule.label: rule.guard for rule in input_rule_set.rules}
    )

    return RuleSet(
        f"sdr({input_rule_set.name})",
        Schema(Var.enum(ST, STATUSES), Var.int(DIST),
               *input_rule_set.schema.vars),
        rules,
        # Per-process conjunct of ``SDR.is_normal``: st = C ∧ P_ICorrect.
        # Its all-processes conjunction is exactly the normal configuration
        # predicate, so the fused loop detects stabilization undecoded.
        # ``status_c`` (st = C) is what reset-wave accounting watches.
        predicates={"normal": st_is_c & icorrect, "status_c": st_is_c},
        fast_path=FastPath(st == _C, fast_guards),
        tile_check=input_rule_set.tile_check,
    )


assert tuple(SDR_RULES) == ("rule_RB", "rule_RF", "rule_C", "rule_R")
assert STATUSES.index("C") == _C and STATUSES.index("RB") == _RB
