"""IR definitions of the unison algorithms.

The handwritten numpy twins that used to live here are gone: each
algorithm now states its rules once, as :mod:`repro.ir` expressions, and
the kernel programs are *generated* (:mod:`repro.ir.kernelc`).  All of
Algorithm 2's predicates are congruence windows on the per-edge clock
difference ``(c_v − c_u) mod K``:

* ``P_Ok``   ⇔ difference ∈ {0, 1, K−1};
* ``P_Up``   ⇔ difference ∈ {0, 1} for every neighbor;
* ``P_reset``⇔ ``c_u = 0``.

:func:`boulinier_rule_set` is the reset-tail baseline
(:class:`~repro.unison.boulinier.BoulinierUnison`): the extended clock
``r ∈ {−α..−1} ∪ {0..K−1}`` stays one int64 column, and the guards are
per-edge window tests plus the local-comparability predicate — circular
within one increment when both endpoints are normal, linear otherwise.

Equivalence with the dict implementations is cross-checked by the
simulator's paranoid lockstep mode, the backend-equivalence property
suite, and ``python -m repro.ir check``.
"""

from __future__ import annotations

from ..core.kernel.schema import Schema, Var
from ..ir import (
    Assign,
    InputRuleSet,
    Rule,
    RuleSet,
    absval,
    all_neighbors,
    any_neighbors,
    col,
    neigh,
    own,
    where,
)
from .boulinier import RCLOCK
from .unison import CLOCK

__all__ = ["unison_rule_set", "boulinier_rule_set"]


def unison_rule_set(period: int) -> InputRuleSet:
    """Algorithm U with period ``K = period`` as an
    :class:`~repro.ir.rules.InputRuleSet`."""
    clock = col(CLOCK)
    # (c_v − c_u) mod K per edge slot (owner u, neighbor v); diff ∈ [0, K),
    # so the window {0, 1} collapses to one comparison.
    diff = (neigh(clock) - own(clock)) % period
    near = diff <= 1
    return InputRuleSet(
        "unison",
        Schema(Var.int(CLOCK)),
        [
            Rule(
                "rule_U",
                all_neighbors(near),
                [Assign(CLOCK, (clock + 1) % period)],
                clean_gated=True,
            )
        ],
        icorrect=all_neighbors(near | (diff == period - 1)),
        reset=clock == 0,
        reset_action=[Assign(CLOCK, 0)],
    )


def boulinier_rule_set(period: int, alpha: int) -> RuleSet:
    """The reset-tail unison baseline with period ``K = period`` and tail
    depth ``alpha`` as a :class:`~repro.ir.rules.RuleSet`."""
    r = col(RCLOCK)
    ru, rv = own(r), neigh(r)

    # Local comparability per edge: circular within one increment when
    # both endpoints are normal, linear otherwise.
    diff = ru - rv
    circular = ((diff % period) <= 1) | (((-diff) % period) <= 1)
    comparable = where((ru >= 0) & (rv >= 0), circular, absval(diff) <= 1)

    normal = r >= 0
    # RA: a normal process seeing an incomparable neighbor (priority).
    ra = normal & any_neighbors(~comparable)
    # NA: all neighbors on time or one ahead — and RA takes priority.
    ahead = (ru + 1) % period
    na = normal & all_neighbors((rv == ru) | (rv == ahead)) & ~ra
    # TA: deep-tail process with no neighbor strictly below it.
    ta = (r <= -2) & all_neighbors(rv >= ru)
    # TO: at −1 with the whole neighborhood in {−1, 0, 1}.
    to = (r == -1) & all_neighbors((rv >= -1) & (rv <= 1))

    return RuleSet(
        "boulinier",
        Schema(Var.int(RCLOCK)),
        [
            Rule("rule_NA", na, [Assign(RCLOCK, (r + 1) % period)]),
            Rule("rule_TA", ta, [Assign(RCLOCK, r + 1)]),
            Rule("rule_TO", to, [Assign(RCLOCK, 0)]),
            Rule("rule_RA", ra, [Assign(RCLOCK, -alpha)]),
        ],
        predicates={"legitimate": normal & all_neighbors(comparable)},
    )
