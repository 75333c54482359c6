"""IR definitions of the baselines: BFS tree, leader election, and the
mono-initiator reset.

:func:`bfs_rule_set` is the BFS spanning-tree layer and
:func:`leader_rule_set` best-offer leader election.
:func:`mono_rule_set` composes ``I ∘ MonoReset`` at the IR level: wave
mode (int8 enum over ``(IDLE, REQ, RESET, ACK)``), BFS-tree distance and
parent columns joined with the input algorithm's
:class:`~repro.ir.rules.InputRuleSet`.  The wave guards are parent/child
gathers — *children of u* is the edge test ``parent_v = u`` against the
edge source, the parent's mode a pointer :func:`~repro.ir.gather` on the
``tparent`` column — and the BFS layer's lexicographic neighbor minimum
``(dist_v, v)`` is an argmin over the composite key ``dist_v · N + v``
(the ``bestPtr`` pattern from the alliance port).

The input's rules are gated by the baseline's ``P_Clean`` ("whole closed
neighborhood wave-idle") exactly like the dict host wiring; equivalence
with the dict implementation is machine-checked by paranoid lockstep,
the backend-equivalence tests, and ``python -m repro.ir check``.
"""

from __future__ import annotations

import numpy as np

from ..core.kernel.schema import Schema, Var
from ..ir import (
    Assign,
    Rule,
    RuleSet,
    all_neighbors,
    any_neighbors,
    col,
    gather,
    max_over_neighbors,
    maximum,
    min_over_neighbors,
    minimum,
    neigh,
    neigh_index,
    nprocs,
    own,
    param,
    proc_index,
    where,
)
from .bfs_tree import DIST_VAR, PARENT_VAR
from .leader_election import LDIST, LID
from .mono_reset import MODE, MODES, WAVE_RULES

__all__ = ["bfs_rule_set", "leader_rule_set", "mono_rule_set"]

#: Integer codes of the ``mode`` enum (indices into MODES).
_IDLE, _REQ, _RESET, _ACK = 0, 1, 2, 3

#: Neutral element for the masked min over composite tree keys.
_NO_KEY = np.iinfo(np.int64).max // 2


def _tree_rule(n: int) -> Rule:
    """The BFS layer's ``rule_tree`` over the param ``is_root``, with
    distances capped at ``n``.

    The lexicographic neighbor minimum ``(dist_v, v)`` is an argmin over
    the composite key ``dist_v · N + v`` (``v < N``, so key order is
    exactly pair order); the root flag tiles per block, giving one
    distinguished root per trial.
    """
    is_root = param("is_root")
    tdist, parent = col(DIST_VAR), col(PARENT_VAR)
    best_key = min_over_neighbors(
        neigh(tdist) * nprocs() + neigh_index(), default=_NO_KEY
    )
    best_d = best_key // nprocs()
    best_v = best_key % nprocs()
    want = minimum(best_d + 1, n)

    has_parent = parent >= 0
    parent_is_neighbor = any_neighbors(neigh_index() == own(parent))
    coherent = where(
        is_root,
        (tdist == 0) & ~has_parent,
        (tdist == want)
        & has_parent
        & parent_is_neighbor
        & (gather(parent, tdist) == best_d),
    )
    return Rule("rule_tree", ~coherent,
                [Assign(DIST_VAR, where(is_root, 0, want)),
                 Assign(PARENT_VAR, where(is_root, -1, best_v))])


def bfs_rule_set(n: int) -> RuleSet:
    """The BFS spanning-tree layer on ``n`` processes: one tree rule."""
    return RuleSet("bfs-tree",
                   Schema(Var.int(DIST_VAR), Var.opt_index(PARENT_VAR)),
                   [_tree_rule(n)])


def mono_rule_set(input_rule_set, n: int) -> RuleSet:
    """``I ∘ MonoReset`` on ``n`` processes as one composed rule set over
    the joint schema."""
    is_root = param("is_root")
    mode, parent = col(MODE), col(PARENT_VAR)
    idle = mode == _IDLE
    edge_mode = neigh(mode)

    # P_Clean(u): every member of N[u] (u included) is wave-idle.
    clean = idle & all_neighbors(edge_mode == _IDLE)
    icorrect = input_rule_set.icorrect

    # children(u) = {v ∈ N(u) | parent_v = u}, as an edge test.
    child_edge = neigh(parent) == own(proc_index())
    child_requests = any_neighbors(child_edge & (edge_mode == _REQ))
    needs_reset = ~icorrect | child_requests
    children_all_ack = all_neighbors(~child_edge | (edge_mode == _ACK))

    has_parent = parent >= 0
    parent_mode = gather(parent, mode)
    idle_or_req = idle | (mode == _REQ)

    reset_action = tuple(input_rule_set.reset_action)
    rules = [
        Rule("rule_req", ~is_root & idle & needs_reset,
             [Assign(MODE, _REQ)]),
        Rule("rule_reset_root", is_root & idle_or_req & needs_reset,
             [Assign(MODE, _RESET), *reset_action]),
        Rule("rule_reset_down",
             ~is_root & idle_or_req & has_parent & (parent_mode == _RESET),
             [Assign(MODE, _RESET), *reset_action]),
        Rule("rule_ack",
             ~is_root & (mode == _RESET) & children_all_ack,
             [Assign(MODE, _ACK)]),
        Rule("rule_idle",
             where(is_root,
                   (mode == _RESET) & children_all_ack,
                   (mode == _ACK) & has_parent & (parent_mode == _IDLE)),
             [Assign(MODE, _IDLE)]),
        _tree_rule(n),
    ]
    rules += input_rule_set.gated_rules(clean)

    return RuleSet(
        f"mono-reset({input_rule_set.name})",
        Schema(Var.enum(MODE, MODES), Var.int(DIST_VAR),
               Var.opt_index(PARENT_VAR), *input_rule_set.schema.vars),
        rules,
        # Per-process conjunct of ``MonoReset.is_normal``: its
        # all-processes conjunction is exactly the baseline's normal
        # configuration predicate, so fused runs and stabilization probes
        # detect recovery without decoding.
        predicates={"normal": idle & icorrect},
        tile_check=input_rule_set.tile_check,
    )


def leader_rule_set(n: int) -> RuleSet:
    """Best-offer leader election on ``n`` processes over the param
    ``ids``: one declarative rule.

    A claim ``(lid, dist)`` is ranked by larger ``lid`` first, then
    smaller distance, so with ``cap = n − 1`` the composite key
    ``lid · n + (cap − dist)`` orders claims exactly (``0 ≤ cap −
    dist < n``); one max-reduction over neighbor claims (distance
    ``ldist_v + 1``, admitted while ``≤ cap``) joined with the own
    claim ``(id_u, 0)`` yields the best offer, decoded by ``/ n`` and
    ``mod n``.  Its ``tile_check`` refuses identifiers that would
    overflow the key (dict backend only); the key uses the per-block
    ``n``, so tiling never changes the verdict.
    """
    cap = n - 1
    lid, ldist = col(LID), col(LDIST)
    own_key = param("ids") * n + cap
    offer = neigh(lid) * n + (cap - (neigh(ldist) + 1))
    best = maximum(
        max_over_neighbors(offer, where=neigh(ldist) + 1 <= cap, default=-1),
        own_key,
    )
    best_lid = best // n
    best_dist = cap - best % n
    return RuleSet(
        "leader-election",
        Schema(Var.int(LID), Var.int(LDIST)),
        [Rule("rule_elect", (lid != best_lid) | (ldist != best_dist),
              [Assign(LID, best_lid), Assign(LDIST, best_dist)])],
        tile_check=lambda params, processes: (
            (int(params["ids"].max()) + n) * n + cap < 2**63
        ),
    )


assert tuple(WAVE_RULES) == (
    "rule_req", "rule_reset_root", "rule_reset_down", "rule_ack", "rule_idle"
)
assert tuple(MODES).index("IDLE") == _IDLE and tuple(MODES).index("ACK") == _ACK
