"""IR definition of the mono-initiator reset baseline.

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
from .mono_reset import MODE, MODES, WAVE_RULES

__all__ = ["mono_rule_set"]

#: Integer codes of the ``mode`` enum (indices into MODES).
_IDLE, _REQ, _RESET, _ACK = 0, 1, 2, 3

#: Neutral element for the masked min over composite tree keys.
_NO_KEY = np.iinfo(np.int64).max // 2


def mono_rule_set(algorithm, input_rule_set) -> RuleSet:
    """``I ∘ MonoReset`` as one composed rule set over the joint schema."""
    network = algorithm.network
    n_base = network.n
    # Root flag per process slot; tiling repeats it per block, giving one
    # distinguished root per trial.
    is_root = param(
        tuple(u == algorithm.root for u in range(n_base)), "is_root"
    )

    mode, tdist, parent = col(MODE), col(DIST_VAR), col(PARENT_VAR)
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

    # The BFS layer's neighbor argmin: lexicographic min (dist_v, v) over
    # N(u) via one reduction of the composite key dist_v · N + v (v < N,
    # so key order is exactly pair order).
    best_key = min_over_neighbors(
        neigh(tdist) * nprocs() + neigh_index(), default=_NO_KEY
    )
    best_d = best_key // nprocs()
    best_v = best_key % nprocs()
    want = minimum(best_d + 1, n_base)

    parent_is_neighbor = any_neighbors(neigh_index() == own(parent))
    coherent = where(
        is_root,
        (tdist == 0) & ~has_parent,
        (tdist == want)
        & has_parent
        & parent_is_neighbor
        & (gather(parent, tdist) == best_d),
    )

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
        Rule("rule_tree", ~coherent,
             [Assign(DIST_VAR, where(is_root, 0, want)),
              Assign(PARENT_VAR, where(is_root, -1, best_v))]),
    ]
    rules += input_rule_set.gated_rules(clean)

    return RuleSet(
        f"mono-reset({input_rule_set.name})",
        network,
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


assert tuple(WAVE_RULES) == (
    "rule_req", "rule_reset_root", "rule_reset_down", "rule_ack", "rule_idle"
)
assert tuple(MODES).index("IDLE") == _IDLE and tuple(MODES).index("ACK") == _ACK
