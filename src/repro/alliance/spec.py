"""(f,g)-alliance specification checkers (paper, Section 6.1).

Given ``G = (V, E)`` and node functions ``f, g ≥ 0``, a set ``A ⊆ V`` is an
**(f,g)-alliance** iff every ``u ∉ A`` has at least ``f(u)`` neighbors in
``A`` and every ``v ∈ A`` has at least ``g(v)`` neighbors in ``A``.  ``A``
is **1-minimal** iff removing any single member breaks the property, and
**minimal** iff no proper subset is an (f,g)-alliance.  Property 1 (Dourado
et al.): minimal ⇒ 1-minimal, and when ``f ≥ g`` pointwise, 1-minimal ⇒
minimal.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ..core.graph import Network

__all__ = [
    "neighbors_in",
    "is_alliance",
    "violating_processes",
    "is_one_minimal",
    "is_fga_stable",
    "one_minimality_guaranteed",
    "is_minimal",
    "is_dominating_set",
    "is_minimal_dominating_set",
]


def neighbors_in(network: Network, members: set[int], u: int) -> int:
    """Number of ``u``'s neighbors inside ``members``."""
    return sum(1 for v in network.neighbors(u) if v in members)


def violating_processes(
    network: Network, members: set[int], f: Sequence[int], g: Sequence[int]
) -> list[int]:
    """Processes whose (f,g)-alliance constraint is violated by ``members``."""
    bad = []
    for u in network.processes():
        need = g[u] if u in members else f[u]
        if neighbors_in(network, members, u) < need:
            bad.append(u)
    return bad


def is_alliance(
    network: Network, members: Iterable[int], f: Sequence[int], g: Sequence[int]
) -> bool:
    """Whether ``members`` is an (f,g)-alliance of the network."""
    return not violating_processes(network, set(members), f, g)


def is_one_minimal(
    network: Network, members: Iterable[int], f: Sequence[int], g: Sequence[int]
) -> bool:
    """Whether ``members`` is a *1-minimal* (f,g)-alliance.

    The set must be an alliance, and dropping any one member must break the
    alliance property.
    """
    members = set(members)
    if not is_alliance(network, members, f, g):
        return False
    for u in members:
        if is_alliance(network, members - {u}, f, g):
            return False
    return True


def is_minimal(
    network: Network,
    members: Iterable[int],
    f: Sequence[int],
    g: Sequence[int],
    exhaustive_limit: int = 20,
) -> bool:
    """Whether ``members`` is a *minimal* (f,g)-alliance.

    Checks that no proper subset is an alliance.  Exponential — guarded by
    ``exhaustive_limit`` on ``|members|`` (test-sized inputs only).
    """
    members = set(members)
    if not is_alliance(network, members, f, g):
        return False
    if len(members) > exhaustive_limit:
        raise ValueError(
            f"minimality check is exponential; refusing |A| = {len(members)} > "
            f"{exhaustive_limit}"
        )
    ordered = sorted(members)
    for size in range(len(ordered)):
        for subset in itertools.combinations(ordered, size):
            if is_alliance(network, set(subset), f, g):
                return False
    return True


def is_fga_stable(
    network: Network, members: Iterable[int], f: Sequence[int], g: Sequence[int]
) -> bool:
    """The stability guarantee FGA's published guards actually enforce.

    **Reproduction finding** (checked by experiment T9): Theorem 8 claims
    every terminal configuration carries a *1-minimal* alliance, but its
    proof asserts ``realScr(u) = 1`` for all ``u ∈ N[m]`` including the
    removable process ``m`` itself, which only follows from
    ``#InAll(m) ≥ f(m)`` when ``f(m) > g(m)``.  With ``f ≤ g`` somewhere,
    two blocking effects appear in the published guards:

    * a removable member with ``realScr = 0`` cannot self-approve
      (``bestPtr`` returns ⊥ when ``scr ≤ 0``);
    * a ``canQ`` process with ``realScr = 0`` *attracts* its neighbors'
      pointers without ever being able to complete a removal, starving
      removable neighbors of approvals.

    This predicate mirrors the guards exactly: the set is an alliance and
    no member could ever satisfy ``P_toQuit`` once scores and pointers have
    converged.  Every terminal configuration of ``FGA ∘ SDR`` satisfies it;
    when ``f > g`` pointwise it coincides with :func:`is_one_minimal`
    (then every ``canQ`` process has ``realScr = 1`` and the min-identifier
    argument of Theorem 8 goes through).
    """
    members = set(members)
    if not is_alliance(network, members, f, g):
        return False

    def real_scr(u: int) -> int:
        threshold = g[u] if u in members else f[u]
        count = neighbors_in(network, members, u)
        return -1 if count < threshold else (0 if count == threshold else 1)

    can_quit = {
        u
        for u in members
        if neighbors_in(network, members, u) >= f[u]
        and all(real_scr(v) == 1 for v in network.neighbors(u))
    }
    for u in can_quit:
        if real_scr(u) != 1:
            continue  # cannot self-approve: bestPtr(u) = ⊥
        # u quits iff every member of N[u] would point at u, i.e. u is the
        # smallest-identifier canQ process of each closed neighborhood
        # (and each approver has the scr = 1 margin to point at all).
        unanimous = True
        for v in network.closed_neighbors(u):
            if real_scr(v) != 1:
                unanimous = False
                break
            candidates = [x for x in network.closed_neighbors(v) if x in can_quit]
            if not candidates or min(candidates, key=network.id_of) != u:
                unanimous = False
                break
        if unanimous:
            return False  # u could still leave: not a terminal alliance
    return True


def one_minimality_guaranteed(f: Sequence[int], g: Sequence[int]) -> bool:
    """Whether Theorem 8's 1-minimality argument applies: ``f > g``
    pointwise (so every ``canQ`` process has a strict score margin)."""
    return all(fu > gu for fu, gu in zip(f, g))


def is_dominating_set(network: Network, members: Iterable[int]) -> bool:
    """Dominating set = (1,0)-alliance."""
    ones = [1] * network.n
    zeros = [0] * network.n
    return is_alliance(network, members, ones, zeros)


def is_minimal_dominating_set(network: Network, members: Iterable[int]) -> bool:
    """Minimal dominating set = 1-minimal (1,0)-alliance (Property 1.2,
    since ``f = 1 ≥ 0 = g``)."""
    ones = [1] * network.n
    zeros = [0] * network.n
    return is_one_minimal(network, members, ones, zeros)
