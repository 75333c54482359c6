"""Graph-theoretic properties used by the algorithms' parameter choices.

The unison baselines depend on two structural quantities of the network
(Boulinier et al. [11]):

* ``T_G`` — the length of the longest *chordless* cycle (hole), which lower
  bounds the reset-tail parameter ``α ≥ T_G − 2``;
* ``C_G`` — the *cyclomatic characteristic*, which the clock period must
  exceed (``K > C_G``).

``T_G`` is computed exactly via :func:`networkx.chordless_cycles` (fine at
benchmark scale).  ``C_G`` is the min over spanning trees of the maximum
fundamental-cycle length — expensive in general, so we expose a safe upper
bound (:func:`cyclomatic_characteristic_upper_bound`) alongside an exact
small-graph search.  Parameter helpers pick conservative values: any
``α ≥ n − 2`` and ``K ≥ n + 1`` satisfy the requirements because
``T_G ≤ n`` and ``C_G ≤ n``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..core.graph import Network

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "longest_chordless_cycle",
    "cyclomatic_characteristic_upper_bound",
    "cyclomatic_characteristic_exact",
    "safe_unison_parameters",
]


def _as_graph(network: Network | nx.Graph) -> nx.Graph:
    """The networkx graph of ``network`` (loaded here, not at import)."""
    if isinstance(network, Network):
        return network.to_networkx()
    return network


def longest_chordless_cycle(network: Network | nx.Graph) -> int:
    """Length ``T_G`` of the longest chordless cycle; 2 for acyclic graphs.

    Boulinier et al. define ``T_G = 2`` on trees so that ``α ≥ T_G − 2 = 0``
    remains meaningful; we follow that convention.
    """
    import networkx as nx

    graph = _as_graph(network)
    longest = 2
    for cycle in nx.chordless_cycles(graph):
        longest = max(longest, len(cycle))
    return longest


def cyclomatic_characteristic_upper_bound(network: Network | nx.Graph) -> int:
    """Cheap upper bound on ``C_G``.

    ``C_G`` is bounded by the maximum fundamental-cycle length of *any*
    spanning tree; we use a BFS tree from an arbitrary root, whose
    fundamental cycles have length at most ``2·depth + 1 ≤ 2D + 1``.  For
    trees (no cycles) the convention is ``C_G = 2``.
    """
    import networkx as nx

    graph = _as_graph(network)
    if graph.number_of_edges() < graph.number_of_nodes():
        return 2  # tree (connected, m = n-1): no fundamental cycles
    root = next(iter(graph.nodes))
    depth = nx.single_source_shortest_path_length(graph, root)
    tree_edges = set()
    for u, v in nx.bfs_edges(graph, root):
        tree_edges.add(frozenset((u, v)))
    worst = 2
    for u, v in graph.edges():
        if frozenset((u, v)) in tree_edges:
            continue
        worst = max(worst, depth[u] + depth[v] + 1)
    return worst


def cyclomatic_characteristic_exact(network: Network | nx.Graph, max_n: int = 10) -> int:
    """Exact ``C_G`` by brute force over spanning trees (tiny graphs only).

    ``C_G = min_T max_{e ∉ T} |fundamental cycle of e in T|``, minimized
    over all spanning trees ``T``.  Exponential; guarded by ``max_n``.
    """
    import networkx as nx

    graph = _as_graph(network)
    n = graph.number_of_nodes()
    if n > max_n:
        raise ValueError(f"exact C_G limited to n <= {max_n} (got {n})")
    if graph.number_of_edges() == n - 1:
        return 2
    edges = list(graph.edges())
    best = None
    for tree_edges in itertools.combinations(edges, n - 1):
        tree = nx.Graph(tree_edges)
        if tree.number_of_nodes() != n or not nx.is_connected(tree):
            continue
        worst = 2
        for u, v in edges:
            if tree.has_edge(u, v):
                continue
            worst = max(worst, nx.shortest_path_length(tree, u, v) + 1)
        best = worst if best is None else min(best, worst)
    assert best is not None
    return best


def safe_unison_parameters(network: Network) -> tuple[int, int]:
    """Conservative ``(K, α)`` valid for the Boulinier-style baseline.

    Uses the structural bounds when cheap, otherwise the trivial ones:
    ``K ≥ C_G + 1`` and ``α ≥ T_G − 2``, padded so both are at least the
    values the paper's own algorithm needs (``K > n``) to keep comparisons
    on equal periods.
    """
    n = network.n
    alpha = max(longest_chordless_cycle(network) - 2, 1)
    k = max(cyclomatic_characteristic_upper_bound(network) + 1, n + 1)
    return k, alpha
