"""The generators build the same networks networkx builds.

Every family lists its own links; the oracle here is the networkx
construction each family is named after, read through ``Network`` the
same way, so both sides must agree on process names and edge sets.
"""

import itertools
from random import Random

import networkx as nx
import pytest

from repro.core.graph import Network
from repro.topology import (
    TOPOLOGIES,
    binary_tree,
    caterpillar,
    complete,
    grid,
    hypercube,
    line,
    lollipop,
    random_connected,
    random_tree,
    ring,
    star,
    torus,
)

SEEDS = range(5)
SIZES = range(2, 41)


def _sorted_relabel(graph):
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def _nx_random_tree(n, seed):
    if n == 2:
        return nx.path_graph(2)
    rng = Random(seed)
    return nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])


def _nx_caterpillar(spine, legs):
    graph = nx.path_graph(spine)
    nxt = spine
    for s in range(spine):
        for _ in range(legs):
            graph.add_edge(s, nxt)
            nxt += 1
    return graph


def _nx_random_connected(n, p, seed):
    rng = Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        graph.add_edge(order[i], order[rng.randrange(i)])
    for u, v in itertools.combinations(range(n), 2):
        if not graph.has_edge(u, v) and rng.random() < p:
            graph.add_edge(u, v)
    return graph


def _nx_square_grid(n):
    rows = max(1, int(n**0.5))
    return _sorted_relabel(nx.grid_2d_graph(rows, (n + rows - 1) // rows))


#: ``TOPOLOGIES`` family → its networkx construction, taking (n, seed).
NX_FAMILIES = {
    "ring": lambda n, seed: nx.cycle_graph(n),
    "line": lambda n, seed: nx.path_graph(n),
    "star": lambda n, seed: nx.star_graph(n - 1),
    "complete": lambda n, seed: nx.complete_graph(n),
    "grid": lambda n, seed: _nx_square_grid(n),
    "tree": _nx_random_tree,
    "random": lambda n, seed: _nx_random_connected(n, 0.25, seed),
    "sparse": lambda n, seed: _nx_random_connected(n, 0.05, seed),
}

#: Named generator → (its networkx construction, every argument tuple tried).
NX_GENERATORS = {
    ring: (nx.cycle_graph, [(n,) for n in range(3, 41)]),
    line: (nx.path_graph, [(n,) for n in SIZES]),
    star: (lambda n: nx.star_graph(n - 1), [(n,) for n in SIZES]),
    complete: (nx.complete_graph, [(n,) for n in SIZES]),
    grid: (lambda r, c: _sorted_relabel(nx.grid_2d_graph(r, c)),
           [(r, c) for r in range(1, 9) for c in range(1, 9) if r * c >= 2]),
    torus: (lambda r, c: _sorted_relabel(nx.grid_2d_graph(r, c, periodic=True)),
            [(r, c) for r in range(3, 8) for c in range(3, 8)]),
    binary_tree: (lambda h: nx.balanced_tree(2, h), [(h,) for h in range(1, 6)]),
    random_tree: (_nx_random_tree, [(n, seed) for n in SIZES for seed in SEEDS]),
    hypercube: (lambda d: _sorted_relabel(nx.hypercube_graph(d)),
                [(d,) for d in range(1, 6)]),
    caterpillar: (_nx_caterpillar,
                  [(s, legs) for s in range(2, 9) for legs in range(5)]),
    lollipop: (nx.lollipop_graph,
               [(c, t) for c in range(3, 9) for t in range(1, 7)]),
    random_connected: (_nx_random_connected,
                       [(n, p, seed) for n in SIZES
                        for p in (0.0, 0.05, 0.25, 0.3, 1.0) for seed in SEEDS]),
}

def _shape(net: Network):
    return net.names, list(net.edges())


def test_every_family_has_an_oracle():
    assert set(NX_FAMILIES) == set(TOPOLOGIES)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_family_matches_networkx(name):
    smallest = 3 if name == "ring" else 2
    for n in range(smallest, 41):
        for seed in SEEDS:
            want = Network(NX_FAMILIES[name](n, seed))
            assert _shape(TOPOLOGIES[name](n, seed=seed)) == _shape(want), (n, seed)


@pytest.mark.parametrize("generator", list(NX_GENERATORS),
                         ids=lambda g: g.__name__)
def test_generator_matches_networkx(generator):
    oracle, cases = NX_GENERATORS[generator]
    for args in cases:
        assert _shape(generator(*args)) == _shape(Network(oracle(*args))), args

