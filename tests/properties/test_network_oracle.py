"""``Network`` against networkx as the oracle.

``Network`` keeps one link set — its sorted adjacency tuples — and
derives everything else from it with its own breadth-first search.
Hypothesis draws random connected graphs under shuffled node names and
random valid delta sequences, and checks every view (neighbors, degrees,
``m``, ``edges()``, ``csr()``, ``diameter``, live-subgraph component
counts) against a networkx graph edited alongside.  The kernel's
in-place :meth:`CSRAdjacency.apply_delta` must land on the layout built
from scratch from the edited ``Network``.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Network, TopologyError
from repro.core.kernel.csr import CSRAdjacency
from tests.core.test_csr_delta import assert_same_layout

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def named_graphs(draw, connected=True):
    """A random graph over shuffled integer names, as ``(nodes, edges)``."""
    n = draw(st.integers(1 if connected else 2, 12))
    names = draw(st.permutations(range(100, 100 + n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    if connected:
        # a random spanning tree: each node hangs off an earlier one
        links = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        # two blocks, [0, cut) and [cut, n), with no link between them
        cut = draw(st.integers(1, n - 1))
        links = [(v - 1, v) for v in range(1, n) if v != cut]
        extra = [(u, v) for u, v in extra if (u < cut) == (v < cut)]
    return list(names), [(names[u], names[v]) for u, v in links + extra]


def build(nodes, edges):
    """``Network`` from the edge list (a lone process has none to list)."""
    return Network(edges) if edges else Network(nx.empty_graph(nodes))


def nx_graph(nodes, edges):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


def oracle_of(net, nodes, edges):
    """The networkx graph of ``edges`` relabeled to ``net``'s dense indices."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(nodes)))
    graph.add_edges_from((net.index_of(u), net.index_of(v)) for u, v in edges)
    return graph


def assert_matches(net, oracle):
    n = oracle.number_of_nodes()
    assert net.n == n
    assert net.m == oracle.number_of_edges()
    for u in range(n):
        assert net.neighbors(u) == tuple(sorted(oracle[u]))
        assert net.closed_neighbors(u) == (u, *sorted(oracle[u]))
    assert net.degrees == tuple(oracle.degree(u) for u in range(n))
    assert list(net.edges()) == sorted(tuple(sorted(e)) for e in oracle.edges())
    indptr, indices = net.csr()
    assert indptr.tolist() == [0, *np.cumsum([oracle.degree(u) for u in range(n)])]
    assert indices.tolist() == [v for u in range(n) for v in sorted(oracle[u])]
    assert net.components() == nx.number_connected_components(oracle)
    if nx.is_connected(oracle):
        assert net.diameter == nx.diameter(oracle)
    else:
        with pytest.raises(TopologyError, match="disconnected"):
            net.diameter
    copy = net.to_networkx()
    assert list(copy.nodes) == list(range(n))
    assert sorted(map(sorted, copy.edges())) == sorted(map(sorted, oracle.edges()))


@given(named_graphs())
@SETTINGS
def test_construction_matches_networkx(graph):
    nodes, edges = graph
    source = nx_graph(nodes, edges)
    for net in (build(nodes, edges), Network(source)):
        assert net.names == tuple(sorted(nodes))
        assert_matches(net, oracle_of(net, nodes, edges))


@given(named_graphs(connected=False))
@SETTINGS
def test_disconnected_input_is_rejected(graph):
    nodes, edges = graph
    source = nx_graph(nodes, edges)
    assert not nx.is_connected(source)
    with pytest.raises(TopologyError, match="connected"):
        Network(source)
    if len(set(u for e in edges for u in e)) == len(nodes):
        with pytest.raises(TopologyError, match="connected"):
            Network(edges)


@given(named_graphs(), st.randoms(use_true_random=False))
@SETTINGS
def test_delta_sequences_match_networkx(graph, rng):
    nodes, edges = graph
    net = build(nodes, edges)
    oracle = oracle_of(net, nodes, edges)
    csr = CSRAdjacency(net)
    n = net.n
    for _ in range(6):
        present = sorted(tuple(sorted(e)) for e in oracle.edges())
        absent = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if not oracle.has_edge(u, v)
        ]
        drops = rng.sample(present, k=min(len(present), rng.randrange(3)))
        adds = rng.sample(absent, k=min(len(absent), rng.randrange(3)))
        # either orientation names the same link
        drops = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in drops]
        net.apply_delta(drops, adds)
        csr.apply_delta(drops, adds)
        oracle.remove_edges_from(drops)
        oracle.add_edges_from(adds)
        assert_matches(net, oracle)
        assert_same_layout(csr, CSRAdjacency(net))
        dead = rng.sample(range(n), k=rng.randrange(n))
        live = oracle.subgraph(set(range(n)) - set(dead))
        assert net.components(dead) == nx.number_connected_components(live)
        for u, v in live.edges():
            cut = live.copy()
            cut.remove_edge(u, v)
            assert net.components(dead, without=(u, v)) == \
                nx.number_connected_components(cut)
