"""Named topology generators used across tests, examples, and benchmarks.

Every generator returns a connected :class:`~repro.core.graph.Network`.
Generators that involve randomness take an explicit ``seed`` so experiment
sweeps are reproducible.

Each family lists its links directly and hands them to ``Network``; the
numbering is networkx's for the same family (``tests/topology`` checks
the two edge sets against each other), but networkx itself is imported
only by :func:`random_regular`, so no sweep or trial loads it.
"""

from __future__ import annotations

import heapq
import itertools
from random import Random

from ..core.exceptions import TopologyError
from ..core.graph import Network

__all__ = [
    "ring",
    "line",
    "star",
    "complete",
    "grid",
    "torus",
    "binary_tree",
    "random_tree",
    "hypercube",
    "caterpillar",
    "lollipop",
    "random_connected",
    "random_regular",
    "by_name",
    "TOPOLOGIES",
]


def ring(n: int) -> Network:
    """Cycle of ``n ≥ 3`` processes."""
    if n < 3:
        raise TopologyError("a ring needs at least 3 processes")
    return Network([(i, (i + 1) % n) for i in range(n)])


def line(n: int) -> Network:
    """Path of ``n ≥ 2`` processes."""
    if n < 2:
        raise TopologyError("a line needs at least 2 processes")
    return Network(_path(range(n)))


def star(n: int) -> Network:
    """Star with hub ``0`` and leaves ``1..n-1`` (``n ≥ 2``)."""
    if n < 2:
        raise TopologyError("a star needs at least 2 processes")
    return Network([(0, leaf) for leaf in range(1, n)])


def complete(n: int) -> Network:
    """Clique on ``n ≥ 2`` processes."""
    if n < 2:
        raise TopologyError("a complete graph needs at least 2 processes")
    return Network(itertools.combinations(range(n), 2))


def grid(rows: int, cols: int) -> Network:
    """2D mesh ``rows × cols`` (both ≥ 1, at least 2 processes total).

    Process ``(r, c)`` is numbered ``r * cols + c``.
    """
    if rows * cols < 2:
        raise TopologyError("a grid needs at least 2 processes")
    return Network(_mesh(rows, cols, periodic=False))


def torus(rows: int, cols: int) -> Network:
    """2D torus (grid with wraparound); needs ``rows, cols ≥ 3``.

    Process ``(r, c)`` is numbered ``r * cols + c``.
    """
    if rows < 3 or cols < 3:
        raise TopologyError("a torus needs rows, cols >= 3")
    return Network(_mesh(rows, cols, periodic=True))


def binary_tree(height: int) -> Network:
    """Complete binary tree of the given height (``height ≥ 1``).

    The children of process ``i`` are ``2i + 1`` and ``2i + 2``.
    """
    if height < 1:
        raise TopologyError("binary tree height must be >= 1")
    return Network([((i - 1) // 2, i) for i in range(1, 2 ** (height + 1) - 1)])


def random_tree(n: int, seed: int = 0) -> Network:
    """Uniform random labeled tree on ``n ≥ 2`` nodes."""
    if n < 2:
        raise TopologyError("a tree needs at least 2 processes")
    rng = Random(seed)
    # Random Prüfer sequence → uniform random labeled tree.
    if n == 2:
        return Network([(0, 1)])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return Network(_prufer_edges(prufer, n))


def hypercube(dim: int) -> Network:
    """Boolean hypercube of dimension ``dim ≥ 1`` (``2**dim`` processes).

    Process ``i`` is linked to ``i ^ (1 << k)`` for every bit ``k``.
    """
    if dim < 1:
        raise TopologyError("hypercube dimension must be >= 1")
    return Network([(i, i ^ (1 << k)) for i in range(2**dim) for k in range(dim)])


def caterpillar(spine: int, legs: int) -> Network:
    """Path of ``spine`` nodes, each with ``legs`` pendant leaves.

    The spine is ``0..spine-1``; the legs of spine node ``s`` are
    ``spine + s * legs`` onwards.
    """
    if spine < 2:
        raise TopologyError("caterpillar spine must have >= 2 nodes")
    if legs < 0:
        raise TopologyError("legs must be >= 0")
    return Network(_path(range(spine)) + [
        (s, spine + s * legs + k) for s in range(spine) for k in range(legs)
    ])


def lollipop(clique: int, tail: int) -> Network:
    """Clique ``0..clique-1`` whose last node starts a path of ``tail`` nodes."""
    if clique < 3 or tail < 1:
        raise TopologyError("lollipop needs clique >= 3 and tail >= 1")
    return Network([*itertools.combinations(range(clique), 2),
                    *_path(range(clique - 1, clique + tail))])


def random_connected(n: int, p: float = 0.3, seed: int = 0) -> Network:
    """Connected Erdős–Rényi-style graph on ``n ≥ 2`` nodes.

    A random spanning tree guarantees connectivity; each remaining pair is
    added independently with probability ``p``.
    """
    if n < 2:
        raise TopologyError("need at least 2 processes")
    if not 0.0 <= p <= 1.0:
        raise TopologyError("edge probability must be in [0, 1]")
    rng = Random(seed)
    linked: list[set[int]] = [set() for _ in range(n)]
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        linked[u].add(v)
        linked[v].add(u)
        edges.append((u, v))
    for u, v in itertools.combinations(range(n), 2):
        if v not in linked[u] and rng.random() < p:
            edges.append((u, v))
    return Network(edges)


def random_regular(n: int, d: int, seed: int = 0) -> Network:
    """Connected random ``d``-regular graph (retries seeds until connected)."""
    if n <= d or (n * d) % 2 != 0:
        raise TopologyError("need n > d and n*d even for a d-regular graph")
    import networkx as nx

    for attempt in range(64):
        graph = nx.random_regular_graph(d, n, seed=seed + attempt)
        if nx.is_connected(graph):
            return Network(graph)
    raise TopologyError(f"could not produce a connected {d}-regular graph on {n} nodes")


def _path(nodes: range) -> list[tuple[int, int]]:
    """Links between consecutive ``nodes``."""
    return list(zip(nodes, nodes[1:]))


def _mesh(rows: int, cols: int, periodic: bool) -> list[tuple[int, int]]:
    """Links of a ``rows × cols`` mesh, ``(r, c)`` numbered ``r * cols + c``,
    each axis wrapped around if ``periodic``."""
    return [(r * cols + c, (r + dr) % rows * cols + (c + dc) % cols)
            for r in range(rows) for c in range(cols) for dr, dc in ((0, 1), (1, 0))
            if periodic or (r + dr < rows and c + dc < cols)]


def _prufer_edges(sequence: list[int], n: int) -> list[tuple[int, int]]:
    """The ``n - 1`` links of the labeled tree whose Prüfer code is ``sequence``.

    Each code entry is joined to the smallest current leaf; the last two
    processes left are joined to each other.
    """
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in sequence:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


#: Registry used by the experiment harness: name → builder taking (n, seed).
TOPOLOGIES = {
    "ring": lambda n, seed=0: ring(n),
    "line": lambda n, seed=0: line(n),
    "star": lambda n, seed=0: star(n),
    "complete": lambda n, seed=0: complete(n),
    "grid": lambda n, seed=0: _square_grid(n),
    "tree": lambda n, seed=0: random_tree(n, seed=seed),
    "random": lambda n, seed=0: random_connected(n, p=0.25, seed=seed),
    "sparse": lambda n, seed=0: random_connected(n, p=0.05, seed=seed),
}


def _square_grid(n: int) -> Network:
    """Nearly square grid with at least ``n`` nodes (rows*cols ≥ n)."""
    rows = max(1, int(n**0.5))
    cols = (n + rows - 1) // rows
    return grid(rows, cols)


def by_name(name: str, n: int, seed: int = 0) -> Network:
    """Look up a topology family by name and build an ``n``-ish instance."""
    try:
        builder = TOPOLOGIES[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
    return builder(n, seed=seed)
