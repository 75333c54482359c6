"""Communication network abstraction.

The paper models the system as a simple undirected connected graph
``G = (V, E)`` where ``V`` is the set of processes and ``E`` the set of
communication links (Section 2.1).  :class:`Network` freezes such a graph
into an index-based adjacency structure optimised for the hot path of the
simulator: guard evaluation repeatedly iterates over closed neighborhoods.

The sorted adjacency tuples are the one link set (the input graph is
read once, not kept); one breadth-first search serves connectivity, the
diameter and churn's component counts.

The structure is immutable under normal operation; the one sanctioned
mutation surface is :meth:`Network.apply_delta`, used by topology churn
(:mod:`repro.faults.churn`) to drop/add links mid-run.  The process set
(and hence every index and identifier) never changes — a crashed process
merely loses all of its links — and the touched rows are rewritten and
the cached CSR and diameter dropped atomically, so no reader can observe
a stale topology.

Processes are identified *internally* by integers ``0 .. n-1``.  This does
not contradict the anonymity assumption of the paper: anonymous algorithms
simply never read those indices (they correspond to the paper's "indirect
naming" / local labels ``N(u)``), whereas identified algorithms such as FGA
receive an explicit ``ids`` assignment.
"""

from __future__ import annotations

import copy
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import networkx as nx

from .exceptions import TopologyError

__all__ = ["Network"]


def _bfs(adj: Sequence[Sequence[int]], source: int, seen: bytearray,
         total: int) -> tuple[int, int]:
    """Search from ``source`` through processes unmarked in ``seen``, marking them.

    Returns ``(reached, eccentricity of source)``; stops as soon as
    ``total`` processes are reached, mid-level.
    """
    seen[source] = 1
    frontier, reached, depth = [source], 1, 0
    while reached < total:
        level = []
        for u in frontier:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    level.append(v)
            if reached + len(level) >= total:
                return total, depth + 1
        if not level:
            break
        reached += len(level)
        depth += 1
        frontier = level
    return reached, depth


def _checked_ids(names: tuple, ids: Mapping[object, int]) -> tuple[int, ...]:
    try:
        assigned = tuple(int(ids[name]) for name in names)
    except KeyError as missing:
        raise TopologyError(f"ids mapping misses node {missing}") from None
    if len(set(assigned)) != len(assigned):
        raise TopologyError("process identifiers must be unique")
    return assigned


class Network:
    """An immutable, validated communication graph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs over hashable node names, or a
        :class:`networkx.Graph` (read once, not kept).  Node names are
        mapped to dense indices ``0..n-1`` in sorted order when sortable
        (insertion order otherwise).
    ids:
        Optional mapping from node name to a unique integer identifier, used
        by identified-network algorithms (e.g. FGA).  Defaults to the dense
        index itself.  Anonymous algorithms must not read identifiers.

    Examples
    --------
    >>> net = Network([(0, 1), (1, 2)])
    >>> net.n, net.m
    (3, 2)
    >>> net.neighbors(1)
    (0, 2)
    >>> net.closed_neighbors(1)
    (1, 0, 2)
    """

    __slots__ = (
        "_names",
        "_index_of",
        "_adj",
        "_closed_adj",
        "_adj_sets",
        "_ids",
        "_degrees",
        "_diameter",
        "_csr",
    )

    def __init__(
        self,
        edges: Iterable[tuple[object, object]] | nx.Graph,
        ids: Mapping[object, int] | None = None,
    ):
        links = getattr(edges, "adj", None)  # a networkx graph's name → neighbors
        if links is None:
            links = {}
            for u, v in edges:
                links.setdefault(u, set()).add(v)
                links.setdefault(v, set()).add(u)
        if not links:
            raise TopologyError("the network must contain at least one process")
        if any(u in links[u] for u in links):
            raise TopologyError("self-loops are not allowed (simple graph required)")

        try:
            self._names: tuple = tuple(sorted(links))
        except TypeError:
            self._names = tuple(links)
        index_of = self._index_of = {name: i for i, name in enumerate(self._names)}
        n = len(self._names)
        # empty placeholders: _set_rows writes every row next
        self._adj = self._closed_adj = self._adj_sets = self._degrees = ((),) * n
        self._set_rows({
            u: [index_of[w] for w in links[name]] for u, name in enumerate(self._names)
        })
        if _bfs(self._adj, 0, bytearray(n), n)[0] < n:
            raise TopologyError("the network must be connected")
        self._ids = tuple(range(n)) if ids is None else _checked_ids(self._names, ids)

    def _set_rows(self, rows: Mapping[int, Collection[int]]) -> None:
        """Make ``rows[u]`` the neighbors of each listed ``u``; re-derive those rows."""
        adj, closed = list(self._adj), list(self._closed_adj)
        sets, degrees = list(self._adj_sets), list(self._degrees)
        for u, row in rows.items():
            adj[u] = tuple(sorted(row))
            closed[u] = (u, *adj[u])
            sets[u] = frozenset(row)
            degrees[u] = len(row)
        self._adj, self._closed_adj = tuple(adj), tuple(closed)
        self._adj_sets, self._degrees = tuple(sets), tuple(degrees)
        self._csr = self._diameter = None

    # ------------------------------------------------------------------
    # Sizes and identifiers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processes (the paper's ``n``)."""
        return len(self._names)

    @property
    def m(self) -> int:
        """Number of edges (the paper's ``m``)."""
        return sum(self._degrees) // 2

    @property
    def names(self) -> tuple:
        """Original node names, in index order."""
        return self._names

    @property
    def ids(self) -> tuple[int, ...]:
        """Unique process identifiers, in index order (identified networks)."""
        return self._ids

    def id_of(self, u: int) -> int:
        """Identifier of process ``u`` (used only by identified algorithms)."""
        return self._ids[u]

    def index_of(self, name: object) -> int:
        """Dense index of the process originally named ``name``."""
        return self._index_of[name]

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> tuple[int, ...]:
        """Open neighborhood ``N(u)``."""
        return self._adj[u]

    def closed_neighbors(self, u: int) -> tuple[int, ...]:
        """Closed neighborhood ``N[u]`` (``u`` first, then its neighbors)."""
        return self._closed_adj[u]

    def degree(self, u: int) -> int:
        """Degree ``δ_u`` of process ``u``."""
        return self._degrees[u]

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Δ`` of the network."""
        return max(self._degrees)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def are_neighbors(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    def components(self, dead: Collection[int] = (),
                   without: tuple[int, int] | None = None) -> int:
        """Components once processes ``dead`` and link ``without`` are left out.

        Churn weighs candidate crashes and drops with it; nothing changes."""
        adj = list(self._adj)
        if without is not None:
            u, v = without
            adj[u] = tuple(w for w in adj[u] if w != v)
            adj[v] = tuple(w for w in adj[v] if w != u)
        n, count = self.n, 0
        seen = bytearray(n)
        for u in dead:
            seen[u] = 1
        for s in range(n):
            if not seen[s]:
                count += 1
                _bfs(adj, s, seen, n)
        return count

    # ------------------------------------------------------------------
    # Topology churn (the only sanctioned mutation surface)
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        drops: Iterable[tuple[int, int]] = (),
        adds: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Mutate the link set in place: remove ``drops``, insert ``adds``.

        Both arguments are iterables of undirected index pairs.  The
        process set is fixed — churn silences processes by removing
        their links, it never deletes them — so the result may be
        disconnected; connectivity policy is the churn scheduler's job,
        not this method's.  All-or-nothing: a :class:`TopologyError`
        (an index outside ``0..n-1``, a link named twice, dropping an
        absent link, adding a present one or a self-loop) leaves every
        view as it was.  Only the touched rows are rewritten.
        """
        n, sets = self.n, self._adj_sets
        named = set()
        for dropping, (u, v) in [(True, e) for e in drops] + [(False, e) for e in adds]:
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"link ({u}, {v}) names a process outside 0..{n - 1}")
            if u == v:
                raise TopologyError(f"self-loop ({u}, {u}) is not allowed")
            if (min(u, v), max(u, v)) in named:
                raise TopologyError(f"link ({u}, {v}) is repeated in one delta")
            named.add((min(u, v), max(u, v)))
            if (v in sets[u]) != dropping:
                raise TopologyError(
                    f"cannot {'drop absent' if dropping else 'add present'} link ({u}, {v})"
                )
        # Validated, every named link flips: drops are present, adds absent.
        rows = {u: set(sets[u]) for pair in named for u in pair}
        for u, v in named:
            rows[u] ^= {v}
            rows[v] ^= {u}
        self._set_rows(rows)

    def csr(self) -> tuple:
        """Adjacency in CSR form: ``(indptr, indices)`` numpy int64 arrays.

        ``indices[indptr[u]:indptr[u+1]]`` are the neighbors of ``u`` in
        ascending order.  Built once and cached; this is the layout the
        array-backed execution kernel (:mod:`repro.core.kernel`) drives.
        Requires numpy.
        """
        if self._csr is None:
            import numpy as np

            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            indices = np.fromiter(
                (v for neigh in self._adj for v in neigh),
                dtype=np.int64,
                count=2 * self.m,
            )
            self._csr = (indptr, indices)
        return self._csr

    @property
    def diameter(self) -> int:
        """Network diameter ``D`` (cached; ``0`` for a single process).

        A :class:`TopologyError` once churn has disconnected the network.
        """
        if self._diameter is None:
            n = self.n
            sweeps = [_bfs(self._adj, s, bytearray(n), n) for s in range(n)]
            if sweeps[0][0] < n:
                raise TopologyError("a disconnected network has no diameter")
            self._diameter = max(depth for _, depth in sweeps)
        return self._diameter

    # ------------------------------------------------------------------
    # Interop and dunder helpers
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """A new :class:`networkx.Graph` over dense indices, in index order."""
        graph = nx.empty_graph(self.n)
        graph.add_edges_from(self.edges())
        return graph

    def processes(self) -> range:
        """Iterable over process indices ``0..n-1``."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as index pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Network(n={self.n}, m={self.m}, Δ={self.max_degree})"

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, graph: nx.Graph, ids: Mapping[object, int] | None = None) -> "Network":
        """Build a :class:`Network` from a :class:`networkx.Graph`."""
        return cls(graph, ids=ids)

    @classmethod
    def single(cls) -> "Network":
        """The one-process network (no edges)."""
        return cls(nx.empty_graph(1))

    def with_ids(self, ids: Sequence[int]) -> "Network":
        """A copy of this network with explicit identifiers (index order)."""
        net = copy.copy(self)
        net._ids = _checked_ids(self._names, dict(zip(self._names, ids)))
        return net
