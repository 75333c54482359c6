"""CSR adjacency with vectorized neighborhood reductions.

Guards in the locally shared memory model are neighborhood quantifiers:
``∀v ∈ N(u)``, ``∃v ∈ N(u)``, ``#{v ∈ N(u) | …}``, ``min …``.  With the
adjacency flattened to CSR (``indptr``/``indices`` from
:meth:`repro.core.graph.Network.csr`), each such quantifier over *every*
process at once becomes one gather over the edge array plus one segmented
reduction — no python-level loop over processes or neighbors.  An action
that moves a few processes needs the quantifier only at those:
:meth:`CSRAdjacency.rows` lays out the edge slots of just the selected
rows, and the same reductions run over that short slice (:class:`Rows`).

Every reduction picks its path from the layout it folds:

* rows of one small constant degree ``d`` (rings, tori) fold as strided
  element-wise chains ``x[0::d] op x[1::d] op …``, i.e. over the columns
  of the ``(rows, d)`` matrix;
* otherwise ``ufunc.reduceat`` over the row starts;
* ``reduceat`` mis-handles empty segments, so a layout with an empty row
  — an isolated process, on the zero-edge network or after crash and
  drop-edge churn (:meth:`CSRAdjacency.apply_delta`) — scatters with
  ``ufunc.at`` instead, which hands every quantifier its vacuous value on
  empty neighborhoods (count 0, ∀ true, ∃ false, fold default).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRAdjacency", "Rows"]


#: Integer dtype → ``(min, max)``: a fold's identity element is a dict
#: lookup, not an ``np.iinfo`` construction per call.
_BOUNDS = {
    np.dtype(t): (int(np.iinfo(t).min), int(np.iinfo(t).max))
    for t in (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)
}


class Rows:
    """A segment layout — a run of CSR rows, row after row — and the
    neighborhood reductions over it.

    Each reduction takes one value per edge slot of the layout (a
    full-length edge array for the whole graph, a ``pos``-length one for
    a :meth:`CSRAdjacency.rows` selection) and returns one value per row.

    Attributes
    ----------
    k:
        Number of rows.
    nbr:
        Per edge slot, the neighbor's process index.
    reps:
        Per row, its degree (the ``int`` ``d`` for ``d``-regular rows) —
        ``values.repeat(reps)`` lifts per-row values to the owner's value
        per edge slot.
    pos:
        For a selection, the slots' positions in the whole graph's edge
        arrays; ``None`` for the whole graph (the identity).
    """

    __slots__ = ("k", "nbr", "reps", "pos", "_stride", "_starts", "_seg")

    def __init__(self, k, nbr, reps, stride, starts, seg, pos=None):
        self.k = k
        self.nbr = nbr
        self.reps = reps
        self.pos = pos
        #: Constant row degree (0 = irregular): fold lane by lane.
        self._stride = stride
        #: Row offsets for ``reduceat``; ``None`` when a row is empty.
        self._starts = starts
        #: Per edge slot, its row — the ``ufunc.at`` path's scatter index.
        self._seg = seg

    def _fold(self, op, edge, fill, dtype):
        # ``fill``/``dtype``: what an empty row reads on the scatter path.
        d = self._stride
        if d:
            out = op(edge[0::d], edge[1::d])
            for lane in range(2, d):
                op(out, edge[lane::d], out=out)
            return out
        if self._starts is not None:
            return op.reduceat(edge, self._starts)
        out = np.full(self.k, fill, dtype=dtype)
        op.at(out, self._seg, edge)
        return out

    def count(self, edge_flags: np.ndarray) -> np.ndarray:
        """``#{flag}`` per row (int64)."""
        flags = edge_flags.astype(np.int64, copy=False)
        return self._fold(np.add, flags, 0, np.int64)

    def all(self, edge_flags: np.ndarray) -> np.ndarray:
        """``∀ flag`` per row (vacuously true on an empty row)."""
        return self._fold(np.logical_and, edge_flags, True, np.bool_)

    def any(self, edge_flags: np.ndarray) -> np.ndarray:
        """``∃ flag`` per row."""
        return self._fold(np.logical_or, edge_flags, False, np.bool_)

    def min(self, edge_values, edge_mask, default) -> np.ndarray:
        """Per row, ``min`` of the values the mask admits (``None``: all),
        else ``default``.

        ``default`` applies exactly where no slot passes the mask — it
        never competes with real candidates, so it may lie *below* them
        (matching ``min(candidates, default=...)``).
        """
        return self._pick(np.minimum, edge_values, edge_mask, default)

    def max(self, edge_values, edge_mask, default) -> np.ndarray:
        """Per row, ``max`` of the values the mask admits, else ``default``
        (which, as for :meth:`min`, may lie above them)."""
        return self._pick(np.maximum, edge_values, edge_mask, default)

    def _pick(self, fold, edge_values, edge_mask, default):
        # Fold with the dtype's identity element, then substitute the
        # caller's default where no slot of the row was admitted — a
        # row without candidates folds to the identity, so a default
        # equal to it needs no substitution.
        values = np.asarray(edge_values)
        if values.dtype == np.bool_:
            values = values.astype(np.int64)
        lo, hi = _BOUNDS[values.dtype]
        identity = hi if fold is np.minimum else lo
        if edge_mask is not None:
            values = np.where(edge_mask, values, identity)
        out = self._fold(fold, values, identity, values.dtype)
        if default == identity:
            return out
        if edge_mask is not None:
            return np.where(self.any(edge_mask), out, default)
        if self._starts is not None or self._stride:
            return out  # no empty row: every row has a candidate
        return np.where(self.reps > 0, out, default)


class CSRAdjacency(Rows):
    """Flattened neighborhoods of a :class:`~repro.core.graph.Network`.

    As a :class:`Rows` it is the layout of *every* row, so the
    reductions fold the whole graph; :meth:`rows` selects a few.

    Attributes
    ----------
    indptr, indices:
        CSR layout; ``indices[indptr[u]:indptr[u+1]]`` = ``N(u)`` ascending.
    edge_src:
        For each edge slot, the process whose neighborhood it belongs to
        (``indices[i]`` is a neighbor of ``edge_src[i]``).
    deg:
        Per-process degree vector.
    """

    __slots__ = (
        "n", "indptr", "indices", "edge_src", "deg", "_no_edges", "_has_empty",
        "_grid",
    )

    def __init__(self, network):
        indptr, indices = network.csr()
        self._init_from(indptr, indices, network.n)

    def _init_from(self, indptr, indices, n: int) -> None:
        self.n: int = n
        self.indptr = indptr
        self.indices = indices
        self.deg = np.diff(indptr)
        self.edge_src = np.repeat(np.arange(self.n, dtype=np.int64), self.deg)
        self._no_edges = indices.shape[0] == 0  # zero edges at all
        #: Any degree-0 process present → whole-graph reductions scatter
        #: with ``ufunc.at`` instead of ``reduceat``.
        self._has_empty = bool(self._no_edges or not self.deg.all())
        #: Constant degree of a regular graph (0 = irregular).  For small
        #: constant degrees the segmented reductions specialize to strided
        #: element-wise chains (``flags[0::d] op flags[1::d] op …``), which
        #: beat ``reduceat``'s generic segment loop several-fold — rings
        #: and tori, the benchmark workhorses, live on this path.
        self._stride = 0
        if not self._no_edges:
            d = int(self.deg[0])
            if 2 <= d <= 4 and bool((self.deg == d).all()):
                self._stride = d
        #: Edge positions as an ``(n, d)`` matrix on regular layouts, so a
        #: row selection's slots are one fancy index.
        self._grid = None
        if self._stride:
            self._grid = np.arange(indices.shape[0]).reshape(n, self._stride)
        self.k = n
        self.nbr = indices
        self.reps = self._stride or self.deg
        self.pos = None
        self._starts = None if self._has_empty else indptr[:-1]
        self._seg = self.edge_src

    @classmethod
    def from_arrays(cls, indptr, indices, n: int) -> "CSRAdjacency":
        """Build directly from CSR arrays (tiled batch layouts)."""
        csr = cls.__new__(cls)
        csr._init_from(indptr, indices, n)
        return csr

    def tile(self, copies: int) -> "CSRAdjacency":
        """Block-diagonal replication: ``copies`` disjoint copies.

        Trial ``t`` of a batch owns processes ``[t·n, (t+1)·n)``; its
        adjacency is this graph's shifted by ``t·n``.  Per-block
        connectivity is preserved, so every degree (and the ``reduceat``
        non-empty-segment requirement) carries over.
        """
        if copies == 1:
            return self
        n = self.n
        offsets = np.arange(copies, dtype=np.int64)
        indices = (self.indices[None, :] + (offsets * n)[:, None]).ravel()
        block = np.diff(self.indptr)
        indptr = np.zeros(copies * n + 1, dtype=np.int64)
        np.cumsum(np.tile(block, copies), out=indptr[1:])
        return CSRAdjacency.from_arrays(indptr, indices, copies * n)

    def apply_delta(self, drops, adds) -> None:
        """Patch the adjacency in place: remove ``drops``, insert ``adds``.

        Both are iterables of undirected ``(u, v)`` index pairs; callers
        (the churn scheduler) guarantee drops exist and adds don't.  The
        edit stays in array space — edges are encoded as directed keys
        ``u·n + v``, filtered/merged, and the CSR layout re-derived —
        so the result is exactly a from-scratch rebuild of the mutated
        edge set, including ``_stride`` and the empty-segment guards.
        """
        n = self.n
        keys = self.edge_src * n + self.indices
        if drops:
            dead = np.fromiter(
                (p * n + q for u, v in drops for p, q in ((u, v), (v, u))),
                dtype=np.int64,
            )
            keys = keys[np.isin(keys, dead, invert=True)]
        if adds:
            born = np.fromiter(
                (p * n + q for u, v in adds for p, q in ((u, v), (v, u))),
                dtype=np.int64,
            )
            keys = np.concatenate((keys, born))
            keys.sort()
        src, dst = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._init_from(indptr, dst, n)

    # ------------------------------------------------------------------
    # Gathers
    # ------------------------------------------------------------------
    def pull(self, column: np.ndarray) -> np.ndarray:
        """Per edge slot: the *neighbor's* value of ``column``."""
        return column[self.indices]

    def own(self, column: np.ndarray) -> np.ndarray:
        """Per edge slot: the *owner's* value of ``column``."""
        return column[self.edge_src]

    # ------------------------------------------------------------------
    # Row selections
    # ------------------------------------------------------------------
    def rows(self, idx: np.ndarray) -> "Rows":
        """The edge slots of processes ``idx``, row after row.

        ``rows(idx).pos`` are those slots' positions in the edge arrays;
        the returned :class:`Rows` reduces per-slot values of just those
        slots to one value per selected process — equal to the matching
        whole-graph reduction indexed at ``idx``, at a cost proportional
        to the selected rows' edges instead of the whole graph's.
        """
        k = idx.shape[0]
        d = self._stride
        if d:
            pos = self._grid[idx].ravel()
            return Rows(k, self.indices[pos], d, d, None, None, pos)
        deg = self.deg[idx]
        ends = np.add.accumulate(deg)
        offsets = ends - deg
        pos = (self.indptr[idx] - offsets).repeat(deg)
        pos += np.arange(pos.shape[0])
        if self._has_empty and not deg.all():
            seg = np.arange(k).repeat(deg)
            return Rows(k, self.indices[pos], deg, 0, None, seg, pos)
        return Rows(k, self.indices[pos], deg, 0, offsets, None, pos)

    # ------------------------------------------------------------------
    # Whole-graph reductions (edge space → process space), by their
    # quantifier names
    # ------------------------------------------------------------------
    count_neigh = Rows.count
    all_neigh = Rows.all
    any_neigh = Rows.any
    min_neigh = Rows.min
    max_neigh = Rows.max
