"""CSRAdjacency under churn: in-place deltas and empty-segment reductions.

``apply_delta`` promises that patching the CSR arrays in place leaves an
object *exactly* equal to a from-scratch rebuild of the mutated edge set
— including the ``_stride`` regular-graph fast path and the
``_has_empty`` guard that routes reductions off ``reduceat`` (which
mis-handles empty segments) once churn isolates a vertex.  These tests
drive randomized edit sequences against that promise and pin every
reduction's vacuous value on isolated-vertex and zero-edge graphs.

Row selections (:meth:`CSRAdjacency.rows`) must reduce exactly like the
whole-graph reductions indexed at the selection, on every layout kind —
hypothesis drives random graphs and random selections at that promise.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.kernel.csr import CSRAdjacency
from repro.topology import grid, random_connected, ring, torus


def assert_same_layout(got: CSRAdjacency, want: CSRAdjacency):
    assert got.n == want.n
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.edge_src, want.edge_src)
    np.testing.assert_array_equal(got.deg, want.deg)
    assert got._no_edges == want._no_edges
    assert got._has_empty == want._has_empty
    assert got._stride == want._stride


def random_edits(net, rng, rounds=12):
    """Yield (drops, adds) batches valid against ``net``, applying each."""
    n = net.n
    for _ in range(rounds):
        edges = sorted(tuple(sorted(e)) for e in net.edges())
        absent = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in set(edges)
        ]
        drops = rng.sample(edges, k=min(len(edges), rng.randrange(0, 3)))
        adds = rng.sample(absent, k=min(len(absent), rng.randrange(0, 3)))
        if not drops and not adds:
            continue
        net.apply_delta(drops, adds)
        yield drops, adds


class TestApplyDelta:
    @pytest.mark.parametrize("make,seed", [
        (lambda: ring(9), 1),
        (lambda: grid(3, 4), 2),
        (lambda: ring(6), 3),
    ])
    def test_randomized_edits_equal_scratch_rebuild(self, make, seed):
        net = make()
        csr = CSRAdjacency(net)
        rng = Random(seed)
        for drops, adds in random_edits(net, rng):
            csr.apply_delta(drops, adds)
            assert_same_layout(csr, CSRAdjacency(net))

    def test_isolating_a_vertex_flips_the_empty_guard(self):
        net = ring(5)
        csr = CSRAdjacency(net)
        assert not csr._has_empty
        assert csr._stride == 2
        net.apply_delta([(0, 1), (0, 4)], [])
        csr.apply_delta([(0, 1), (0, 4)], [])
        assert csr._has_empty
        assert csr._stride == 0  # no longer regular
        assert csr.deg[0] == 0
        assert_same_layout(csr, CSRAdjacency(net))

    def test_dropping_every_edge_reaches_the_zero_edge_layout(self):
        net = ring(4)
        csr = CSRAdjacency(net)
        edges = [tuple(sorted(e)) for e in net.edges()]
        net.apply_delta(edges, [])
        csr.apply_delta(edges, [])
        assert csr._no_edges and csr._has_empty
        assert_same_layout(csr, CSRAdjacency(net))

    def test_reconnecting_restores_the_stride_fast_path(self):
        net = ring(6)
        csr = CSRAdjacency(net)
        net.apply_delta([(0, 1)], [])
        csr.apply_delta([(0, 1)], [])
        assert csr._stride == 0
        net.apply_delta([], [(0, 1)])
        csr.apply_delta([], [(0, 1)])
        assert csr._stride == 2
        assert_same_layout(csr, CSRAdjacency(net))


def brute(csr):
    """Per-process neighbor lists straight from the CSR arrays."""
    return [
        list(csr.indices[csr.indptr[u]:csr.indptr[u + 1]])
        for u in range(csr.n)
    ]


def isolated_csr():
    """grid(3, 3) with vertex 4 (the center) fully isolated."""
    net = grid(3, 3)
    incident = [tuple(sorted(e)) for e in net.edges() if 4 in e]
    csr = CSRAdjacency(net)
    csr.apply_delta(incident, [])
    assert csr._has_empty and not csr._no_edges
    return csr


def zero_edge_csr():
    net = ring(4)
    csr = CSRAdjacency(net)
    csr.apply_delta([tuple(sorted(e)) for e in net.edges()], [])
    return csr


@pytest.mark.parametrize("make", [isolated_csr, zero_edge_csr],
                         ids=["isolated-vertex", "zero-edges"])
class TestEmptySegmentReductions:
    """Every quantifier hands isolated processes its vacuous value."""

    def test_count_all_any(self, make):
        csr = make()
        rng = np.random.default_rng(7)
        flags = rng.random(csr.indices.shape[0]) < 0.5
        neigh = brute(csr)
        offsets = csr.indptr[:-1]
        count = csr.count_neigh(flags)
        alls = csr.all_neigh(flags)
        anys = csr.any_neigh(flags)
        for u in range(csr.n):
            local = [flags[offsets[u] + i] for i in range(len(neigh[u]))]
            assert count[u] == sum(local)
            assert alls[u] == all(local)   # vacuously True when isolated
            assert anys[u] == any(local)   # vacuously False when isolated
        assert count.dtype == np.int64

    def test_min_max_defaults(self, make):
        csr = make()
        rng = np.random.default_rng(11)
        values = rng.integers(0, 50, size=csr.indices.shape[0])
        mask = rng.random(csr.indices.shape[0]) < 0.6
        neigh = brute(csr)
        offsets = csr.indptr[:-1]
        lo = csr.min_neigh(values, mask, default=-1)
        hi = csr.max_neigh(values, mask, default=99)
        for u in range(csr.n):
            cands = [
                values[offsets[u] + i]
                for i in range(len(neigh[u]))
                if mask[offsets[u] + i]
            ]
            assert lo[u] == (min(cands) if cands else -1)
            assert hi[u] == (max(cands) if cands else 99)


# ----------------------------------------------------------------------
# Row-local reductions: rows(idx) vs the whole graph indexed at idx
# ----------------------------------------------------------------------

LAYOUTS = ("stride", "irregular", "has-empty", "zero-edge")


def build_layout(kind, n, seed, copies):
    if kind == "stride":
        net = ring(n) if seed % 2 else torus(3, max(3, n // 3))
    else:
        net = random_connected(n, p=0.35, seed=seed)
    csr = CSRAdjacency(net)
    edges = sorted(tuple(sorted(e)) for e in net.edges())
    if kind == "has-empty":
        victim = seed % net.n
        csr.apply_delta([e for e in edges if victim in e], [])
    elif kind == "zero-edge":
        csr.apply_delta(edges, [])
    return csr.tile(copies)


@st.composite
def layout_and_selection(draw):
    kind = draw(st.sampled_from(LAYOUTS))
    csr = build_layout(
        kind,
        n=draw(st.integers(4, 14)),
        seed=draw(st.integers(0, 50)),
        copies=draw(st.sampled_from((1, 1, 3))),
    )
    # A small random graph can come out regular; it then is no
    # irregular layout.
    assume(bool(csr._stride) == (kind == "stride"))
    assert csr._has_empty == (kind in ("has-empty", "zero-edge"))
    idx = draw(st.lists(st.integers(0, csr.n - 1), unique=True, max_size=csr.n))
    return csr, np.array(idx, dtype=np.int64), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layout_and_selection())
def test_row_reductions_equal_whole_graph_at_idx(case):
    csr, idx, seed = case
    rng = np.random.default_rng(seed)
    m = csr.indices.shape[0]
    flags = rng.random(m) < 0.5
    values = rng.integers(-40, 40, size=m)
    mask = rng.random(m) < 0.6
    rows = csr.rows(idx)
    pos = rows.pos

    # The layout: slots of idx, row after row.
    want_pos = [
        p for u in idx for p in range(csr.indptr[u], csr.indptr[u + 1])
    ]
    assert pos.tolist() == want_pos
    np.testing.assert_array_equal(rows.nbr, csr.indices[pos])
    column = rng.integers(0, 100, size=csr.n)
    np.testing.assert_array_equal(
        np.repeat(column[idx], rows.reps), csr.own(column)[pos]
    )

    for name in ("count", "all", "any"):
        got = getattr(rows, name)(flags[pos])
        want = getattr(csr, f"{name}_neigh")(flags)[idx]
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert got.dtype == want.dtype
    for name, default in (("min", 99), ("max", -99)):
        whole = getattr(csr, f"{name}_neigh")
        got = getattr(rows, name)(values[pos], mask[pos], default)
        np.testing.assert_array_equal(got, whole(values, mask, default)[idx])
        got = getattr(rows, name)(values[pos], None, default)
        np.testing.assert_array_equal(got, whole(values, None, default)[idx])


def at_oracle(fold, csr, values, mask, default):
    """The scatter formulation the irregular min/max folds replaced."""
    info = np.iinfo(values.dtype)
    identity = info.max if fold is np.minimum else info.min
    out = np.full(csr.n, identity, dtype=values.dtype)
    fold.at(out, csr.edge_src, np.where(mask, values, identity))
    found = np.zeros(csr.n, dtype=np.bool_)
    np.logical_or.at(found, csr.edge_src, mask)
    return np.where(found, out, default)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.integers(0, 1000), st.integers(0, 2**32 - 1))
def test_irregular_folds_match_the_at_oracle(n, graph_seed, seed):
    csr = CSRAdjacency(random_connected(n, p=0.3, seed=graph_seed))
    assert not csr._has_empty  # connected: the reduceat path
    rng = np.random.default_rng(seed)
    m = csr.indices.shape[0]
    values = rng.integers(-10**6, 10**6, size=m)
    mask = rng.random(m) < 0.5
    np.testing.assert_array_equal(
        csr.min_neigh(values, mask, 7), at_oracle(np.minimum, csr, values, mask, 7)
    )
    np.testing.assert_array_equal(
        csr.max_neigh(values, mask, -7), at_oracle(np.maximum, csr, values, mask, -7)
    )
