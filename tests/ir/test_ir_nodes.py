"""Unit tests: every IR node lowers identically under both compilers.

Each test builds a one-rule :class:`~repro.ir.RuleSet` whose action
stores the expression under test, evaluates it per process with the dict
interpreter, with the generated kernel, and with the kernel's
``tiled()`` form (several identical trials), and asserts the lowerings
agree value for value.  Tile-variant nodes (``proc_index``, ``nprocs``,
neighbor indices, composite-key argmin indices) state their expected
per-trial offset explicitly — that offset *is* the globalization
contract the batched engine relies on.

Kernel actions evaluate neighbourhood reductions over the CSR rows of
the selected processes only, so every lowering is applied at several
selections (everyone, one process, a random strict subset, nobody) on
three CSR layouts: a stride-regular ring, an irregular random graph, and
that graph with an isolated process (the empty-row layout churn leaves).
"""

from random import Random

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.kernel.schema import Schema, Var
from repro.ir import (
    Assign,
    Rule,
    RuleSet,
    absval,
    all_neighbors,
    any_neighbors,
    argmax_over_neighbors,
    argmin_over_neighbors,
    col,
    const,
    count_neighbors,
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
    sign,
    where,
)
from repro.topology import random_connected, ring

X, Y, PTR, OUT = "x", "y", "ptr", "out"
COPIES = 3
#: The process the ``isolated`` layout cuts off.
ISOLATED = 4
#: Pre-step value of ``OUT`` at process ``u`` — distinct from every
#: value an expression under test produces, so untouched rows show.
UNTOUCHED = 10**6


def network():
    # Irregular degrees exercise the CSR reductions harder than a ring.
    return random_connected(9, p=0.4, seed=3)


def layouts():
    """``(name, network, drops)``: drop ``drops`` (undirected pairs) from
    the network and, via ``CSRAdjacency.apply_delta``, from the compiled
    kernel's CSR."""
    isolated = network()
    cut = [tuple(sorted(e)) for e in isolated.edges() if ISOLATED in e]
    return [
        ("random", network(), []),
        ("ring", ring(9), []),
        ("isolated", isolated, cut),
    ]


def selections(n, rng):
    """Everyone, one process, a random strict subset, nobody."""
    strict = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
    return [
        np.arange(n),
        np.array([int(rng.integers(n))]),
        np.sort(strict),
        np.array([], dtype=np.int64),
    ]


def configuration(net, seed=0):
    rng = Random(seed)
    n = net.n
    states = [
        {
            X: rng.randrange(-6, 12),
            Y: rng.random() < 0.5,
            PTR: rng.choice([None] + list(range(n))),
            OUT: UNTOUCHED + u,
        }
        for u in range(n)
    ]
    states[0][PTR] = None  # at least one ⊥ pointer, whatever the seed
    return Configuration(states)


def apply_at(program, idx, cols):
    """``OUT`` after applying the program's rule at ``idx``."""
    write = {name: column.copy() for name, column in cols.items()}
    program.apply("r", idx.astype(np.int64), cols, write)
    return [int(v) for v in write[OUT]]


def lowerings(expr, *, seed=0, tiled_block=None, params=None):
    """Evaluate ``expr`` per process under all three lowerings, with
    ``params`` (param name → one value per process) bound.

    On every layout and at every selection, asserts that the flat kernel
    writes exactly the dict interpreter's values at the selected
    processes and leaves every other row untouched, and that every tiled
    block does the same with ``tiled_block`` (a ``(base_vals, trial, n)
    -> expected`` map; identity by default).  Returns the dict values on
    the ``random`` layout.
    """
    rng = np.random.default_rng(seed)
    schema = Schema(Var.int(X), Var.bool(Y), Var.opt_index(PTR), Var.int(OUT))
    result = None
    for name, net, drops in layouts():
        cfg = configuration(net, seed)
        n = net.n
        rule_set = RuleSet(
            "node-test", schema,
            [Rule("r", col(X) == col(X), [Assign(OUT, expr)])],
        )
        kernel = rule_set.compile_kernel(net, params)
        if drops:
            net.apply_delta(drops, [])
            kernel.csr.apply_delta(drops, [])
            assert kernel.csr._has_empty
        dict_program = rule_set.compile_dict(net, params)
        dict_vals = [
            int(dict_program.execute("r", cfg, u)[OUT]) for u in net.processes()
        ]
        before = [UNTOUCHED + u for u in range(n)]
        sels = selections(n, rng)

        cols = kernel.schema.encode(cfg)
        for idx in sels:
            chosen = set(idx.tolist())
            want = [dict_vals[u] if u in chosen else before[u] for u in range(n)]
            assert apply_at(kernel, idx, cols) == want, (
                f"kernel lowering diverges from dict on {name} at {idx}"
            )

        tiled = kernel.tiled(COPIES)
        tcols = kernel.schema.encode_tiled([cfg] * COPIES)
        for i in range(len(sels)):
            # Block t takes a different kind of selection each round.
            block_sels = [sels[(i + t) % len(sels)] for t in range(COPIES)]
            idx = np.concatenate([s + t * n for t, s in enumerate(block_sels)])
            got = apply_at(tiled, idx, tcols)
            for t, sel in enumerate(block_sels):
                chosen = set(sel.tolist())
                expected = (
                    dict_vals if tiled_block is None
                    else tiled_block(dict_vals, t, n)
                )
                block_before = [int(v) for v in tcols[OUT][t * n:(t + 1) * n]]
                want = [
                    expected[u] if u in chosen else block_before[u]
                    for u in range(n)
                ]
                assert got[t * n:(t + 1) * n] == want, (
                    f"tiled block {t} diverges on {name} at {sel}"
                )
        if result is None:
            result = dict_vals
    return result


# ----------------------------------------------------------------------
# Process-space scalars
# ----------------------------------------------------------------------

def test_const_col_arithmetic():
    vals = lowerings(col(X) * 2 + const(7) - col(X) // 4)
    assert len(set(vals)) > 1  # the sample config actually varies


def test_mod_floordiv_match_numpy_on_negatives():
    # python // and % agree with numpy int64 on negative operands; the
    # dict interpreter leans on that (unison's congruence windows).
    lowerings(col(X) % 5)
    lowerings(col(X) // 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: col(X) == const(2),
        lambda: col(X) != const(2),
        lambda: col(X) < const(3),
        lambda: col(X) <= const(3),
        lambda: col(X) > const(3),
        lambda: col(X) >= const(3),
    ],
    ids=["eq", "ne", "lt", "le", "gt", "ge"],
)
def test_comparisons(make):
    vals = lowerings(where(make(), 1, 0))
    assert set(vals) <= {0, 1}


def test_boolean_connectives():
    flag = (col(X) > 0) & ~col(Y) | (col(X) % 2 == 0)
    lowerings(where(flag, 1, 0))


def test_unary_ops():
    lowerings(-col(X))
    lowerings(absval(col(X)))
    lowerings(sign(col(X)))


def test_min2_max2():
    lowerings(minimum(col(X), const(4)))
    lowerings(maximum(col(X), -col(X)))


def test_where_selects_per_process():
    vals = lowerings(where(col(Y), col(X), -col(X)))
    assert any(v < 0 for v in vals) and any(v > 0 for v in vals)


def test_param_is_per_process_and_tiles():
    net = network()
    values = tuple(range(10, 10 + net.n))
    lowerings(param("ids") + col(X), params={"ids": values})


def test_proc_index_and_nprocs_are_global_under_tiling():
    # In a tiled layout process w of trial t occupies slot t·n + w and
    # nprocs() is the *runtime* total — exactly what composite keys and
    # globalized opt_index columns need.
    lowerings(
        proc_index() + nprocs(),
        tiled_block=lambda base, t, n: [
            v + t * n + (COPIES - 1) * n for v in base
        ],
    )


# ----------------------------------------------------------------------
# Edge space: neigh/own lifts and reductions
# ----------------------------------------------------------------------

def test_all_any_count_neighbors():
    lowerings(where(all_neighbors(neigh(col(X)) <= own(col(X))), 1, 0))
    lowerings(where(any_neighbors(neigh(col(Y)) & ~own(col(Y))), 1, 0))
    vals = lowerings(count_neighbors(neigh(col(Y))))
    assert max(vals) >= 1


def test_min_max_over_neighbors_with_filter_and_default():
    lowerings(min_over_neighbors(neigh(col(X)), where=neigh(col(Y)), default=99))
    lowerings(max_over_neighbors(neigh(col(X)) - own(col(X)), default=-99))


def test_neigh_index_is_global_under_tiling():
    vals = lowerings(
        min_over_neighbors(neigh_index(), default=-1),
        tiled_block=lambda base, t, n: [v if v < 0 else v + t * n for v in base],
    )
    assert all(v >= 0 for v in vals)


def test_gather_follows_pointers():
    vals = lowerings(where(col(PTR) >= 0, gather(col(PTR), col(X)), const(-77)))
    assert -77 in vals  # the sample config has at least one ⊥ pointer


def test_argmin_key_and_index():
    choice = argmin_over_neighbors(neigh(col(X)), sentinel=10**9)
    # ``key`` decodes the sentinel (by the runtime NProcs) where no
    # neighbour exists, so it is only compared where one was found.
    lowerings(where(choice.found, choice.key, const(-1)))
    lowerings(where(choice.found, 1, 0))
    lowerings(
        choice.index,
        tiled_block=lambda base, t, n: [
            v if v < 0 else v + t * n for v in base
        ],
    )


def test_argmin_breaks_ties_toward_smallest_index():
    # Constant key → every neighbor ties → winner is the smallest index.
    choice = argmin_over_neighbors(neigh(const(5)), sentinel=10**9)
    net = network()
    vals = lowerings(
        choice.index,
        tiled_block=lambda base, t, n: [v if v < 0 else v + t * n for v in base],
    )
    assert vals == [min(net.neighbors(u)) for u in net.processes()]


def test_argmax_with_filter_reports_not_found():
    choice = argmax_over_neighbors(
        neigh(col(X)), where=neigh(col(Y)), sentinel=-1
    )
    vals = lowerings(
        choice.index,
        tiled_block=lambda base, t, n: [
            v if v < 0 else v + t * n for v in base
        ],
    )
    net = network()
    cfg = configuration(net)
    for u, got in zip(net.processes(), vals):
        candidates = [v for v in net.neighbors(u) if cfg[v][Y]]
        if not candidates:
            assert got == -1
        else:
            best = max(candidates, key=lambda v: (cfg[v][X], v))
            assert got == best


# ----------------------------------------------------------------------
# Guards: the mask path (not just actions) agrees per node too
# ----------------------------------------------------------------------

def test_guard_masks_match_dict_guards():
    net = network()
    cfg = configuration(net)
    schema = Schema(Var.int(X), Var.bool(Y), Var.opt_index(PTR), Var.int(OUT))
    guard = (col(X) % 3 == 0) | (col(Y) & any_neighbors(neigh(col(X)) > 5))
    rule_set = RuleSet(
        "guard-test", schema, [Rule("r", guard, [Assign(OUT, 1)])]
    )
    dict_program = rule_set.compile_dict(net)
    expected = [dict_program.guard("r", cfg, u) for u in net.processes()]

    kernel = rule_set.compile_kernel(net)
    cols = kernel.schema.encode(cfg)
    assert list(kernel.guard_masks(cols)["r"]) == expected

    n = net.n
    tiled = kernel.tiled(COPIES)
    tmask = tiled.guard_masks(kernel.schema.encode_tiled([cfg] * COPIES))["r"]
    for t in range(COPIES):
        assert list(tmask[t * n:(t + 1) * n]) == expected


def test_guards_with_rewritten_terms_match_dict_guards_on_every_layout():
    """A masked fold whose default is the int64 identity (lowered as one
    process-space ``where``, gather and unmasked fold), a sunk
    ``Neigh(x) <op> Const`` and a param-only neighbourhood term (bind
    prologue, recomputed when the CSR is rewired) agree with the dict
    guards — also after the kernel's CSR lost edges under it."""
    big = 2**63 - 1
    schema = Schema(Var.int(X), Var.bool(Y), Var.opt_index(PTR), Var.int(OUT))
    guard = (
        (min_over_neighbors(neigh(col(X)), where=neigh(col(Y)), default=big)
         < col(X))
        | (max_over_neighbors(neigh(col(X) * 2), where=neigh(~col(Y)),
                              default=-big - 1) > 7)
        | all_neighbors(neigh(col(X)) % 3 == 1)
    )
    # Reads no column: computed by the bind prologue.
    sees_isolated = any_neighbors(neigh(param("p")) == ISOLATED)
    rule_set = RuleSet("rewrite-test", schema, [
        Rule("r", guard, [Assign(OUT, 1)]),
        Rule("q", sees_isolated, [Assign(OUT, 2)]),
    ])
    source = rule_set.kernel_code().source
    assert "min_neigh(" in source and ", None, 9223372036854775807)" in source
    for name, net, drops in layouts():
        params = {"p": list(range(net.n))}
        kernel = rule_set.compile_kernel(net, params)
        cfg = configuration(net, seed=2)
        cols = kernel.schema.encode(cfg)
        kernel.guard_masks(cols)  # bind for the full layout first
        if drops:
            net.apply_delta(drops, [])
            kernel.csr.apply_delta(drops, [])
        dict_program = rule_set.compile_dict(net, params)
        masks = kernel.guard_masks(cols)
        for rule in ("r", "q"):
            expected = [dict_program.guard(rule, cfg, u) for u in net.processes()]
            assert list(masks[rule]) == expected, (name, rule)


def test_masked_folds_with_identity_defaults():
    lowerings(min_over_neighbors(neigh(col(X)), where=neigh(col(Y)),
                                 default=2**63 - 1))
    lowerings(max_over_neighbors(neigh(col(X) - 3), where=neigh(~col(Y)),
                                 default=-2**63))


def test_lifted_scalars_fold_as_constant_edge_vectors():
    # A constant-true flag counts the degree; a lifted constant is the
    # fold of any non-empty neighbourhood.
    net = network()
    assert lowerings(count_neighbors(neigh(const(True)))) == list(net.degrees)
    lowerings(min_over_neighbors(own(const(4)), default=-1))
    lowerings(
        max_over_neighbors(neigh(nprocs()), default=-1),
        tiled_block=lambda base, t, n: [
            v if v < 0 else v + (COPIES - 1) * n for v in base
        ],
    )
