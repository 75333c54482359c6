"""Unit tests for the rule-set layer of :mod:`repro.ir`.

Conditional actions, fast paths, clean gating of input rule sets,
collateral merging, tiling refusal, declaration errors, the
``python -m repro.ir check`` lint itself, and the shape of the generated
actions.
"""

import re
from random import Random

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.exceptions import AlgorithmError
from repro.core.kernel.schema import Schema, Var
from repro.ir import (
    Assign,
    FastPath,
    InputRuleSet,
    Rule,
    RuleSet,
    col,
    const,
    merge_rule_sets,
    param,
)
from repro.ir.check import (
    check_algorithm,
    check_bind_prologue,
    main,
    run_check,
)
from repro.ir.registry import registered_algorithms
from repro.topology import ring

C, D = "c", "d"


def network():
    return ring(6)


def configuration(values_c, values_d=None):
    n = len(values_c)
    values_d = values_d or [0] * n
    return Configuration(
        [{C: c, D: d} for c, d in zip(values_c, values_d)]
    )


def schema():
    return Schema(Var.int(C), Var.int(D))


# ----------------------------------------------------------------------
# Conditional actions
# ----------------------------------------------------------------------

def test_conditional_assign_only_fires_where_condition_holds():
    net = network()
    rule_set = RuleSet(
        "cond", schema(),
        [Rule("r", col(C) == col(C),
              [Assign(C, 0, where=col(C) > 2), Assign(D, col(C) + 1)])],
    )
    cfg = configuration([0, 1, 2, 3, 4, 5])

    dict_program = rule_set.compile_dict(net)
    # Below the threshold the update omits C entirely (dict contract).
    assert dict_program.execute("r", cfg, 1) == {D: 2}
    assert dict_program.execute("r", cfg, 4) == {C: 0, D: 5}

    kernel = rule_set.compile_kernel(net)
    cols = kernel.schema.encode(cfg)
    write = {name: column.copy() for name, column in cols.items()}
    kernel.apply("r", np.arange(net.n), cols, write)
    assert list(write[C]) == [0, 1, 2, 0, 0, 0]
    assert list(write[D]) == [1, 2, 3, 4, 5, 6]


# ----------------------------------------------------------------------
# Fast path
# ----------------------------------------------------------------------

def _fast_path_rule_set():
    # Full guards and fast guards agree whenever the trigger holds
    # everywhere (the author's obligation, as in SDR's all-C attractor).
    full_r1 = (col(C) == 0) & (col(D) > 2)
    rules = [
        Rule("r1", full_r1, [Assign(D, col(D) - 1)]),
        Rule("r2", col(C) != 0, [Assign(C, 0)]),
    ]
    return RuleSet(
        "fast", schema(), rules,
        fast_path=FastPath(col(C) == 0, {"r1": col(D) > 2}),
    )


@pytest.mark.parametrize(
    "values_c", [[0] * 6, [0, 0, 1, 0, 0, 0]], ids=["trigger", "full"]
)
def test_fast_path_masks_match_dict_guards(values_c):
    net = network()
    rule_set = _fast_path_rule_set()
    cfg = configuration(values_c, [1, 2, 3, 4, 5, 6])
    dict_program = rule_set.compile_dict(net)
    kernel = rule_set.compile_kernel(net)
    masks = kernel.guard_masks(kernel.schema.encode(cfg))
    for label in rule_set.rule_labels:
        mask = masks.get(label)
        got = [False] * net.n if mask is None else [bool(v) for v in mask]
        want = [dict_program.guard(label, cfg, u) for u in net.processes()]
        assert got == want, label


def test_fast_path_omits_unlisted_rules_when_triggered():
    net = network()
    kernel = _fast_path_rule_set().compile_kernel(net)
    cols = kernel.schema.encode(configuration([0] * 6, [9] * 6))
    masks = kernel.guard_masks(cols)
    assert list(masks["r1"]) == [True] * net.n
    unlisted = masks.get("r2")
    assert unlisted is None or not unlisted.any()


# ----------------------------------------------------------------------
# Input rule sets: clean gating and the reset surface
# ----------------------------------------------------------------------

def _input_rule_set():
    return InputRuleSet(
        "toy-input", Schema(Var.int(C)),
        [
            Rule("step", col(C) < 5, [Assign(C, col(C) + 1)],
                 clean_gated=True),
            Rule("fix", col(C) > 10, [Assign(C, 0)]),
        ],
        icorrect=col(C) <= 10,
        reset=col(C) == 0,
        reset_action=[Assign(C, 0)],
    )


def test_clean_gating_ands_host_mask_onto_gated_rules_only():
    net = network()
    input_rule_set = _input_rule_set()
    cfg = Configuration([{C: v} for v in [0, 3, 7, 11, 4, 12]])
    standalone = input_rule_set.compile_kernel(net)
    cols = standalone.schema.encode(cfg)

    ungated = standalone.guard_masks(cols)
    assert list(ungated["step"]) == [True, True, False, False, True, False]
    assert list(ungated["fix"]) == [False, False, False, True, False, True]

    clean = param("clean")
    rules = input_rule_set.gated_rules(clean)
    assert [r.label for r in rules] == ["step", "fix"]
    # Actions pass through untouched; ungated guards are the same nodes.
    assert [r.action for r in rules] == [r.action for r in input_rule_set.rules]
    assert rules[1].guard is input_rule_set.rules[1].guard

    host = RuleSet("toy-host", input_rule_set.schema, rules)
    clean_values = (True, False, True, True, False, True)
    gated = host.compile_kernel(net, {"clean": clean_values}).guard_masks(cols)
    assert list(gated["step"]) == [True, False, False, False, False, False]
    # Ungated rules ignore the host's cleanliness mask.
    assert list(gated["fix"]) == list(ungated["fix"])


def test_input_predicates_and_reset_action_lower_identically():
    net = network()
    rule_set = _input_rule_set()
    cfg = Configuration([{C: v} for v in [0, 3, 7, 11, 4, 12]])
    dict_program = rule_set.compile_dict(net)
    program = rule_set.compile_kernel(net)
    cols = program.schema.encode(cfg)

    _, preds = program.evaluate(cols)
    for name in ("icorrect", "reset"):
        mask = preds[name]
        assert [bool(v) for v in mask] == [
            dict_program.predicate(name, cfg, u) for u in net.processes()
        ]

    # A host embeds the reset action into one of its own rules.
    host = RuleSet("toy-host", rule_set.schema,
                   [Rule("do_reset", col(C) >= 0, rule_set.reset_action)])
    write = {name: column.copy() for name, column in cols.items()}
    host.compile_kernel(net).apply("do_reset", np.array([2, 3]), cols, write)
    assert list(write[C]) == [0, 3, 0, 0, 4, 12]


# ----------------------------------------------------------------------
# Collateral merge
# ----------------------------------------------------------------------

def test_merge_rule_sets_prefixes_labels_and_concatenates_schemas():
    net = network()
    a = RuleSet("a", Schema(Var.int(C)),
                [Rule("inc", col(C) < 3, [Assign(C, col(C) + 1)])])
    b = RuleSet("b", Schema(Var.int(D)),
                [Rule("dec", col(D) > 0, [Assign(D, col(D) - 1)])])
    merged = merge_rule_sets("m", [("a", a), ("b", b)])
    assert merged.rule_labels == ("a:inc", "b:dec")
    assert merged.schema.names == (C, D)

    cfg = configuration([0, 1, 2, 3, 4, 5], [2, 0, 1, 0, 3, 0])
    dict_program = merged.compile_dict(net)
    masks = merged.compile_kernel(net).guard_masks(merged.schema.encode(cfg))
    for u in net.processes():
        assert dict_program.guard("a:inc", cfg, u) == (cfg[u][C] < 3)
        assert dict_program.guard("b:dec", cfg, u) == (cfg[u][D] > 0)
        assert bool(masks["a:inc"][u]) == (cfg[u][C] < 3)
        assert bool(masks["b:dec"][u]) == (cfg[u][D] > 0)


def test_merge_propagates_tile_checks():
    net = network()
    a = RuleSet("a", Schema(Var.int(C)),
                [Rule("inc", col(C) < 3, [Assign(C, col(C) + 1)])],
                tile_check=lambda params, processes: processes <= 2 * net.n)
    b = RuleSet("b", Schema(Var.int(D)),
                [Rule("dec", col(D) > 0, [Assign(D, col(D) - 1)])])
    merged = merge_rule_sets("m", [("a", a), ("b", b)])
    kernel = merged.compile_kernel(net)
    assert kernel.tiled(2) is not None
    assert kernel.tiled(3) is None  # beyond the component's bound


# ----------------------------------------------------------------------
# Tiling refusal
# ----------------------------------------------------------------------

def test_tile_check_refuses_oversized_layouts():
    net = network()
    rule_set = RuleSet(
        "bounded", schema(),
        [Rule("r", col(C) > 0, [Assign(C, 0)])],
        # The check sees the total number of processes of the layout:
        # four tiled copies (trials) of the network at most.
        tile_check=lambda params, processes: processes <= 4 * net.n,
    )
    kernel = rule_set.compile_kernel(net)
    assert kernel.tiled(4) is not None
    assert kernel.tiled(5) is None
    # Tiling composes: a tiled program re-tiles against the *total*.
    twice = kernel.tiled(2)
    assert twice.tiled(2) is not None
    assert twice.tiled(3) is None


# ----------------------------------------------------------------------
# Declaration errors
# ----------------------------------------------------------------------

def test_duplicate_rule_labels_rejected():
    with pytest.raises(AlgorithmError, match="duplicate"):
        RuleSet("dup", schema(), [
            Rule("r", col(C) > 0, [Assign(C, 0)]),
            Rule("r", col(C) < 0, [Assign(C, 1)]),
        ])


def test_undeclared_assignment_target_rejected():
    with pytest.raises(AlgorithmError, match="undeclared"):
        RuleSet("stray", Schema(Var.int(C)),
                [Rule("r", col(C) > 0, [Assign("nope", const(1))])])


def test_params_are_named_and_bound_per_program():
    rule_set = RuleSet(
        "named", schema(),
        [Rule("r", param("limit") > col(C), [Assign(D, param("limit"))])],
    )
    assert rule_set.param_names == ("limit",)
    net = network()
    cfg = configuration([0, 1, 2, 3, 4, 5])
    for limit in ((3,) * 6, (1, 2, 3, 4, 5, 6)):
        kernel = rule_set.compile_kernel(net, {"limit": limit})
        dict_program = rule_set.compile_dict(net, {"limit": limit})
        mask = kernel.guard_masks(kernel.schema.encode(cfg))["r"]
        assert list(mask) == [limit[u] > u for u in range(6)]
        assert [dict_program.guard("r", cfg, u) for u in range(6)] == list(mask)
    with pytest.raises(AlgorithmError, match="values for 6 processes"):
        rule_set.compile_kernel(net, {"limit": (1, 2)})


@pytest.mark.parametrize("params,word", [
    ({}, "missing"), ({"limit": (0,) * 6, "cap": (0,) * 6}, "unexpected"),
])
def test_missing_or_extra_params_name_the_rule_set(params, word):
    rule_set = RuleSet("named", schema(),
                       [Rule("r", param("limit") > col(C), [Assign(C, 0)])])
    for compile_ in (rule_set.compile_kernel, rule_set.compile_dict):
        with pytest.raises(AlgorithmError, match=f"^named: {word} params"):
            compile_(network(), params)


def test_param_takes_a_name_not_values():
    with pytest.raises(AlgorithmError, match="takes a name"):
        param((1, 2, 3))


def test_rule_set_of_builds_each_shape_once():
    from repro.ir import rule_set_of
    from repro.unison.kernelized import unison_rule_set

    a = rule_set_of(unison_rule_set, 7)
    assert rule_set_of(unison_rule_set, 7) is a
    assert rule_set_of(unison_rule_set, 8) is not a
    # One shape, two networks: one rule set, one generated code.
    small = a.compile_kernel(ring(6))
    large = a.compile_kernel(network())
    assert small._code is large._code is a.kernel_code()
    assert small.csr.n == 6


# ----------------------------------------------------------------------
# The check lint
# ----------------------------------------------------------------------

def test_run_check_passes_on_every_registered_rule_set():
    lines = []
    assert run_check(out=lines.append) == 0
    assert lines[-1].startswith("all registered rule sets")
    assert main(["check"]) == 0


def test_check_flags_missing_rule_set():
    from repro.baselines.bfs_tree import BfsTree
    from repro.topology import by_name

    class Unported(BfsTree):
        name = "bfs-tree-unported"

        def rule_set(self):
            return None

    problems = check_algorithm("unported", Unported(by_name("ring", 6)))
    assert problems and "no IR definition" in problems[0]


def test_check_flags_guard_drift():
    from repro.baselines.bfs_tree import BfsTree, DIST_VAR
    from repro.topology import by_name

    class Drifted(BfsTree):
        name = "bfs-tree-drifted"

        def rule_set(self):
            honest = super().rule_set()
            never = col(DIST_VAR) != col(DIST_VAR)
            return RuleSet(
                honest.name, honest.schema,
                [Rule(r.label, never, r.action) for r in honest.rules],
            )

    problems = check_algorithm("drifted", Drifted(by_name("ring", 6)))
    assert problems and any("guard" in p for p in problems)


def test_check_flags_a_stale_memo(monkeypatch):
    """A rule whose ``apply`` misses a column it changed would leave the
    memoised ``evaluate`` stale: the lint's memo replay says so."""
    label, factory = next(
        (label, f) for label, f in registered_algorithms("ring")
        if label == "sdr(unison)"
    )
    algorithm = factory()
    code = algorithm.rule_set().kernel_code()
    honest = code.apply_fns["rule_U"]
    monkeypatch.setitem(code.apply_fns, "rule_U",
                        lambda *args: honest(*args) & 0)
    problems = check_algorithm(label, algorithm)
    assert any("memoised" in p for p in problems)


def test_check_flags_params_read_outside_the_bind_prologue(monkeypatch):
    label, factory = next(
        (label, f) for label, f in registered_algorithms("ring")
        if label == "sdr(fga)"
    )
    algorithm = factory()
    code = algorithm.rule_set().kernel_code()
    assert check_bind_prologue(label, algorithm.rule_set()) == []
    monkeypatch.setattr(code, "source", code.source.replace(
        "def apply_0(idx, read, write, C):",
        "def apply_0(idx, read, write, C):\n    _f = C._params['f']",
    ))
    problems = check_bind_prologue(label, algorithm.rule_set())
    assert problems and "apply_0" in problems[0]


def test_check_flags_action_drift():
    from repro.baselines.bfs_tree import BfsTree, DIST_VAR
    from repro.topology import by_name

    class Drifted(BfsTree):
        name = "bfs-tree-action-drifted"

        def rule_set(self):
            honest = super().rule_set()
            return RuleSet(
                honest.name, honest.schema,
                [Rule(r.label, r.guard, [Assign(DIST_VAR, col(DIST_VAR) + 1)])
                 for r in honest.rules],
            )

    problems = check_algorithm("drifted", Drifted(by_name("ring", 6)))
    assert any("kernel action" in p for p in problems)


# ----------------------------------------------------------------------
# Generated actions fold only the rows they update
# ----------------------------------------------------------------------

def _functions(source):
    return {
        chunk.split("(", 1)[0].removeprefix("def "): chunk
        for chunk in source.split("\n\n")
    }


def test_actions_never_call_a_whole_graph_reduction():
    whole = re.compile(r"\b(count|all|any|min|max)_neigh\(")
    row_local = re.compile(r"\.(count|all|any|min|max)\(")
    guard_sites = action_sites = 0
    for label, factory in registered_algorithms():
        functions = _functions(factory().rule_set().kernel_code().source)
        for name, body in functions.items():
            if name.startswith("apply_"):
                assert not whole.search(body), f"{label}: {name} folds the graph"
                assert body.count(".rows(idx)") <= 1, f"{label}: {name}"
                action_sites += len(row_local.findall(body))
            else:
                guard_sites += len(whole.findall(body))
    # Guards still fold the whole graph; actions do reduce, row-locally.
    assert guard_sites > 0 and action_sites > 0
