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
from repro.ir.check import check_algorithm, main, run_check
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
        "cond", net, schema(),
        [Rule("r", col(C) == col(C),
              [Assign(C, 0, where=col(C) > 2), Assign(D, col(C) + 1)])],
    )
    cfg = configuration([0, 1, 2, 3, 4, 5])

    dict_program = rule_set.compile_dict()
    # Below the threshold the update omits C entirely (dict contract).
    assert dict_program.execute("r", cfg, 1) == {D: 2}
    assert dict_program.execute("r", cfg, 4) == {C: 0, D: 5}

    kernel = rule_set.compile_kernel()
    cols = kernel.schema.encode(cfg)
    write = {name: column.copy() for name, column in cols.items()}
    kernel.apply("r", np.arange(net.n), cols, write)
    assert list(write[C]) == [0, 1, 2, 0, 0, 0]
    assert list(write[D]) == [1, 2, 3, 4, 5, 6]


# ----------------------------------------------------------------------
# Fast path
# ----------------------------------------------------------------------

def _fast_path_rule_set(net):
    # Full guards and fast guards agree whenever the trigger holds
    # everywhere (the author's obligation, as in SDR's all-C attractor).
    full_r1 = (col(C) == 0) & (col(D) > 2)
    rules = [
        Rule("r1", full_r1, [Assign(D, col(D) - 1)]),
        Rule("r2", col(C) != 0, [Assign(C, 0)]),
    ]
    return RuleSet(
        "fast", net, schema(), rules,
        fast_path=FastPath(col(C) == 0, {"r1": col(D) > 2}),
    )


@pytest.mark.parametrize(
    "values_c", [[0] * 6, [0, 0, 1, 0, 0, 0]], ids=["trigger", "full"]
)
def test_fast_path_masks_match_dict_guards(values_c):
    net = network()
    rule_set = _fast_path_rule_set(net)
    cfg = configuration(values_c, [1, 2, 3, 4, 5, 6])
    dict_program = rule_set.compile_dict()
    kernel = rule_set.compile_kernel()
    masks = kernel.guard_masks(kernel.schema.encode(cfg))
    for label in rule_set.rule_labels:
        mask = masks.get(label)
        got = [False] * net.n if mask is None else [bool(v) for v in mask]
        want = [dict_program.guard(label, cfg, u) for u in net.processes()]
        assert got == want, label


def test_fast_path_omits_unlisted_rules_when_triggered():
    net = network()
    kernel = _fast_path_rule_set(net).compile_kernel()
    cols = kernel.schema.encode(configuration([0] * 6, [9] * 6))
    masks = kernel.guard_masks(cols)
    assert list(masks["r1"]) == [True] * net.n
    unlisted = masks.get("r2")
    assert unlisted is None or not unlisted.any()


# ----------------------------------------------------------------------
# Input rule sets: clean gating and the reset surface
# ----------------------------------------------------------------------

def _input_rule_set(net):
    return InputRuleSet(
        "toy-input", net, Schema(Var.int(C)),
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
    input_rule_set = _input_rule_set(net)
    cfg = Configuration([{C: v} for v in [0, 3, 7, 11, 4, 12]])
    standalone = input_rule_set.compile_kernel()
    cols = standalone.schema.encode(cfg)

    ungated = standalone.guard_masks(cols)
    assert list(ungated["step"]) == [True, True, False, False, True, False]
    assert list(ungated["fix"]) == [False, False, False, True, False, True]

    clean = param((True, False, True, True, False, True), "clean")
    rules = input_rule_set.gated_rules(clean)
    assert [r.label for r in rules] == ["step", "fix"]
    # Actions pass through untouched; ungated guards are the same nodes.
    assert [r.action for r in rules] == [r.action for r in input_rule_set.rules]
    assert rules[1].guard is input_rule_set.rules[1].guard

    host = RuleSet("toy-host", net, input_rule_set.schema, rules)
    gated = host.compile_kernel().guard_masks(cols)
    assert list(gated["step"]) == [True, False, False, False, False, False]
    # Ungated rules ignore the host's cleanliness mask.
    assert list(gated["fix"]) == list(ungated["fix"])


def test_input_predicates_and_reset_action_lower_identically():
    net = network()
    rule_set = _input_rule_set(net)
    cfg = Configuration([{C: v} for v in [0, 3, 7, 11, 4, 12]])
    dict_program = rule_set.compile_dict()
    program = rule_set.compile_kernel()
    cols = program.schema.encode(cfg)

    _, preds = program.evaluate(cols)
    for name in ("icorrect", "reset"):
        mask = preds[name]
        assert [bool(v) for v in mask] == [
            dict_program.predicate(name, cfg, u) for u in net.processes()
        ]

    # A host embeds the reset action into one of its own rules.
    host = RuleSet("toy-host", net, rule_set.schema,
                   [Rule("do_reset", col(C) >= 0, rule_set.reset_action)])
    write = {name: column.copy() for name, column in cols.items()}
    host.compile_kernel().apply("do_reset", np.array([2, 3]), cols, write)
    assert list(write[C]) == [0, 3, 0, 0, 4, 12]


# ----------------------------------------------------------------------
# Collateral merge
# ----------------------------------------------------------------------

def test_merge_rule_sets_prefixes_labels_and_concatenates_schemas():
    net = network()
    a = RuleSet("a", net, Schema(Var.int(C)),
                [Rule("inc", col(C) < 3, [Assign(C, col(C) + 1)])])
    b = RuleSet("b", net, Schema(Var.int(D)),
                [Rule("dec", col(D) > 0, [Assign(D, col(D) - 1)])])
    merged = merge_rule_sets("m", net, [("a", a), ("b", b)])
    assert merged.rule_labels == ("a:inc", "b:dec")
    assert merged.schema.names == (C, D)

    cfg = configuration([0, 1, 2, 3, 4, 5], [2, 0, 1, 0, 3, 0])
    dict_program = merged.compile_dict()
    masks = merged.compile_kernel().guard_masks(merged.schema.encode(cfg))
    for u in net.processes():
        assert dict_program.guard("a:inc", cfg, u) == (cfg[u][C] < 3)
        assert dict_program.guard("b:dec", cfg, u) == (cfg[u][D] > 0)
        assert bool(masks["a:inc"][u]) == (cfg[u][C] < 3)
        assert bool(masks["b:dec"][u]) == (cfg[u][D] > 0)


def test_merge_propagates_tile_checks():
    net = network()
    a = RuleSet("a", net, Schema(Var.int(C)),
                [Rule("inc", col(C) < 3, [Assign(C, col(C) + 1)])],
                tile_check=lambda copies: copies <= 2)
    b = RuleSet("b", net, Schema(Var.int(D)),
                [Rule("dec", col(D) > 0, [Assign(D, col(D) - 1)])])
    merged = merge_rule_sets("m", net, [("a", a), ("b", b)])
    kernel = merged.compile_kernel()
    assert kernel.tiled(2) is not None
    assert kernel.tiled(3) is None  # beyond the component's bound


# ----------------------------------------------------------------------
# Tiling refusal
# ----------------------------------------------------------------------

def test_tile_check_refuses_oversized_layouts():
    net = network()
    rule_set = RuleSet(
        "bounded", net, schema(),
        [Rule("r", col(C) > 0, [Assign(C, 0)])],
        # The check sees the total number of tiled copies (trials).
        tile_check=lambda copies: copies <= 4,
    )
    kernel = rule_set.compile_kernel()
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
    net = network()
    with pytest.raises(AlgorithmError, match="duplicate"):
        RuleSet("dup", net, schema(), [
            Rule("r", col(C) > 0, [Assign(C, 0)]),
            Rule("r", col(C) < 0, [Assign(C, 1)]),
        ])


def test_undeclared_assignment_target_rejected():
    net = network()
    with pytest.raises(AlgorithmError, match="undeclared"):
        RuleSet("stray", net, Schema(Var.int(C)),
                [Rule("r", col(C) > 0, [Assign("nope", const(1))])])


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
                honest.name, honest.network, honest.schema,
                [Rule(r.label, never, r.action) for r in honest.rules],
            )

    problems = check_algorithm("drifted", Drifted(by_name("ring", 6)))
    assert problems and any("guard" in p for p in problems)


def test_check_flags_action_drift():
    from repro.baselines.bfs_tree import BfsTree, DIST_VAR
    from repro.topology import by_name

    class Drifted(BfsTree):
        name = "bfs-tree-action-drifted"

        def rule_set(self):
            honest = super().rule_set()
            return RuleSet(
                honest.name, honest.network, honest.schema,
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
