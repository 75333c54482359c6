"""Property: one generated evaluation serves the guards and the predicates.

Every rule set compiles its guards *and* its declared predicates into one
``evaluate`` function whose temporaries are shared by structure.  For
every rule set in the :mod:`repro.ir` registry (the lint-only ones
included), on ring and random sample networks tiled 1–4 times, from
configurations that take the fast path and ones that take the general
path, this suite asserts:

* each predicate mask ``evaluate`` returns equals, process by process,
  the dict compilation of the same predicate, and a legitimacy
  predicate's all-process conjunction equals the algorithm's
  hand-written twin (``is_normal``, ``is_legitimate``) on every block;
* the guard masks it returns are ``guard_masks``' own;
* no generated function computes two temporaries with the same
  canonical right-hand side on one execution path.
"""

import re
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import exprs as E
from repro.ir.check import LEGITIMACY_TWINS, fast_path_column
from repro.ir.registry import SAMPLE_TOPOLOGIES, registered_algorithms

LABELS = [label for label, _ in registered_algorithms()]

_BUILT: dict = {}


def _algorithm(topology: str, label: str):
    key = (topology, label)
    if key not in _BUILT:
        _BUILT[key] = dict(registered_algorithms(topology))[label]()
    return _BUILT[key]


@settings(max_examples=60, deadline=None)
@given(
    topology=st.sampled_from(SAMPLE_TOPOLOGIES),
    label=st.sampled_from(LABELS),
    blocks=st.integers(1, 4),
    seeds=st.lists(st.integers(0, 2**16), min_size=4, max_size=4),
    clean=st.booleans(),
)
def test_evaluate_predicates_match_dict_and_hand_written_twins(
    topology, label, blocks, seeds, clean
):
    algo = _algorithm(topology, label)
    rule_set = algo.rule_set()
    base = algo.kernel_program()
    program = base.tiled(blocks) if blocks > 1 else base
    if program is None:  # the rule set's tile_check refuses this layout
        program, blocks = base, 1
    schema = base.schema
    cfgs = [algo.random_configuration(Random(s)) for s in seeds[:blocks]]
    fast = fast_path_column(rule_set)
    if clean and fast is not None:
        # Put every block on the fast path's attractor.
        name, code = fast
        encoded = [schema.encode(cfg) for cfg in cfgs]
        for cols in encoded:
            cols[name][:] = code
        cfgs = [schema.decode(cols) for cols in encoded]
    cols = schema.encode_tiled(cfgs) if blocks > 1 else schema.encode(cfgs[0])

    masks, preds = program.evaluate(cols)
    assert set(preds) == set(rule_set.predicates) == set(program.predicates)
    guard_masks = program.guard_masks(cols)
    assert masks.keys() == guard_masks.keys()
    for rule, mask in masks.items():
        np.testing.assert_array_equal(mask, guard_masks[rule])

    dict_program = rule_set.compile_dict(algo.network, algo.param_values())
    n = algo.network.n
    for name, mask in preds.items():
        assert mask.shape == (blocks * n,)
        twin = LEGITIMACY_TWINS.get(name)
        for t, cfg in enumerate(cfgs):
            want = [bool(dict_program.predicate(name, cfg, u)) for u in range(n)]
            got = mask[t * n : (t + 1) * n].tolist()
            assert got == want, (label, topology, name, t)
            if twin is not None:
                assert all(got) == getattr(algo, twin)(cfg), (label, name, t)


# ----------------------------------------------------------------------
# Structural CSE: no temporary computed twice on one path
# ----------------------------------------------------------------------
_TEMP = re.compile(r"^( +)(_t\d+) = (.*)$")
_REF = re.compile(r"_t\d+")
_BOUND = re.compile(r"^ +(.*) = C\._bound$")


def _paths(function: str) -> list[list[tuple[str, str]]]:
    """The temp assignments ``(name, rhs)`` along each execution path of
    one generated function: the general path, and the fast-path block
    (which also sees the temps assigned before its ``if``).  Names
    unpacked from the bind prologue are distinct inputs; signature
    blocks (``if _d & …``) and their memo reads are on every path."""
    prefix: list = []
    block: list = []
    general: list = []
    where = prefix
    for line in function.splitlines()[1:]:
        stripped = line.strip()
        if line.startswith("    if ") and not stripped.startswith("if _d "):
            where = block  # the fast-path test
            continue
        if where is block and stripped.startswith("return "):
            where = general
            continue
        bound = _BOUND.match(line)
        if bound is not None:
            names = [n.strip() for n in bound.group(1).split(",") if n.strip()]
            prefix += [(name, f"C._bound[{i}]") for i, name in enumerate(names)]
            continue
        match = _TEMP.match(line)
        if match is not None:
            where.append(match.groups()[1:])
    paths = [prefix + general]
    if block:
        paths.append(prefix + block)
    return paths


def _duplicates(path: list[tuple[str, str]]) -> list[str]:
    expanded: dict[str, str] = {}
    seen: dict[str, str] = {}
    clashes = []
    for name, rhs in path:
        canon = _REF.sub(lambda m: f"[{expanded[m.group(0)]}]", rhs)
        expanded[name] = canon
        if canon in seen:
            clashes.append(f"{seen[canon]} and {name}: {rhs}")
        else:
            seen[canon] = name
    return clashes


@pytest.mark.parametrize("topology", SAMPLE_TOPOLOGIES)
def test_no_generated_function_computes_a_temp_twice(topology):
    checked = 0
    for label, factory in registered_algorithms(topology):
        source = factory().rule_set().kernel_code().source
        for function in source.split("\n\n"):
            for path in _paths(function):
                assert not _duplicates(path), (label, function.split("(")[0])
                checked += 1
    assert checked


def test_structural_key_separates_bool_from_int():
    from repro.ir.kernelc import _Compiler

    comp = _Compiler(None)
    x = E.col("x")
    assert comp.key(x == 1) == comp.key(E.col("x") == 1)
    assert comp.key(x == True) != comp.key(x == 1)  # noqa: E712
    p, q = E.param("p"), E.param("q")
    assert comp.key(p) != comp.key(q)
    assert comp.key(p) == comp.key(E.param("p"))  # one name, one input


def test_ir_check_flags_a_predicate_mismatch(monkeypatch):
    from repro.ir.check import check_algorithm
    from repro.ir.kernelc import IRKernelProgram

    label, factory = next(
        (label, f) for label, f in registered_algorithms("ring")
        if label == "sdr(unison)"
    )
    assert check_algorithm(label, factory()) == []
    honest = IRKernelProgram.evaluate

    def drifted(self, cols, memo=None):
        masks, preds = honest(self, cols, memo)
        return masks, {name: ~mask for name, mask in preds.items()}

    monkeypatch.setattr(IRKernelProgram, "evaluate", drifted)
    problems = check_algorithm(label, factory())
    assert any("predicate 'normal'" in p for p in problems)


def test_ir_check_flags_a_predicate_its_hand_written_twin_rejects(monkeypatch):
    """SDR's ``normal`` without ``P_ICorrect`` (``status_c`` alone): both
    compilations still agree, only ``is_normal`` on a configuration put
    on the fast path's trigger tells them apart."""
    from repro.ir.check import check_algorithm

    from repro.ir import RuleSet

    algo = dict(registered_algorithms("ring"))["sdr(unison)"]()
    honest = algo.rule_set()
    rule_set = RuleSet(
        honest.name, honest.schema, honest.rules,
        predicates={**honest.predicates,
                    "normal": honest.predicates["status_c"]},
        fast_path=honest.fast_path, tile_check=honest.tile_check,
    )
    monkeypatch.setattr(algo, "rule_set", lambda: rule_set)
    problems = check_algorithm("sdr(unison)", algo)
    assert any("but is_normal says False" in p for p in problems)
