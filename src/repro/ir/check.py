"""The ``python -m repro.ir check`` lint.

For every registered algorithm (:mod:`repro.ir.registry`) the lint

* binds the declared rule set to the algorithm's network and param
  values on *both* backends;
* checks rule-label parity and variable parity with the algorithm's
  native dict contract;
* evaluates every guard and action of the compiled dict program against
  the handwritten ``guard``/``execute`` on the initial configuration,
  several random ones and, for a rule set with a fast path, random ones
  put on the fast path's trigger (:func:`fast_path_column`), value for
  value;
* evaluates the generated kernel's guard masks on the same
  configurations and checks them against the dict guards (mask
  coverage: an omitted mask key must mean an everywhere-false guard);
* runs every generated kernel action at all of its rule's enabled
  processes and at a random strict subset of them, and checks every
  register against the native ``execute`` — written ones at the
  selection, untouched ones everywhere else (actions lower their
  neighbourhood reductions row-locally, so a selection smaller than the
  enabled set is where a wrong row layout would show);
* for input rule sets, checks the ``icorrect``/``reset`` predicates
  (both compilations) against ``p_icorrect``/``p_reset``;
* checks every declared predicate the generated ``evaluate`` returns
  beside the guards (what the driver's probes and the adversary's stop
  test read) against the dict compilation, process by process, and
  each legitimacy predicate's all-process conjunction against the
  algorithm's hand-written twin (:data:`LEGITIMACY_TWINS`) — on the
  fast path and the general one;
* the guard memo: on every sampled configuration, each rule is applied
  at random processes in turn, the columns its ``apply`` reports changed
  (checked against the columns whose values did change) marked on a
  memo, and the memoised ``evaluate`` compared with a dense one, mask
  for mask and predicate for predicate (:func:`_check_memo`);
* the bind prologue: no generated function but ``bind`` reads
  ``C._params`` (:func:`check_bind_prologue`), so parameter-only terms
  are computed once per program, not per call;
* domain soundness: every value ``algorithm.random_state`` can draw must
  encode within its schema column's declared dtype and the tiled batch
  layout (:func:`check_domains`) — the fault injector corrupts registers
  by drawing from exactly this distribution and writing the encoded
  value straight into (possibly tiled) columns, so an out-of-domain draw
  here would mean vectorized corruption could overflow a tile.

Every check runs once per sample network family
(:data:`~repro.ir.registry.SAMPLE_TOPOLOGIES`: an irregular random graph
and a ring).  Exit status 0 when every rule set passes; 1 otherwise, with
one line per problem.  CI runs this as a build step, so an IR definition
that drifts from its dict twin fails the pipeline before any simulation
runs.
"""

from __future__ import annotations

from random import Random

import numpy as np

from . import exprs as E
from .registry import SAMPLE_TOPOLOGIES, registered_algorithms
from .rules import InputRuleSet

__all__ = ["LEGITIMACY_TWINS", "check_algorithm", "check_bind_prologue",
           "check_domains", "fast_path_column", "run_check", "main"]

#: Random configurations probed per algorithm (plus the initial one).
_SEEDS = (0, 1, 2)

#: Random-state draws per process for the domain-soundness lint.
_DOMAIN_DRAWS = 8

#: Legitimacy predicate name → the algorithm's hand-written
#: ``Configuration -> bool`` twin (the dict-tier oracle).
LEGITIMACY_TWINS = {"normal": "is_normal", "legitimate": "is_legitimate"}


def fast_path_column(rule_set):
    """``(column, code)`` when the rule set's fast-path trigger is
    ``Col == Const`` (the form every registered fast path uses), else
    ``None``."""
    fast = rule_set.fast_path
    if fast is None:
        return None
    trigger = fast.trigger
    if (isinstance(trigger, E.BinOp) and trigger.op == "=="
            and isinstance(trigger.a, E.Col)
            and isinstance(trigger.b, E.Const)):
        return trigger.a.name, trigger.b.value
    return None


def _configurations(algorithm, rule_set):
    """The initial configuration, random ones, and random ones put on the
    fast path's trigger (every other register left random)."""
    cfgs = [algorithm.initial_configuration()]
    cfgs += [algorithm.random_configuration(Random(s)) for s in _SEEDS]
    fast = fast_path_column(rule_set)
    if fast is not None:
        name, code = fast
        for cfg in cfgs[1:]:
            cols = rule_set.schema.encode(cfg)
            cols[name][:] = code
            cfgs.append(rule_set.schema.decode(cols))
    return cfgs


def check_algorithm(label: str, algorithm) -> list[str]:
    """All lint findings for one registered algorithm (empty = pass)."""
    problems: list[str] = []
    rule_set = algorithm.rule_set()
    if rule_set is None:
        return [f"{label}: rule_set() is None — no IR definition"]

    if rule_set.rule_labels != tuple(algorithm.rule_names()):
        problems.append(
            f"{label}: rule labels {list(rule_set.rule_labels)} != "
            f"algorithm rules {list(algorithm.rule_names())}"
        )
        return problems
    if set(rule_set.schema.names) != set(algorithm.variables()):
        problems.append(
            f"{label}: schema variables {sorted(rule_set.schema.names)} != "
            f"algorithm variables {sorted(algorithm.variables())}"
        )
        return problems

    network, params = algorithm.network, algorithm.param_values()
    dict_program = rule_set.compile_dict(network, params)
    kernel_program = rule_set.compile_kernel(network, params)
    if kernel_program is None:
        return [f"{label}: tile_check refuses the sample network's values"]

    problems += check_bind_prologue(label, rule_set)
    is_input = isinstance(rule_set, InputRuleSet)
    processes = algorithm.network.processes()
    for c, cfg in enumerate(_configurations(algorithm, rule_set)):
        # rule → {enabled process: native update}
        native: dict = {rule: {} for rule in rule_set.rule_labels}
        cols = kernel_program.schema.encode(cfg)
        masks, preds = kernel_program.evaluate(cols)
        stray = set(masks) - set(rule_set.rule_labels)
        if stray:
            problems.append(f"{label}: masks for unknown rules {stray}")

        for rule in rule_set.rule_labels:
            mask = masks.get(rule)
            for u in processes:
                want = algorithm.guard(rule, cfg, u)
                got = dict_program.guard(rule, cfg, u)
                if got != want:
                    problems.append(
                        f"{label}: dict guard {rule!r} at {u} (cfg {c}): "
                        f"IR={got} native={want}"
                    )
                    continue
                kernel_enabled = bool(mask[u]) if mask is not None else False
                if kernel_enabled != want:
                    problems.append(
                        f"{label}: kernel mask {rule!r} at {u} (cfg {c}): "
                        f"IR={kernel_enabled} native={want}"
                    )
                if want:
                    got_upd = dict_program.execute(rule, cfg, u)
                    want_upd = native[rule][u] = algorithm.execute(rule, cfg, u)
                    if got_upd != want_upd:
                        problems.append(
                            f"{label}: action {rule!r} at {u} (cfg {c}): "
                            f"IR={got_upd!r} native={want_upd!r}"
                        )

        rng = Random(c)
        for rule, updates in native.items():
            enabled = sorted(updates)
            selections = [enabled]
            if len(enabled) > 1:
                k = rng.randrange(1, len(enabled))
                selections.append(sorted(rng.sample(enabled, k)))
            for selection in selections:
                problems += _check_kernel_action(
                    label, kernel_program, rule, cfg, cols, updates,
                    selection, c,
                )

        if is_input:
            for name, native_pred in (
                ("icorrect", algorithm.p_icorrect),
                ("reset", algorithm.p_reset),
            ):
                if name not in rule_set.predicates:
                    problems.append(f"{label}: missing predicate {name!r}")
                    break
                kmask = preds[name]
                for u in processes:
                    want = native_pred(cfg, u)
                    if dict_program.predicate(name, cfg, u) != want:
                        problems.append(
                            f"{label}: dict predicate {name!r} at {u} (cfg {c})"
                        )
                    if bool(kmask[u]) != want:
                        problems.append(
                            f"{label}: kernel predicate {name!r} at {u} (cfg {c})"
                        )
        if set(preds) != set(rule_set.predicates):
            problems.append(f"{label}: evaluate returns predicates "
                            f"{sorted(preds)} != {sorted(rule_set.predicates)}")
        problems += _check_predicates(label, algorithm, dict_program, cfg,
                                      preds, c)
        problems += _check_memo(label, kernel_program, cols, c)
        if problems:
            break  # one configuration's findings are enough detail
    return problems


def _check_predicates(label, algorithm, dict_program, cfg, preds,
                      c) -> list[str]:
    """The predicates ``evaluate`` returned beside the guards (``preds``)
    against the dict compilation, process by process, and a legitimacy
    predicate's conjunction against the algorithm's hand-written twin."""
    for name, got in preds.items():
        want = [dict_program.predicate(name, cfg, u) for u in range(len(cfg))]
        if got.tolist() != want:
            return [f"{label}: predicate {name!r} (cfg {c}): evaluate "
                    f"{got.tolist()} dict {want}"]
        twin = LEGITIMACY_TWINS.get(name)
        if twin is None:
            continue
        everywhere, native = bool(got.all()), getattr(algorithm, twin)(cfg)
        if everywhere != native:
            return [f"{label}: predicate {name!r} (cfg {c}) holds everywhere: "
                    f"{everywhere}, but {twin} says {native}"]
    return []


def _check_memo(label, program, cols, c) -> list[str]:
    """Apply every rule in turn at random processes of ``cols``, mark on
    one memo the columns its ``apply`` reports changed, and compare the
    memoised ``evaluate`` of each successor with a dense one.  A column
    whose values changed but that the report misses is flagged at once."""
    rng = Random(c)
    n = program.csr.n
    memo = program.memo()
    program.evaluate(cols, memo)
    for rule in program.rules:
        idx = np.array(sorted(rng.sample(range(n), rng.randrange(1, n + 1))),
                       dtype=np.int64)
        nxt = {name: column.copy() for name, column in cols.items()}
        changed = program.apply(rule, idx, cols, nxt)
        missed = [name for name, bit in program.bits.items()
                  if not changed & bit
                  and not np.array_equal(cols[name], nxt[name])]
        if missed:
            return [f"{label}: memoised evaluation would miss {missed} "
                    f"changed by {rule!r} at {idx.tolist()} (cfg {c})"]
        memo.mark(changed)
        got, want = program.evaluate(nxt, memo), program.evaluate(nxt)
        for kind, a, b in (("mask", got[0], want[0]),
                           ("predicate", got[1], want[1])):
            wrong = [key for key in sorted(a.keys() | b.keys())
                     if key not in a or key not in b
                     or not np.array_equal(a[key], b[key])]
            if wrong:
                return [f"{label}: memoised {kind} {wrong[0]!r} after "
                        f"{rule!r} at {idx.tolist()} (cfg {c}) differs from "
                        "dense evaluation"]
        cols = nxt
    return []


def check_bind_prologue(label: str, rule_set) -> list[str]:
    """Lines of generated functions other than ``bind`` that read
    ``C._params``: parameter-only terms belong to the bind prologue."""
    problems = []
    for function in rule_set.kernel_code().source.split("\n\n"):
        name = function.split("(", 1)[0].removeprefix("def ")
        if name == "bind":
            continue
        for line in function.splitlines():
            if "C._params" in line:
                problems.append(f"{label}: {name} reads params outside the "
                                f"bind prologue: {line.strip()}")
    return problems


def _check_kernel_action(label, program, rule, cfg, cols, updates,
                         selection, c) -> list[str]:
    """Apply ``rule``'s kernel action at ``selection`` and compare every
    register with the native updates (the pre-step value elsewhere)."""
    write = {name: column.copy() for name, column in cols.items()}
    program.apply(rule, np.asarray(selection, dtype=np.int64), cols, write)
    chosen = set(selection)
    for var in program.schema.vars:
        column = write[var.name]
        for u in range(len(cfg)):
            want = cfg[u][var.name]
            if u in chosen:
                want = updates[u].get(var.name, want)
            got = var.decode_value(column[u])
            if got != want:
                where = "selected" if u in chosen else "unselected"
                return [
                    f"{label}: kernel action {rule!r} at {len(selection)} of "
                    f"{len(updates)} enabled (cfg {c}): {var.name} at "
                    f"{where} {u}: IR={got!r} native={want!r}"
                ]
    return []


def check_domains(label: str, algorithm) -> list[str]:
    """Domain-soundness findings: ``random_state`` draws vs the schema.

    The fault subsystem (:mod:`repro.faults.schedule`) corrupts a victim
    register by drawing a fresh value from ``algorithm.random_state`` and
    writing its *encoded* form directly into the kernel columns — on the
    batched path, into a ``(T, n)``-tiled column slice addressed as
    ``t*n + u``.  That is only safe if every drawable value

    * encodes without raising (enum values inside the declared domain),
    * fits the column dtype exactly (``int8`` for enum codes, ``int64``
      for ints — a draw outside int64 would wrap silently), and
    * for ``opt_index`` variables stays in ``{None} ∪ [0, n)``: the
      tiled layout stores process *indices* plus a block offset, so a
      local index ≥ n would alias a neighbouring trial's tile.
    """
    rule_set = algorithm.rule_set()
    if rule_set is None:
        return []  # no IR definition: reported by check_algorithm already
    problems: list[str] = []
    n = algorithm.network.n
    schema = rule_set.schema
    int64_info = (-(2**63), 2**63 - 1)
    for seed in _SEEDS:
        rng = Random(seed)
        for u in algorithm.network.processes():
            for _ in range(_DOMAIN_DRAWS):
                state = algorithm.random_state(u, rng)
                for var in schema.vars:
                    if var.name not in state:
                        problems.append(
                            f"{label}: random_state({u}) omits "
                            f"variable {var.name!r}"
                        )
                        continue
                    value = state[var.name]
                    try:
                        code = var.encode_value(value)
                    except Exception as exc:
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} which does not encode: "
                            f"{exc}"
                        )
                        continue
                    if var.kind == "bool" and not isinstance(value, bool):
                        problems.append(
                            f"{label}: random_state({u}) drew non-bool "
                            f"{var.name}={value!r}"
                        )
                    elif var.kind == "enum" and not (
                        0 <= code < len(var.values)
                    ):
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} outside the enum domain"
                        )
                    elif var.kind == "opt_index" and not (-1 <= code < n):
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} — opt_index code {code} "
                            f"outside [-1, {n}) breaks the tiled layout"
                        )
                    elif var.kind == "int" and not (
                        int64_info[0] <= code <= int64_info[1]
                    ):
                        problems.append(
                            f"{label}: random_state({u}) drew "
                            f"{var.name}={value!r} outside int64"
                        )
                if problems:
                    return problems  # one draw's findings are enough
    return problems


def run_check(out=print) -> int:
    """Lint every registered rule set; return a process exit status."""
    failures = 0
    samples = [registered_algorithms(topology) for topology in SAMPLE_TOPOLOGIES]
    for entries in zip(*samples):
        label = entries[0][0]
        problems = []
        for topology, (_, factory) in zip(SAMPLE_TOPOLOGIES, entries):
            algorithm = factory()
            where = f"{label} on {topology}"
            problems += check_algorithm(where, algorithm)
            problems += check_domains(where, algorithm)
        if problems:
            failures += 1
            for problem in problems:
                out(f"FAIL {problem}")
        else:
            rule_set = algorithm.rule_set()
            out(f"ok   {label} ({len(rule_set.rule_labels)} rules)")
    if failures:
        out(f"{failures} rule set(s) failed the IR lint")
        return 1
    out("all registered rule sets compile and agree with their dict twins")
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.ir",
        description="Lint the declarative rule sets (compile both backends "
        "and machine-check them against the native dict implementations).",
    )
    parser.add_argument("command", choices=["check"], help="subcommand")
    parser.parse_args(argv)
    return run_check()
