"""Rule sets: the declarative unit both compilers consume.

A :class:`RuleSet` bundles an algorithm's schema, guarded rules, named
predicates (legitimacy/normality tests, computed with the guards by the
generated ``evaluate`` and read there by name) and an optional fast
path.  It is structure only: per-process inputs are named
:class:`~repro.ir.exprs.Param` nodes, and a program binds the rule set
to a network and one value per process for each of them —
:meth:`RuleSet.compile_dict` interprets it against the per-process dict
contract, :meth:`RuleSet.compile_kernel` runs its generated vectorized
code (:class:`~repro.ir.kernelc.IRKernelProgram`).  :func:`rule_set_of`
is the one per-process cache: a rule set is built, and its code
generated, once per (builder, shape).

:class:`InputRuleSet` extends it with the SDR input-composition contract
(Devismes & Johnen's ``I ∘ SDR``): an ``icorrect`` predicate, a ``reset``
completion predicate, and the reset action, with guards that the host
gates behind its cleanliness predicate (``clean_gated``,
:meth:`InputRuleSet.gated_rules`).  A host embeds all of it into its own
rule set, so a composed system compiles to one program like any other.
:func:`merge_rule_sets` concatenates independent rule sets into one
(namespaced) set — the IR form of :class:`repro.core.composition.Composition`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..core.exceptions import AlgorithmError
from .exprs import Expr, Param, as_expr

__all__ = ["Assign", "Rule", "FastPath", "RuleSet", "InputRuleSet",
           "merge_rule_sets", "rule_set_of"]

#: ``(params, processes) -> bool``: see :attr:`RuleSet.tile_check`.
TileCheck = Callable[[Mapping[str, np.ndarray], int], bool]


class Assign:
    """One action effect: ``var := value`` (machine-encoded), optionally
    applied only where a per-process condition holds."""

    __slots__ = ("var", "value", "where")

    def __init__(self, var: str, value, where=None):
        self.var = var
        self.value = as_expr(value)
        self.where = None if where is None else as_expr(where)
        for part, expr in (("value", self.value), ("where", self.where)):
            if expr is not None and expr.space == "edge":
                raise AlgorithmError(
                    f"Assign({var!r}) {part} must be process- or scalar-space"
                )

    def __repr__(self):
        return f"Assign({self.var!r})"


class Rule:
    """A guarded rule: enabled where ``guard`` holds, moving applies every
    :class:`Assign` in ``action``."""

    __slots__ = ("label", "guard", "action", "clean_gated")

    def __init__(self, label: str, guard, action: Sequence[Assign], *,
                 clean_gated: bool = False):
        self.label = label
        self.guard = as_expr(guard)
        if self.guard.space == "edge":
            raise AlgorithmError(f"rule {label!r} guard must be process-space")
        if isinstance(action, Assign):
            action = (action,)
        self.action = tuple(action)
        for a in self.action:
            if not isinstance(a, Assign):
                raise AlgorithmError(
                    f"rule {label!r} action must be Assign instances"
                )
        #: Input-composition hook: the host ANDs its cleanliness predicate
        #: onto this guard at run time.  Ignored when the rule set runs
        #: standalone (the trivial host is always clean).
        self.clean_gated = clean_gated

    def __repr__(self):
        return f"Rule({self.label!r})"


class FastPath:
    """A cheap whole-system trigger with simplified guards.

    When ``trigger`` holds for *every* process (e.g. SDR: nobody is
    resetting), the kernel evaluates ``guards`` — typically a fraction of
    the general masks — and omits the rest (all-false contract).  Purely
    an optimization: the simplified guards must equal the general ones
    whenever the trigger holds system-wide.
    """

    __slots__ = ("trigger", "guards")

    def __init__(self, trigger, guards: Mapping[str, Expr]):
        self.trigger = as_expr(trigger)
        if self.trigger.space == "edge":
            raise AlgorithmError("fast-path trigger must be process-space")
        self.guards = {label: as_expr(g) for label, g in guards.items()}


class RuleSet:
    """One algorithm's structure, declaratively: schema + rules +
    predicates.

    A rule set holds no network and no per-process values: its
    :class:`~repro.ir.exprs.Param` nodes only name inputs
    (:attr:`param_names`), and :class:`~repro.ir.exprs.NProcs` stays
    symbolic.  A program is the rule set bound to a network and one
    value per process for every param (:meth:`compile_kernel`,
    :meth:`compile_dict`), so one rule set, and its generated code,
    serves every network of its shape (:func:`rule_set_of`).
    """

    def __init__(self, name: str, schema, rules: Sequence[Rule], *,
                 predicates: Optional[Mapping[str, Expr]] = None,
                 fast_path: Optional[FastPath] = None,
                 tile_check: Optional[TileCheck] = None):
        self.name = name
        self.schema = schema
        self.rules = tuple(rules)
        self.rule_labels = tuple(r.label for r in self.rules)
        if len(set(self.rule_labels)) != len(self.rule_labels):
            raise AlgorithmError(f"{name}: duplicate rule labels")
        declared = set(schema.names)
        for rule in self.rules:
            for a in rule.action:
                if a.var not in declared:
                    raise AlgorithmError(
                        f"{name}: rule {rule.label!r} assigns undeclared "
                        f"variable {a.var!r}"
                    )
        # Read-only: one rule set serves every program of its shape.
        self.predicates = MappingProxyType(dict(predicates or {}))
        self.fast_path = fast_path
        #: Optional ``(params, processes) -> bool`` refusing a layout of
        #: ``processes`` processes over the bound per-process ``params``
        #: arrays (composite keys that would overflow int64): asked when
        #: a program is bound (one copy) and when it is tiled.
        self.tile_check = tile_check
        #: Names of the params the rules and predicates read, sorted.
        self.param_names = _param_names(self)
        self._code = None

    # ------------------------------------------------------------------
    def _bind(self, network, params) -> dict:
        """``params`` (param name → one value per process of
        ``network``), checked against :attr:`param_names`."""
        params = dict(params or {})
        wrong = [
            f"{what} params {names}" for what, names in (
                ("missing", sorted(set(self.param_names) - set(params))),
                ("unexpected", sorted(set(params) - set(self.param_names))),
            ) if names
        ]
        if wrong:
            raise AlgorithmError(f"{self.name}: {', '.join(wrong)}")
        for label, values in params.items():
            if len(values) != network.n:
                raise AlgorithmError(
                    f"{self.name}: param {label!r} has {len(values)} values "
                    f"for {network.n} processes"
                )
        return params

    def compile_dict(self, network, params=None):
        """This rule set bound to ``network`` and ``params``, interpreted
        under the dict contract (:class:`repro.ir.dictc.DictProgram`)."""
        from .dictc import DictProgram

        return DictProgram(self, network, self._bind(network, params))

    def compile_kernel(self, network, params=None):
        """This rule set bound to ``network`` and ``params``: the
        vectorized :class:`~repro.ir.kernelc.IRKernelProgram`, or
        ``None`` when :attr:`tile_check` refuses the bound values (the
        caller stays on the dict engine)."""
        from ..core.kernel.csr import CSRAdjacency
        from .kernelc import IRKernelProgram

        try:
            arrays = {label: _column(values) for label, values
                      in self._bind(network, params).items()}
        except OverflowError:  # a value beyond int64
            return None
        check = self.tile_check
        if check is not None and not check(arrays, network.n):
            return None
        return IRKernelProgram(self, CSRAdjacency(network), arrays)

    def kernel_code(self):
        """The generated kernel code of this rule set, generated on first
        use and shared by every program bound from it, tiled or not."""
        if self._code is None:
            from .kernelc import compile_rule_set

            self._code = compile_rule_set(self)
        return self._code

    def __repr__(self):
        return f"RuleSet({self.name!r}, rules={list(self.rule_labels)})"


class InputRuleSet(RuleSet):
    """A rule set implementing the SDR input contract.

    ``icorrect`` and ``reset`` become the ``icorrect``/``reset``
    predicates, ``reset_action`` is the effect of the
    host's reset move on the input's variables, which a host embeds into
    its reset rules.  Rules marked ``clean_gated`` are ANDed with the
    host's cleanliness predicate under a host (:meth:`gated_rules`);
    standalone (trivial-host) runs compile them ungated.
    """

    def __init__(self, name: str, schema, rules, *,
                 icorrect, reset, reset_action: Sequence[Assign],
                 predicates=None, fast_path=None, tile_check=None):
        predicates = dict(predicates or {})
        predicates.setdefault("icorrect", as_expr(icorrect))
        predicates.setdefault("reset", as_expr(reset))
        super().__init__(name, schema, rules, predicates=predicates,
                         fast_path=fast_path, tile_check=tile_check)
        self.icorrect = predicates["icorrect"]
        self.reset = predicates["reset"]
        if isinstance(reset_action, Assign):
            reset_action = (reset_action,)
        self.reset_action = tuple(reset_action)

    def gated_rules(self, clean: Expr) -> tuple[Rule, ...]:
        """This input's rules under a host whose cleanliness predicate is
        ``clean``: ``clean`` ANDed onto every ``clean_gated`` guard, the
        other rules unchanged."""
        return tuple(
            Rule(rule.label, clean & rule.guard if rule.clean_gated
                 else rule.guard, rule.action)
            for rule in self.rules
        )


def merge_rule_sets(name: str, parts) -> RuleSet:
    """Concatenate independent rule sets into one (collateral composition).

    ``parts`` is a sequence of ``(prefix, rule_set)``; rule labels become
    ``"{prefix}:{label}"``, schemas concatenate in part order (variables
    must be disjoint — :class:`~repro.core.kernel.schema.Schema` checks).
    Per-part predicates, fast paths and clean gating do not survive the
    merge: each component runs with standalone semantics, which matches
    :class:`repro.core.composition.Composition`'s dict behavior.
    """
    from ..core.kernel.schema import Schema

    parts = list(parts)
    schema = Schema(*[v for _, rs in parts for v in rs.schema.vars])
    rules = [
        Rule(f"{prefix}:{rule.label}", rule.guard, rule.action)
        for prefix, rs in parts
        for rule in rs.rules
    ]
    checks = [rs.tile_check for _, rs in parts if rs.tile_check is not None]
    tile_check = None
    if checks:
        def tile_check(params, processes, _checks=tuple(checks)):
            return all(check(params, processes) for check in _checks)
    return RuleSet(name, schema, rules, tile_check=tile_check)


#: The per-process rule-set cache: ``(builder, shape arguments)`` → the
#: rule set, whose generated code is kept on it (:meth:`RuleSet.kernel_code`).
_SHAPES: dict[tuple, RuleSet] = {}


def rule_set_of(builder: Callable[..., RuleSet], *shape) -> RuleSet:
    """``builder(*shape)``, built once per process.

    ``shape`` holds only what the rule set's structure depends on (a
    period, a distance cap, the input's rule set), never a network or a
    per-process value, so every algorithm instance of one shape, on any
    network, shares one rule set and one generated kernel.
    """
    key = (builder, shape)
    rule_set = _SHAPES.get(key)
    if rule_set is None:
        rule_set = _SHAPES[key] = builder(*shape)
    return rule_set


def _param_names(rule_set: RuleSet) -> tuple[str, ...]:
    """Names of the params reachable from ``rule_set``'s guards, actions,
    predicates and fast path, sorted."""
    roots: list = list(rule_set.predicates.values())
    for rule in rule_set.rules:
        roots.append(rule.guard)
        for a in rule.action:
            roots += [a.value, a.where]
    fast = rule_set.fast_path
    if fast is not None:
        roots += [fast.trigger, *fast.guards.values()]
    names, seen = set(), set()
    while roots:
        node = roots.pop()
        if not isinstance(node, Expr) or id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Param):
            names.add(node.label)
        roots += [getattr(node, field) for field in type(node).__slots__]
    return tuple(sorted(names))


def _column(values) -> np.ndarray:
    """One param's values as a read-only bool or int64 array (raises
    :class:`OverflowError` beyond int64)."""
    dtype = np.bool_ if np.asarray(values).dtype == np.bool_ else np.int64
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr
