"""Rule sets: the declarative unit both compilers consume.

A :class:`RuleSet` bundles an algorithm's schema, guarded rules, named
predicates (legitimacy/normality tests, computed with the guards by the
generated ``evaluate`` and read there by name) and an optional fast
path.  :meth:`RuleSet.compile_dict` interprets it
against the per-process dict contract, :meth:`RuleSet.compile_kernel`
generates the vectorized :class:`~repro.ir.kernelc.IRKernelProgram`.

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

from typing import Callable, Mapping, Optional, Sequence

from ..core.exceptions import AlgorithmError
from .exprs import Expr, as_expr

__all__ = ["Assign", "Rule", "FastPath", "RuleSet", "InputRuleSet",
           "merge_rule_sets"]


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
    """One algorithm, declaratively: schema + rules + predicates."""

    def __init__(self, name: str, network, schema, rules: Sequence[Rule], *,
                 predicates: Optional[Mapping[str, Expr]] = None,
                 fast_path: Optional[FastPath] = None,
                 tile_check: Optional[Callable[[int], bool]] = None):
        self.name = name
        self.network = network
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
        self.predicates = dict(predicates or {})
        self.fast_path = fast_path
        #: Optional ``copies -> bool`` refusing tiled layouts (composite
        #: keys that would overflow int64 at T·n processes).
        self.tile_check = tile_check
        self._kernel_code = None

    # ------------------------------------------------------------------
    def compile_dict(self):
        """Interpret this rule set under the dict contract
        (:class:`repro.ir.dictc.DictProgram`)."""
        from .dictc import DictProgram

        return DictProgram(self)

    def compile_kernel(self):
        """Generate the vectorized :class:`~repro.ir.kernelc.IRKernelProgram`."""
        from .kernelc import IRKernelProgram

        return IRKernelProgram(self)

    def kernel_code(self):
        """The generated (and cached) kernel code object — shared by every
        program instance of this rule set, tiled or not."""
        if self._kernel_code is None:
            from .kernelc import compile_rule_set

            self._kernel_code = compile_rule_set(self)
        return self._kernel_code

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

    def __init__(self, name: str, network, schema, rules, *,
                 icorrect, reset, reset_action: Sequence[Assign],
                 predicates=None, fast_path=None, tile_check=None):
        predicates = dict(predicates or {})
        predicates.setdefault("icorrect", as_expr(icorrect))
        predicates.setdefault("reset", as_expr(reset))
        super().__init__(name, network, schema, rules, predicates=predicates,
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


def merge_rule_sets(name: str, network, parts) -> RuleSet:
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
        def tile_check(copies, _checks=tuple(checks)):
            return all(check(copies) for check in _checks)
    return RuleSet(name, network, schema, rules, tile_check=tile_check)
