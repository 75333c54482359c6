"""Dict-contract compiler: interpret a :class:`~repro.ir.rules.RuleSet`
per process against plain state dicts.

:class:`DictProgram` exposes exactly the ``Algorithm`` rule surface —
``guard(rule, cfg, u)`` and ``execute(rule, cfg, u)`` — so an IR
definition can be checked value-for-value against a handwritten
``Algorithm`` (the ``python -m repro.ir check`` lint and the equivalence
property suite do exactly that).

Evaluation is memoized per call: process-space nodes by ``(node, u)``,
edge-space nodes by ``(node, u, v)``, so shared subexpressions (the point
of building them once) evaluate once per process, mirroring the kernel
compiler's common-subexpression reuse.  Boolean connectives evaluate on
python bools (``and``/``or``/``not``), arithmetic on python ints —
``%``/``//`` agree with numpy's int64 semantics including negative
operands.
"""

from __future__ import annotations

from ..core.exceptions import AlgorithmError
from . import exprs as E

__all__ = ["DictProgram"]

_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&": lambda a, b: a and b,
    "|": lambda a, b: a or b,
    "min2": min,
    "max2": max,
}

_UN = {
    "~": lambda a: not a,
    "-": lambda a: -a,
    "sign": lambda a: (a > 0) - (a < 0),
    "abs": abs,
}


class DictProgram:
    """A :class:`RuleSet` bound to a network and its per-process param
    values (name → one value per process), interpreted under the dict
    state contract."""

    def __init__(self, rule_set, network, params):
        self.rule_set = rule_set
        self.network = network
        self.params = {label: tuple(values) for label, values in params.items()}
        self.rules = rule_set.rule_labels
        self._by_label = {rule.label: rule for rule in rule_set.rules}
        self._vars = {v.name: v for v in rule_set.schema.vars}

    # ------------------------------------------------------------------
    def _rule(self, label: str):
        try:
            return self._by_label[label]
        except KeyError:
            raise AlgorithmError(
                f"{self.rule_set.name}: unknown rule {label!r}"
            ) from None

    def guard(self, rule: str, cfg, u: int) -> bool:
        """``Algorithm.guard`` semantics for one rule/process."""
        return bool(_Eval(self, cfg).proc(self._rule(rule).guard, u))

    def execute(self, rule: str, cfg, u: int) -> dict:
        """``Algorithm.execute`` semantics: the update dict for ``u``."""
        ev = _Eval(self, cfg)
        updates = {}
        for assign in self._rule(rule).action:
            if assign.where is not None and not ev.proc(assign.where, u):
                continue
            value = ev.proc(assign.value, u)
            updates[assign.var] = self._vars[assign.var].decode_value(value)
        return updates

    def predicate(self, name: str, cfg, u: int) -> bool:
        """Evaluate a declared predicate (``normal``, ``icorrect``, …)."""
        try:
            expr = self.rule_set.predicates[name]
        except KeyError:
            raise AlgorithmError(
                f"{self.rule_set.name}: no predicate {name!r}"
            ) from None
        return bool(_Eval(self, cfg).proc(expr, u))


class _Eval:
    """One evaluation context (one configuration snapshot)."""

    __slots__ = ("network", "params", "_vars", "cfg", "_pmemo", "_ememo")

    def __init__(self, program: DictProgram, cfg):
        self.network = program.network
        self.params = program.params
        self._vars = program._vars
        self.cfg = cfg
        self._pmemo = {}
        self._ememo = {}

    def _read(self, name: str, w: int):
        return self._vars[name].encode_value(self.cfg[w][name])

    # ------------------------------------------------------------------
    def proc(self, node, w: int):
        key = (id(node), w)
        memo = self._pmemo
        if key in memo:
            return memo[key]
        value = self._proc(node, w)
        memo[key] = value
        return value

    def _proc(self, node, w: int):
        if isinstance(node, E.Const):
            return node.value
        if isinstance(node, E.Col):
            return self._read(node.name, w)
        if isinstance(node, E.Param):
            return self.params[node.label][w]
        if isinstance(node, E.ProcIndex):
            return w
        if isinstance(node, E.NProcs):
            return self.network.n
        if isinstance(node, E.BinOp):
            return _BIN[node.op](self.proc(node.a, w), self.proc(node.b, w))
        if isinstance(node, E.UnOp):
            return _UN[node.op](self.proc(node.a, w))
        if isinstance(node, E.Where):
            branch = node.a if self.proc(node.cond, w) else node.b
            return self.proc(branch, w)
        if isinstance(node, E.Gather):
            index = self.proc(node.index, w)
            return self.proc(node.value, max(index, 0))
        if isinstance(node, E.Reduce):
            return self._reduce(node, w)
        raise AlgorithmError(f"cannot evaluate {node!r} in process space")

    def _reduce(self, node, w: int):
        neighbors = self.network.neighbors(w)
        kind = node.kind
        if kind == "all":
            return all(self.edge(node.value, w, v) for v in neighbors)
        if kind == "any":
            return any(self.edge(node.value, w, v) for v in neighbors)
        if kind == "count":
            return sum(1 for v in neighbors if self.edge(node.value, w, v))
        candidates = [
            self.edge(node.value, w, v)
            for v in neighbors
            if node.where is None or self.edge(node.where, w, v)
        ]
        fold = min if kind == "min" else max
        return fold(candidates, default=node.default)

    # ------------------------------------------------------------------
    def edge(self, node, u: int, v: int):
        key = (id(node), u, v)
        memo = self._ememo
        if key in memo:
            return memo[key]
        value = self._edge(node, u, v)
        memo[key] = value
        return value

    def _edge(self, node, u: int, v: int):
        if isinstance(node, E.Neigh):
            return self.proc(node.arg, v)
        if isinstance(node, E.Own):
            return self.proc(node.arg, u)
        if isinstance(node, E.Const):
            return node.value
        if isinstance(node, E.NProcs):
            return self.network.n
        if isinstance(node, E.BinOp):
            return _BIN[node.op](self.edge(node.a, u, v), self.edge(node.b, u, v))
        if isinstance(node, E.UnOp):
            return _UN[node.op](self.edge(node.a, u, v))
        if isinstance(node, E.Where):
            branch = node.a if self.edge(node.cond, u, v) else node.b
            return self.edge(branch, u, v)
        raise AlgorithmError(f"cannot evaluate {node!r} in edge space")
