"""Kernel compiler: generate vectorized numpy programs from a rule set.

This is a source generator, not a tree-walking interpreter: each rule
set compiles once into straight-line numpy code (one ``evaluate``
function computing every guard *and* every declared predicate, one
``apply`` function per rule), which is then ``exec``'d and kept on the
rule set (:meth:`~repro.ir.rules.RuleSet.kernel_code`).  A rule set
holds no network and no per-process values, so its code serves every
program bound from it: the code reads the network through the program
(``C.csr``) and each param's values by name (``C._params['ids']``).
Rule sets are cached per shape and process
(:func:`~repro.ir.rules.rule_set_of`), so the compile walk runs once
per shape.  Per-step cost is identical in shape to a handwritten
kernel program — a fixed sequence of array ops with shared
temporaries — and the generated source is kept on the code object for
inspection (``rule_set.kernel_code().source``).

Lowering rules:

* process-space expressions become full-length column vectors in guards
  and predicates; inside actions they are evaluated in *idx space* (only
  at the selected processes), except the value column a pointer gathers
  from, which must be full-length because pointers reach any process;
* ``Neigh``/``Own`` become gathers through the CSR ``indices`` /
  ``edge_src`` arrays, ``Reduce`` becomes the matching segmented
  reduction (:class:`~repro.core.kernel.csr.CSRAdjacency`); a scalar
  lifted to edge space becomes a constant edge vector;
* inside actions every ``Reduce`` is *row-local*: its edge expression is
  evaluated over the CSR rows of ``idx`` only (``C.csr.rows(idx)``:
  ``Neigh(x)`` gathers ``x`` at those rows' neighbors, ``Own(x)`` repeats
  the idx-space ``x`` once per row slot) and folded per selected row, so
  an action costs the moving processes' edges, not the whole graph's;
* common subexpressions are shared by *structure*: two nodes with the
  same operator and structurally equal operands (a ``Const`` keyed by
  type and value, so ``True`` is not ``1``; a ``Param`` by its name) are
  computed once per generated function, however often the rule set
  rebuilt them;
* the ``evaluate`` function returns ``(guard masks, predicate masks)``:
  the declared predicates (``normal``, ``legitimate``, …) ride the
  guards' temporaries, so the driver's probes, the adversary's stop test
  and the lint read them at the cost of the few ops the guards did not
  already compute — a predicate is lowered nowhere else;
* a :class:`~repro.ir.rules.FastPath` compiles to a cheap whole-system
  test guarding a reduced mask dict (omitted masks are all-false by the
  :meth:`IRKernelProgram.guard_masks` contract) plus the predicates;
  inside it the trigger lowers to the all-true ``C.ones`` and
  ``x & trigger`` to ``x``.
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import AlgorithmError
from . import exprs as E

__all__ = ["compile_rule_set", "IRKernelProgram"]


_BIN_FMT = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "//": "({} // {})",
    "%": "({} % {})",
    "==": "({} == {})",
    "!=": "({} != {})",
    "<": "({} < {})",
    "<=": "({} <= {})",
    ">": "({} > {})",
    ">=": "({} >= {})",
    "&": "({} & {})",
    "|": "({} | {})",
    "min2": "np.minimum({}, {})",
    "max2": "np.maximum({}, {})",
}

_UN_FMT = {
    "~": "(~{})",
    "-": "(-{})",
    "sign": "np.sign({})",
    "abs": "np.abs({})",
}

#: Prologue names, in emission order, with their definitions.
_PROLOGUE = (
    ("_CSR", "C.csr"),
    ("_N", "_CSR.n"),
    ("_IX", "_CSR.indices"),
    ("_SRC", "_CSR.edge_src"),
    ("_AR", "C.arange"),
    ("_ONES", "C.ones"),
)
_NEEDS_CSR = frozenset({"_N", "_IX", "_SRC"})


class _Fn:
    """One generated function: lines, prologue needs, and CSE memos."""

    def __init__(self, compiler: "_Compiler", name: str, args: tuple,
                 colsrc: str):
        self.compiler = compiler
        self.name = name
        self.args = args
        self.colsrc = colsrc
        self.lines: list[tuple[int, str]] = []
        self.indent = 0
        self._pro: set[str] = set()
        self._fmemo: dict[int, str] = {}
        self._lmemo: dict[int, str] = {}
        self._ememo: dict[int, str] = {}
        self._rows: str | None = None
        self._saved = None
        #: Key of an expression known to hold everywhere (the fast-path
        #: trigger inside its block), or ``None``.
        self._truth: int | None = None

    # -- emission helpers ----------------------------------------------
    def use(self, name: str) -> str:
        self._pro.add(name)
        return name

    def line(self, src: str) -> None:
        self.lines.append((self.indent, src))

    def temp(self, src: str) -> str:
        name = self.compiler.next_temp()
        self.line(f"{name} = {src}")
        return name

    def begin_block(self, truth: E.Expr) -> None:
        """Enter the fast-path ``if`` body, where ``truth`` holds at
        every process: temps emitted inside are forgotten on exit (they
        don't exist on the general path)."""
        self._saved = (dict(self._fmemo), dict(self._lmemo),
                       dict(self._ememo), self._rows)
        self._truth = self.compiler.key(truth)
        self.indent += 1

    def end_block(self) -> None:
        self._fmemo, self._lmemo, self._ememo, self._rows = self._saved
        self._saved = self._truth = None
        self.indent -= 1

    # -- full (column-vector) lowering ---------------------------------
    def full(self, node: E.Expr) -> str:
        key = self.compiler.key(node)
        if key == self._truth:
            return self.use("_ONES")
        got = self._fmemo.get(key)
        if got is None:
            got = self._full(node)
            self._fmemo[key] = got
        return got

    def _full(self, node: E.Expr) -> str:
        if isinstance(node, E.Const):
            return repr(node.value)
        if isinstance(node, E.NProcs):
            return self.use("_N")
        if isinstance(node, E.ProcIndex):
            return self.use("_AR")
        if isinstance(node, E.Col):
            return f"{self.colsrc}[{node.name!r}]"
        if isinstance(node, E.Param):
            return f"C._params[{node.label!r}]"
        if isinstance(node, E.Neigh):
            if node.arg.space == E.SCALAR:
                return self.lifted_scalar(node.arg, self.use("_IX"))
            if isinstance(node.arg, E.ProcIndex):
                return self.use("_IX")
            inner = self.full(node.arg)
            return self.temp(f"{inner}[{self.use('_IX')}]")
        if isinstance(node, E.Own):
            if node.arg.space == E.SCALAR:
                return self.lifted_scalar(node.arg, self.use("_IX"))
            if isinstance(node.arg, E.ProcIndex):
                return self.use("_SRC")
            inner = self.full(node.arg)
            return self.temp(f"{inner}[{self.use('_SRC')}]")
        if isinstance(node, E.BinOp):
            a, b = self.full(node.a), self.full(node.b)
            if node.op == "&" and "_ONES" in (a, b):  # x & true is x
                return b if a == "_ONES" else a
            return self.temp(_BIN_FMT[node.op].format(a, b))
        if isinstance(node, E.UnOp):
            return self.temp(_UN_FMT[node.op].format(self.full(node.a)))
        if isinstance(node, E.Where):
            c, a, b = self.full(node.cond), self.full(node.a), self.full(node.b)
            return self.temp(f"np.where({c}, {a}, {b})")
        if isinstance(node, E.Gather):
            value, index = self.full(node.value), self.full(node.index)
            return self.temp(f"{value}[np.maximum({index}, 0)]")
        if isinstance(node, E.Reduce):
            return self.reduce(f"{self.use('_CSR')}.{node.kind}_neigh",
                               node, self.full)
        raise AlgorithmError(f"cannot lower {node!r} to a column vector")

    def lifted_scalar(self, arg: E.Expr, edges: str) -> str:
        """A scalar lifted to edge space: one copy per slot of ``edges``."""
        return self.temp(f"np.full({edges}.shape, {self.local(arg)})")

    def reduce(self, fn: str, node: E.Reduce, lower) -> str:
        """Call reduction ``fn`` on ``node``'s edge operands, lowered by
        ``lower`` (whole-graph or row-local edge space)."""
        value = lower(node.value)
        if node.kind in ("all", "any", "count"):
            return self.temp(f"{fn}({value})")
        mask = lower(node.where) if node.where is not None else "None"
        return self.temp(f"{fn}({value}, {mask}, {node.default})")

    # -- local (idx-space) lowering ------------------------------------
    def local(self, node: E.Expr) -> str:
        key = self.compiler.key(node)
        got = self._lmemo.get(key)
        if got is None:
            got = self._local(node)
            self._lmemo[key] = got
        return got

    def _local(self, node: E.Expr) -> str:
        if isinstance(node, E.Const):
            return repr(node.value)
        if isinstance(node, E.NProcs):
            return self.use("_N")
        if isinstance(node, E.ProcIndex):
            return "idx"
        if isinstance(node, E.Col):
            return self.temp(f"{self.colsrc}[{node.name!r}][idx]")
        if isinstance(node, E.Param):
            return self.temp(f"C._params[{node.label!r}][idx]")
        if isinstance(node, E.BinOp):
            a, b = self.local(node.a), self.local(node.b)
            return self.temp(_BIN_FMT[node.op].format(a, b))
        if isinstance(node, E.UnOp):
            return self.temp(_UN_FMT[node.op].format(self.local(node.a)))
        if isinstance(node, E.Where):
            c = self.local(node.cond)
            a, b = self.local(node.a), self.local(node.b)
            return self.temp(f"np.where({c}, {a}, {b})")
        if isinstance(node, E.Gather):
            # The pointer is only needed at idx, but the gathered column
            # must be full-length (pointers reach any process).
            value = self.full(node.value)
            index = self.local(node.index)
            return self.temp(f"{value}[np.maximum({index}, 0)]")
        if isinstance(node, E.Reduce):
            return self.reduce(f"{self.rows()}.{node.kind}", node, self.edge)
        raise AlgorithmError(f"cannot lower {node!r} at selected processes")

    # -- edge-local lowering (the CSR rows of idx) ---------------------
    def rows(self) -> str:
        """The row layout of ``idx``, computed once per function."""
        if self._rows is None:
            self._rows = self.temp(f"{self.use('_CSR')}.rows(idx)")
        return self._rows

    def edge(self, node: E.Expr) -> str:
        key = self.compiler.key(node)
        got = self._ememo.get(key)
        if got is None:
            got = self._edge(node)
            self._ememo[key] = got
        return got

    def _edge(self, node: E.Expr) -> str:
        if isinstance(node, E.Const):
            return repr(node.value)
        if isinstance(node, E.NProcs):
            return self.use("_N")
        if isinstance(node, (E.Neigh, E.Own)) and node.arg.space == E.SCALAR:
            return self.lifted_scalar(node.arg, f"{self.rows()}.nbr")
        if isinstance(node, E.Neigh):
            nbr = f"{self.rows()}.nbr"
            if isinstance(node.arg, E.ProcIndex):
                return nbr
            return self.temp(f"{self.full(node.arg)}[{nbr}]")
        if isinstance(node, E.Own):
            inner = self.local(node.arg)
            return self.temp(f"{inner}.repeat({self.rows()}.reps)")
        if isinstance(node, E.BinOp):
            a, b = self.edge(node.a), self.edge(node.b)
            return self.temp(_BIN_FMT[node.op].format(a, b))
        if isinstance(node, E.UnOp):
            return self.temp(_UN_FMT[node.op].format(self.edge(node.a)))
        if isinstance(node, E.Where):
            c, a, b = self.edge(node.cond), self.edge(node.a), self.edge(node.b)
            return self.temp(f"np.where({c}, {a}, {b})")
        raise AlgorithmError(f"cannot lower {node!r} over the rows of idx")

    # -- statements ----------------------------------------------------
    def emit_assign(self, assign) -> None:
        target = f"write[{assign.var!r}]"
        if assign.where is None:
            self.line(f"{target}[idx] = {self.local(assign.value)}")
            return
        if assign.where.space == E.SCALAR:
            raise AlgorithmError(
                f"Assign({assign.var!r}): condition must be per-process"
            )
        cond = self.local(assign.where)
        sub = self.temp(f"idx[{cond}]")
        if assign.value.space == E.SCALAR:
            self.line(f"{target}[{sub}] = {self.local(assign.value)}")
        else:
            self.line(f"{target}[{sub}] = {self.local(assign.value)}[{cond}]")

    def emit_masks_return(self, guards: dict, predicates: dict) -> None:
        """``return {rule: mask…}, {predicate: mask…}``, guards first so
        the predicates reuse their temporaries."""
        parts = []
        for exprs in (guards, predicates):
            srcs = [f"{name!r}: {self.full(e)}" for name, e in exprs.items()]
            parts.append("{" + ", ".join(srcs) + "}")
        self.line(f"return {parts[0]}, {parts[1]}")

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        needs = set(self._pro)
        if needs & _NEEDS_CSR:
            needs.add("_CSR")
        out = [f"def {self.name}({', '.join(self.args)}):"]
        for name, definition in _PROLOGUE:
            if name in needs:
                out.append(f"    {name} = {definition}")
        for indent, src in self.lines:
            out.append("    " * (indent + 1) + src)
        return "\n".join(out)


class _Compiler:
    def __init__(self, rule_set):
        self.rule_set = rule_set
        self.fns: list[_Fn] = []
        self._temp = 0
        #: Structural keys: node id → canonical id, and the canonical
        #: table (operator plus child canonical ids → canonical id).
        self._keys: dict[int, int] = {}
        self._canon: dict[tuple, int] = {}
        self._keyed: list[E.Expr] = []  # keeps every keyed id alive

    def next_temp(self) -> str:
        name = f"_t{self._temp}"
        self._temp += 1
        return name

    def key(self, node) -> int:
        """Structural CSE key of ``node``: equal for structurally equal
        expressions, whichever objects built them."""
        got = self._keys.get(id(node))
        if got is None:
            got = self._canon.setdefault(self._shape(node), len(self._canon))
            self._keys[id(node)] = got
            self._keyed.append(node)
        return got

    def _shape(self, node) -> tuple:
        """Node type plus its fields: operands by their keys, anything
        else by type and value (``True`` is not ``1``, and a ``Param``
        is its name)."""
        return (type(node), *(
            self.key(value) if isinstance(value, E.Expr) else (type(value), value)
            for value in map(node.__getattribute__, type(node).__slots__)
        ))


def _trigger_test(fn: _Fn, trigger: E.Expr) -> str:
    """Whole-system fast-path test.  ``Col == 0`` specializes to the
    allocation-free ``not col.any()``; anything else materializes the
    per-process trigger and ``.all()``s it."""
    if (
        isinstance(trigger, E.BinOp)
        and trigger.op == "=="
        and isinstance(trigger.a, E.Col)
        and isinstance(trigger.b, E.Const)
        and trigger.b.value == 0
    ):
        return f"not {fn.colsrc}[{trigger.a.name!r}].any()"
    return f"bool({fn.full(trigger)}.all())"


class _KernelCode:
    """The exec'd output of :func:`compile_rule_set`, shared by every
    program (base and tiled) bound from one rule set."""

    __slots__ = ("eval_fn", "apply_fns", "source")

    def __init__(self, eval_fn, apply_fns, source):
        self.eval_fn = eval_fn
        self.apply_fns = apply_fns
        self.source = source


def compile_rule_set(rule_set) -> _KernelCode:
    """Generate and exec the numpy functions for one rule set."""
    comp = _Compiler(rule_set)

    guard = _Fn(comp, "evaluate", ("cols", "C"), "cols")
    predicates = rule_set.predicates
    fast = rule_set.fast_path
    if fast is not None:
        guard.line(f"if {_trigger_test(guard, fast.trigger)}:")
        guard.begin_block(fast.trigger)
        guard.emit_masks_return(fast.guards, predicates)
        guard.end_block()
    guard.emit_masks_return(
        {rule.label: rule.guard for rule in rule_set.rules}, predicates
    )
    comp.fns.append(guard)

    apply_names = {}
    for i, rule in enumerate(rule_set.rules):
        fn = _Fn(comp, f"apply_{i}", ("idx", "read", "write", "C"), "read")
        for assign in rule.action:
            fn.emit_assign(assign)
        comp.fns.append(fn)
        apply_names[rule.label] = fn.name

    source = "\n\n".join(fn.render() for fn in comp.fns)
    ns = {"np": np}
    exec(compile(source, f"<repro.ir:{rule_set.name}>", "exec"), ns)
    return _KernelCode(
        eval_fn=ns["evaluate"],
        apply_fns={label: ns[fname] for label, fname in apply_names.items()},
        source=source,
    )


class IRKernelProgram:
    """One rule set bound to a network and its per-process values: the
    only program type the kernel runtime executes
    (:meth:`repro.ir.rules.RuleSet.compile_kernel`, which
    ``Algorithm.kernel_program`` calls).

    Guards are evaluated as boolean masks over *all* processes at once;
    a rule's action runs on a whole index vector of selected processes,
    reading the frozen pre-step columns and writing the next-step ones
    (the runtime's double buffer realizes composite atomicity).
    :meth:`evaluate` returns the guard masks together with every
    declared predicate's mask (one generated function, shared
    temporaries) — what the driver evaluates once per step.  A
    predicate is read by its declared name from that second dict, and
    nowhere else (:func:`repro.core.kernel.engine.check_predicate`).

    Attributes
    ----------
    schema:
        The :class:`~repro.core.kernel.schema.Schema` of the columns this
        program reads and writes.
    rules:
        Rule labels in the dict algorithm's order
        (``Algorithm.rule_names``), so the two backends are
        interchangeable in traces and accounting.
    predicates:
        Names of the declared predicates, the keys of :meth:`evaluate`'s
        second dict.
    """

    def __init__(self, rule_set, csr, params):
        self.rule_set = rule_set
        self._code = rule_set.kernel_code()
        self.csr = csr
        self.schema = rule_set.schema
        self.rules = rule_set.rule_labels
        self.predicates = tuple(rule_set.predicates)
        #: Param name → the bound read-only per-process array.
        self._params = params
        self._arange = self._ones = None

    # -- generated-code services ---------------------------------------
    @property
    def arange(self) -> np.ndarray:
        if self._arange is None:
            self._arange = np.arange(self.csr.n, dtype=np.int64)
        return self._arange

    @property
    def ones(self) -> np.ndarray:
        """All-true per-process mask (read-only): a predicate the fast
        path knows holds everywhere."""
        if self._ones is None:
            self._ones = np.ones(self.csr.n, dtype=np.bool_)
            self._ones.setflags(write=False)
        return self._ones

    # -- program contract ----------------------------------------------
    def guard_masks(self, cols):
        """Boolean enabled-mask per rule, evaluated on every process.

        A rule whose guard is everywhere false may be omitted (the fast
        path does): consumers read a missing key as an all-false mask.
        """
        return self._code.eval_fn(cols, self)[0]

    def evaluate(self, cols):
        """``(guard masks, predicate masks)`` of one configuration, from
        one generated function: the :meth:`guard_masks` dict, and every
        declared predicate's per-process mask by name (never ANDed with
        anything)."""
        return self._code.eval_fn(cols, self)

    def apply(self, rule, idx, read, write):
        """Execute ``rule`` at the processes in ``idx``: reads come from
        ``read`` (the frozen pre-step columns), writes go to ``write``."""
        try:
            fn = self._code.apply_fns[rule]
        except KeyError:
            raise AlgorithmError(
                f"{self.rule_set.name}: unknown rule {rule!r}"
            ) from None
        fn(idx, read, write, self)

    def tiled(self, copies):
        """This program over ``copies`` disjoint copies of its network
        (one block-diagonal CSR; per-process params tiled, ``schema``,
        ``rules`` and the generated code shared), or ``None`` when the
        rule set's ``tile_check`` refuses the layout (serial fallback)."""
        check = self.rule_set.tile_check
        if check is not None and not check(self._params,
                                           self.csr.n * copies):
            return None
        return type(self)(
            self.rule_set,
            self.csr.tile(copies),
            {label: np.tile(arr, copies) for label, arr in self._params.items()},
        )
