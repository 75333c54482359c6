"""Kernel compiler: generate vectorized numpy programs from a rule set.

This is a source generator, not a tree-walking interpreter: each rule
set compiles once into straight-line numpy code (one ``evaluate``
function computing every guard *and* every declared predicate, one
``apply`` function per rule, and one ``bind`` function computing what
depends on the bound program alone), which is then ``exec``'d and kept
on the rule set (:meth:`~repro.ir.rules.RuleSet.kernel_code`).  A rule
set holds no network and no per-process values, so its code serves
every program bound from it: the code reads the network through the
program (``C.csr``) and each param's values by name, in ``bind`` only.
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
* the *bind prologue*: a subexpression that reads no column (only
  ``Param``, ``NProcs``, ``ProcIndex`` and constants) is computed once
  per bound program by the generated ``bind`` function — again when
  the program is re-tiled or its CSR rewired — and every other function
  unpacks the results from ``C._bound``; inside actions such a
  process-space value is one gather at ``idx``.  No function but
  ``bind`` reads ``C._params``;
* gathers after arithmetic: a masked neighbour fold
  ``Reduce(min|max, Neigh(v), where=Neigh(m))`` whose default is the
  fold's identity for ``v``'s dtype lowers as one process-space
  ``where(m, v, identity)``, one gather and one unmasked fold (guards
  and row-local actions); in guards, ``Neigh(x) <op> Const`` becomes
  ``Neigh(x <op> Const)`` when that gather has no other use, so the
  arithmetic runs per process, not per edge slot, and is shared with
  the same process-space term;
* the ``evaluate`` function returns ``(guard masks, predicate masks)``:
  the declared predicates (``normal``, ``legitimate``, …) ride the
  guards' temporaries, so the driver's probes, the adversary's stop test
  and the lint read them at the cost of the few ops the guards did not
  already compute — a predicate is lowered nowhere else;
* *signature blocks*: every ``evaluate`` temporary carries its column
  signature (the columns it reads, transitively, as a bitmask), and
  each straight-line stretch (before the fast-path test, the fast path,
  the general path) emits its temporaries grouped in blocks by
  signature.  A block re-runs only when its :class:`Memo` says a column
  of its signature changed since that stretch last ran; otherwise its
  outputs come from the memo's slots (a block whose input columns hold
  the same values computes the same outputs).  Each generated
  ``apply_*`` returns the bitmask of the columns whose values at ``idx``
  it changed, comparing each written column with its pre-step values as
  bytes, and the driver marks those (:meth:`Memo.mark`); a dense call
  runs every block on a fresh memo;
* a :class:`~repro.ir.rules.FastPath` compiles to a cheap whole-system
  test guarding a reduced mask dict (omitted masks are all-false by the
  :meth:`IRKernelProgram.guard_masks` contract) plus the predicates;
  inside it the trigger lowers to the all-true ``C.ones`` and
  ``x & trigger`` to ``x``.
"""

from __future__ import annotations

import re

import numpy as np

from ..core.exceptions import AlgorithmError
from . import exprs as E

__all__ = ["compile_rule_set", "IRKernelProgram", "Memo"]


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

#: ``min``/``max`` fold identities of int64 — what a bool or int64 value
#: folds with (:meth:`repro.core.kernel.csr.Rows.min`).
_IDENTITY = {"min": int(np.iinfo(np.int64).max),
             "max": int(np.iinfo(np.int64).min)}

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

_TEMP_REF = re.compile(r"\b_t\d+\b")


class Memo:
    """The guard memo of one runtime: per stretch of ``evaluate``, the
    columns whose values changed since it last ran (``dirty``, a bitmask;
    ``-1`` = everything), and the outputs of its signature blocks
    (``slots``)."""

    __slots__ = ("dirty", "slots")

    def __init__(self, stretches: int, slots: int):
        self.dirty = [-1] * stretches
        self.slots = [None] * slots

    def mark(self, changed: int) -> None:
        """Columns ``changed`` (a bitmask) changed values."""
        if not changed:
            return
        dirty = self.dirty
        for i in range(len(dirty)):
            dirty[i] |= changed

    def reset(self) -> None:
        """Forget every block's outputs (the layout or the program changed)."""
        self.dirty = [-1] * len(self.dirty)


class _Stretch:
    """The temporaries of one straight-line stretch of ``evaluate``, as
    ``(name, source, signature)`` in emission order."""

    __slots__ = ("index", "temps")

    def __init__(self, index: int):
        self.index = index
        self.temps: list[tuple[str, str, int]] = []


class _Fn:
    """One generated function: lines, prologue needs, and CSE memos."""

    def __init__(self, compiler: "_Compiler", name: str, args: tuple,
                 colsrc: str | None, binder: "_Fn | None" = None):
        self.compiler = compiler
        self.name = name
        self.args = args
        self.colsrc = colsrc
        #: The ``bind`` function column-free terms go to (``None`` in it).
        self.binder = binder
        self.lines: list[tuple[int, object]] = []
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
        #: Signature stretches (``evaluate`` only) and the open one.
        self.stretches: list[_Stretch] = []
        self._stretch: _Stretch | None = None
        #: Column signature of the node being lowered.
        self._sig = 0
        self.uses_bound = False
        #: Memo slots the rendered function uses.
        self.slots = 0
        #: ``bind`` only: the names it returns, in order.
        self.exports: list[str] = []

    # -- emission helpers ----------------------------------------------
    def use(self, name: str) -> str:
        self._pro.add(name)
        return name

    def line(self, src: str) -> None:
        self.lines.append((self.indent, src))

    def temp(self, src: str) -> str:
        name = self.compiler.next_temp()
        if self._stretch is not None:
            self._stretch.temps.append((name, src, self._sig))
        else:
            self.line(f"{name} = {src}")
        return name

    def open_stretch(self) -> None:
        """Collect the following temporaries into signature blocks."""
        self._stretch = _Stretch(len(self.stretches))
        self.stretches.append(self._stretch)
        self.lines.append((self.indent, self._stretch))

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

    def bound(self, node: E.Expr) -> str:
        """``node`` (reads no column), computed once per program by
        ``bind`` and unpacked here."""
        self.uses_bound = True
        return self.binder.export(node)

    def export(self, node: E.Expr) -> str:
        """``bind`` only: lower ``node`` and return it to the others."""
        name = self.full(node)
        if name not in self.exports:
            self.exports.append(name)
        return name

    # -- full (column-vector) lowering ---------------------------------
    def full(self, node: E.Expr) -> str:
        comp = self.compiler
        key = comp.key(node)
        if key == self._truth:
            return self.use("_ONES")
        got = self._fmemo.get(key)
        if got is None:
            if self.binder is not None and comp.bindable(node):
                got = self.bound(node)
            else:
                outer, self._sig = self._sig, comp.signature(node)
                got = self._full(node)
                self._sig = outer
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
            return self.temp(f"C._params[{node.label!r}]")
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
            if self.binder is not None and self.compiler.bindable(node):
                got = self.bound(node)
                if node.space != E.SCALAR:
                    got = self.temp(f"{got}[idx]")
            else:
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
        if node.space == E.SCALAR:
            return self.local(node)
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
    def emit_assign(self, var: str, value: E.Expr, where) -> None:
        """``var := value`` at ``idx`` (where ``where`` holds)."""
        target = f"write[{var!r}]"
        if where is None:
            self.line(f"{target}[idx] = {self.local(value)}")
            return
        if where.space == E.SCALAR:
            raise AlgorithmError(
                f"Assign({var!r}): condition must be per-process"
            )
        cond = self.local(where)
        sub = self.temp(f"idx[{cond}]")
        if value.space == E.SCALAR:
            self.line(f"{target}[{sub}] = {self.local(value)}")
        else:
            self.line(f"{target}[{sub}] = {self.local(value)}[{cond}]")

    def emit_action(self, assigns, rewrite) -> None:
        """An action's assignments (their expressions passed through
        ``rewrite``), then ``return`` the bitmask of the columns whose
        values at ``idx`` they changed.

        Each written column's pre-step values at ``idx`` are loaded first
        (shared with the action's own reads of it), and after the
        assignments the written column is gathered back at ``idx`` and
        compared with them as bytes."""
        olds = {assign.var: self.local(E.Col(assign.var)) for assign in assigns}
        for assign in assigns:
            self.emit_assign(
                assign.var, rewrite(assign.value),
                None if assign.where is None else rewrite(assign.where),
            )
        self.line("_c = 0")
        for var, old in olds.items():
            self.line(f"if write[{var!r}][idx].tobytes() != {old}.tobytes():")
            self.line(f"    _c |= {bin(self.compiler.bit(var))}")
        self.line("return _c")

    def emit_masks_return(self, guards: dict, predicates: dict) -> None:
        """``return {rule: mask…}, {predicate: mask…}``, guards first so
        the predicates reuse their temporaries."""
        parts = []
        for exprs in (guards, predicates):
            srcs = [f"{name!r}: {self.full(e)}" for name, e in exprs.items()]
            parts.append("{" + ", ".join(srcs) + "}")
        self._stretch = None
        self.line(f"return {parts[0]}, {parts[1]}")

    # -- rendering -----------------------------------------------------
    def render(self, bound: list[str]) -> str:
        """The function's source; ``bound`` are the names ``bind``
        returns.  Numbers the memo slots (:attr:`slots`)."""
        needs = set(self._pro)
        if needs & _NEEDS_CSR:
            needs.add("_CSR")
        out = [f"def {self.name}({', '.join(self.args)}):"]
        for name, definition in _PROLOGUE:
            if name in needs:
                out.append(f"    {name} = {definition}")
        if self.uses_bound:
            out.append(f"    {_tuple(bound)} = C._bound")
        if self.stretches:
            out.append("    _D, _S = M.dirty, M.slots")
            outside = self._references()
        for indent, item in self.lines:
            pad = "    " * (indent + 1)
            if isinstance(item, _Stretch):
                out += self._render_stretch(item, pad, outside)
            else:
                out.append(pad + item)
        if self.binder is None:
            out.append(f"    return ({_tuple(self.exports)})")
        return "\n".join(out)

    def _blocks(self, stretch: _Stretch) -> list[list[tuple[str, str]]]:
        """``(signature, temps)`` of ``stretch`` grouped by signature, in
        dependency order: a term reads only terms whose signature is a
        subset of its own, so blocks run by signature size, then by
        first use."""
        blocks: dict[int, list] = {}
        for name, src, sig in stretch.temps:
            blocks.setdefault(sig, []).append((name, src))
        order = sorted(blocks, key=lambda sig: bin(sig).count("1"))
        return [(sig, blocks[sig]) for sig in order]

    def _references(self) -> dict[str, int]:
        """Per temporary, how many statements and blocks read it."""
        units = [item for _, item in self.lines if isinstance(item, str)]
        for stretch in self.stretches:
            units += [" ".join(src for _, src in temps)
                      for _, temps in self._blocks(stretch)]
        counts: dict[str, int] = {}
        for unit in units:
            for name in set(_TEMP_REF.findall(unit)):
                counts[name] = counts.get(name, 0) + 1
        return counts

    def _render_stretch(self, stretch, pad, outside) -> list[str]:
        """One ``if`` per signature block: run it when a column of its
        signature changed, else take its outputs from the memo."""
        blocks = self._blocks(stretch)
        if not blocks:
            return []
        k = stretch.index
        out = [f"{pad}_d = _D[{k}]"]
        for sig, temps in blocks:
            inner = set(_TEMP_REF.findall(" ".join(src for _, src in temps)))
            # The block's outputs: what a statement or block outside reads.
            outputs = _tuple([name for name, _ in temps
                              if outside.get(name, 0) > (name in inner)])
            out.append(f"{pad}if _d & {bin(sig)}:")
            out += [f"{pad}    {name} = {src}" for name, src in temps]
            if outputs:
                out += [f"{pad}    _S[{self.slots}] = {outputs}", f"{pad}else:",
                        f"{pad}    {outputs} = _S[{self.slots}]"]
                self.slots += 1
        # Cleared only once every block ran: an evaluation that raised
        # leaves its stretch dirty.
        out.append(f"{pad}_D[{k}] = 0")
        return out


def _tuple(names: list[str]) -> str:
    """``a, b`` / ``a,`` — a tuple display of ``names``."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


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
        #: Column name → its bit (schema order), the bits of the int8
        #: enum columns, and the signature memo.
        self._bits: dict[str, int] = {}
        self._enums = 0
        if rule_set is not None:
            for var in rule_set.schema.vars:
                if var.kind == "enum":
                    self._enums |= self.bit(var.name)
                self.bit(var.name)
        self._sigs: dict[int, int] = {}

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

    # -- column signatures ---------------------------------------------
    def bit(self, name: str) -> int:
        """The memo bit of column ``name``."""
        return self._bits.setdefault(name, 1 << len(self._bits))

    def signature(self, node) -> int:
        """Bitmask of the columns ``node`` reads, transitively."""
        key = self.key(node)
        got = self._sigs.get(key)
        if got is None:
            if isinstance(node, E.Col):
                got = self.bit(node.name)
            else:
                got = 0
                for child in _children(node):
                    got |= self.signature(child)
            self._sigs[key] = got
        return got

    def bindable(self, node) -> bool:
        """Whether ``node`` belongs to the bind prologue: it reads no
        column and is not a leaf every function names directly."""
        if isinstance(node, (E.Const, E.NProcs, E.ProcIndex)):
            return False
        if isinstance(node, (E.Neigh, E.Own)) and isinstance(node.arg, E.ProcIndex):
            return False
        return not self.signature(node)

    # -- rewrites ------------------------------------------------------
    def rewrite(self, node, rule, memo: dict):
        """``node`` with ``rule`` applied bottom-up at every node (one
        result per structural key)."""
        key = self.key(node)
        got = memo.get(key)
        if got is None:
            fields = {
                slot: self.rewrite(value, rule, memo)
                for slot in type(node).__slots__
                if isinstance(value := getattr(node, slot), E.Expr)
            }
            if any(new is not getattr(node, slot) for slot, new in fields.items()):
                rebuilt = object.__new__(type(node))
                rebuilt.space = node.space
                for slot in type(node).__slots__:
                    setattr(rebuilt, slot, fields.get(slot, getattr(node, slot)))
                node = rebuilt
            got = memo[key] = rule(node)
        return got

    def fold_first(self, node):
        """``Reduce(min|max, Neigh(v), where=Neigh(m), default=identity)``
        → ``Reduce(min|max, Neigh(where(m, v, identity)))``: the mask is
        applied per process, before the one gather."""
        if not (isinstance(node, E.Reduce) and node.kind in _IDENTITY
                and node.default == _IDENTITY[node.kind]
                and isinstance(node.value, E.Neigh)
                and isinstance(node.where, E.Neigh)
                and node.value.arg.space == node.where.arg.space == E.PROC
                # bool or int64 values (no int8 enum code reaches them)
                # fold with the int64 identity
                and not self.signature(node.value.arg) & self._enums):
            return node
        folded = E.Where(node.where.arg, node.value.arg, E.Const(node.default))
        return E.Reduce(node.kind, E.Neigh(folded), None, node.default)

    def sinker(self, roots):
        """The rule ``Neigh(x) <op> Const`` → ``Neigh(x <op> Const)``
        for gathers ``roots`` read nowhere else."""
        parents: dict[int, int] = {}
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            key = self.key(node)
            if key in seen:
                continue
            seen.add(key)
            for child in _children(node):
                ckey = self.key(child)
                parents[ckey] = parents.get(ckey, 0) + 1
                stack.append(child)

        def sink(node):
            if not isinstance(node, E.BinOp):
                return node
            a, b = node.a, node.b
            for gather, other in ((a, b), (b, a)):
                if (isinstance(gather, E.Neigh) and isinstance(other, E.Const)
                        and gather.arg.space == E.PROC
                        and parents.get(self.key(gather)) == 1):
                    x = gather.arg
                    return E.Neigh(E.BinOp(node.op, x, other) if gather is a
                                   else E.BinOp(node.op, other, x))
            return node

        return sink


def _children(node):
    """``node``'s operand expressions."""
    return [value for slot in type(node).__slots__
            if isinstance(value := getattr(node, slot), E.Expr)]


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
    program (base and tiled) bound from one rule set.

    ``bits`` maps each column to its bit; ``stretches``/``slots`` size
    a :class:`Memo`."""

    __slots__ = ("eval_fn", "apply_fns", "bind_fn", "source", "bits",
                 "stretches", "slots")

    def __init__(self, eval_fn, apply_fns, bind_fn, source, bits,
                 stretches, slots):
        self.eval_fn = eval_fn
        self.apply_fns = apply_fns
        self.bind_fn = bind_fn
        self.source = source
        self.bits = bits
        self.stretches = stretches
        self.slots = slots


def compile_rule_set(rule_set) -> _KernelCode:
    """Generate and exec the numpy functions for one rule set."""
    comp = _Compiler(rule_set)
    binder = _Fn(comp, "bind", ("C",), None)

    # Rewrite every guard-side root at once, so the sinking rule sees
    # every use of a gather.
    predicates = dict(rule_set.predicates)
    guards = {rule.label: rule.guard for rule in rule_set.rules}
    fast = rule_set.fast_path
    roots = [*predicates.values(), *guards.values()]
    if fast is not None:
        roots += [fast.trigger, *fast.guards.values()]
    folds: dict = {}
    sink = comp.sinker(roots)
    sunk: dict = {}

    def guard_side(node):
        return comp.rewrite(comp.rewrite(node, sink, sunk), comp.fold_first, folds)

    predicates = {name: guard_side(e) for name, e in predicates.items()}
    guards = {label: guard_side(e) for label, e in guards.items()}

    guard = _Fn(comp, "evaluate", ("cols", "C", "M"), "cols", binder)
    guard.open_stretch()
    if fast is not None:
        trigger = guard_side(fast.trigger)
        guard.line(f"if {_trigger_test(guard, trigger)}:")
        guard.begin_block(trigger)
        guard.open_stretch()
        guard.emit_masks_return(
            {label: guard_side(e) for label, e in fast.guards.items()},
            predicates,
        )
        guard.end_block()
        guard.open_stretch()
    guard.emit_masks_return(guards, predicates)
    comp.fns.append(guard)

    apply_names = {}
    for i, rule in enumerate(rule_set.rules):
        fn = _Fn(comp, f"apply_{i}", ("idx", "read", "write", "C"), "read",
                 binder)
        fn.emit_action(rule.action,
                       lambda node: comp.rewrite(node, comp.fold_first, folds))
        comp.fns.append(fn)
        apply_names[rule.label] = fn.name

    source = "\n\n".join(
        fn.render(binder.exports) for fn in [binder, *comp.fns]
    )
    ns = {"np": np}
    exec(compile(source, f"<repro.ir:{rule_set.name}>", "exec"), ns)
    return _KernelCode(
        eval_fn=ns["evaluate"],
        apply_fns={label: ns[fname] for label, fname in apply_names.items()},
        bind_fn=ns["bind"],
        source=source,
        bits=dict(comp._bits),
        stretches=len(guard.stretches),
        slots=guard.slots,
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
    bits:
        Column name → its :class:`Memo` bit.
    """

    def __init__(self, rule_set, csr, params):
        self.rule_set = rule_set
        self._code = code = rule_set.kernel_code()
        self.csr = csr
        self.schema = rule_set.schema
        self.rules = rule_set.rule_labels
        self.predicates = tuple(rule_set.predicates)
        self.bits = code.bits
        #: Param name → the bound read-only per-process array.
        self._params = params
        self._arange = self._ones = None
        #: What the generated ``bind`` computed, and the CSR ``indices``
        #: it computed it for (rewiring replaces them).
        self._bound = self._bound_ix = None

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

    def _rebind(self) -> None:
        """Run the bind prologue for the current CSR."""
        self._bound_ix = self.csr.indices
        self._bound = self._code.bind_fn(self)

    # -- program contract ----------------------------------------------
    def memo(self) -> Memo:
        """A fresh guard memo for :meth:`evaluate` (everything dirty)."""
        return Memo(self._code.stretches, self._code.slots)

    def guard_masks(self, cols):
        """Boolean enabled-mask per rule, evaluated on every process.

        A rule whose guard is everywhere false may be omitted (the fast
        path does): consumers read a missing key as an all-false mask.
        """
        return self.evaluate(cols)[0]

    def evaluate(self, cols, memo: Memo | None = None):
        """``(guard masks, predicate masks)`` of one configuration, from
        one generated function: the :meth:`guard_masks` dict, and every
        declared predicate's per-process mask by name (never ANDed with
        anything).

        With a ``memo`` (:meth:`memo`) whose marks name every column
        whose values changed since its last evaluation on this program, only the
        signature blocks those columns reach are recomputed; the
        returned arrays may then be the previous call's, so callers must
        not write into them.
        """
        if self._bound_ix is not self.csr.indices:
            self._rebind()
        return self._code.eval_fn(cols, self, memo or self.memo())

    def apply(self, rule, idx, read, write) -> int:
        """Execute ``rule`` at the processes in ``idx``: reads come from
        ``read`` (the frozen pre-step columns), writes go to ``write``.
        Returns the bitmask (:attr:`bits`) of the columns whose values at
        ``idx`` the action changed — what a :class:`Memo` is marked with."""
        try:
            fn = self._code.apply_fns[rule]
        except KeyError:
            raise AlgorithmError(
                f"{self.rule_set.name}: unknown rule {rule!r}"
            ) from None
        if self._bound_ix is not self.csr.indices:
            self._rebind()
        return fn(idx, read, write, self)

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
