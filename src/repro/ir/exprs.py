"""Expression nodes of the rule IR.

An algorithm's guards and actions are built from these nodes once and
compiled twice: :mod:`repro.ir.dictc` interprets them per process against
the dict-of-dicts state contract, :mod:`repro.ir.kernelc` generates a
vectorized numpy program over typed columns.  Expressions are typed by
*space*:

* ``"scalar"`` — one value for the whole system (constants, ``NProcs``);
* ``"proc"``   — one value per process (columns, reductions, gathers);
* ``"edge"``   — one value per *(process, neighbor)* pair, produced by
  :class:`Neigh`/:class:`Own` and consumed by :class:`Reduce`.

Scalars coerce into either space; mixing ``proc`` and ``edge`` operands
in one operation is a construction-time error (wrap the process-space
side in :func:`neigh` or :func:`own` first — the classic vectorization
bug this IR exists to rule out).

Values are machine-encoded throughout: enum variables are their int8
codes, ``opt_index`` variables are int64 with ``-1`` for ⊥ (see
:class:`repro.core.kernel.schema.Var`).  Both compilers agree on python
``%``/``//`` semantics for negative operands (numpy matches python here),
which the congruence-window guards rely on.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from ..core.exceptions import AlgorithmError

__all__ = [
    "SCALAR", "PROC", "EDGE",
    "Expr", "Const", "Col", "Param", "ProcIndex", "NProcs",
    "Neigh", "Own", "BinOp", "UnOp", "Where", "Gather", "Reduce",
    "as_expr", "col", "const", "param", "proc_index", "nprocs",
    "neigh", "own", "neigh_index", "where", "gather",
    "minimum", "maximum", "sign", "absval",
    "all_neighbors", "any_neighbors", "count_neighbors",
    "min_over_neighbors", "max_over_neighbors",
    "Argmin", "argmin_over_neighbors", "argmax_over_neighbors",
]

SCALAR = "scalar"
PROC = "proc"
EDGE = "edge"

ExprLike = Union["Expr", int, bool]


def as_expr(value: ExprLike) -> "Expr":
    """Coerce a python int/bool into a :class:`Const`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (bool, int)):
        return Const(value)
    raise AlgorithmError(
        f"cannot use {value!r} ({type(value).__name__}) in an IR expression"
    )


def _join(a: str, b: str) -> str:
    if a == b:
        return a
    if a == SCALAR:
        return b
    if b == SCALAR:
        return a
    raise AlgorithmError(
        "cannot mix process-space and edge-space expressions in one "
        "operation; lift the process side with neigh(...) or own(...)"
    )


class Expr:
    """Base expression.  Operators build trees; ``==`` builds a node, so
    expressions are hashed/compared by identity and have no truth value."""

    __slots__ = ("space",)

    def __init__(self, space: str):
        self.space = space

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, as_expr(other))

    def __rfloordiv__(self, other):
        return BinOp("//", as_expr(other), self)

    def __mod__(self, other):
        return BinOp("%", self, as_expr(other))

    def __rmod__(self, other):
        return BinOp("%", as_expr(other), self)

    def __neg__(self):
        return UnOp("-", self)

    # -- comparisons ---------------------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return BinOp("==", self, as_expr(other))

    def __ne__(self, other):  # type: ignore[override]
        return BinOp("!=", self, as_expr(other))

    def __lt__(self, other):
        return BinOp("<", self, as_expr(other))

    def __le__(self, other):
        return BinOp("<=", self, as_expr(other))

    def __gt__(self, other):
        return BinOp(">", self, as_expr(other))

    def __ge__(self, other):
        return BinOp(">=", self, as_expr(other))

    # -- boolean -------------------------------------------------------
    def __and__(self, other):
        return BinOp("&", self, as_expr(other))

    def __rand__(self, other):
        return BinOp("&", as_expr(other), self)

    def __or__(self, other):
        return BinOp("|", self, as_expr(other))

    def __ror__(self, other):
        return BinOp("|", as_expr(other), self)

    def __invert__(self):
        return UnOp("~", self)

    # ``==`` is overloaded, so identity is the only sane hash/truth.
    __hash__ = object.__hash__

    def __bool__(self):
        raise TypeError(
            "IR expressions have no truth value; use &, |, ~ instead of "
            "and/or/not, and build conditionals with where(...)"
        )


class Const(Expr):
    """A python int or bool literal (scalar space)."""

    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__(SCALAR)
        if isinstance(value, bool):
            self.value = value
        elif isinstance(value, int):
            self.value = int(value)
        else:
            raise AlgorithmError(f"Const wants an int or bool, got {value!r}")

    def __repr__(self):
        return f"Const({self.value!r})"


class Col(Expr):
    """The owner's value of a schema variable (machine-encoded)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__(PROC)
        self.name = name

    def __repr__(self):
        return f"Col({self.name!r})"


class Param(Expr):
    """A named per-process input (e.g. process ids, per-process
    thresholds, root flags).  The rule set holds only the name; a
    program binds one value per process under it when it is built on a
    network (:meth:`repro.ir.rules.RuleSet.compile_kernel`), and tiled
    batches repeat those values per block.  Two params with one name
    are one input."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        if not isinstance(label, str):
            raise AlgorithmError(
                f"param() takes a name, got {label!r}; bind the values "
                "when the program is built"
            )
        super().__init__(PROC)
        self.label = label

    def __repr__(self):
        return f"Param({self.label!r})"


class ProcIndex(Expr):
    """The process's own index ``u`` (global index in tiled layouts)."""

    __slots__ = ()

    def __init__(self):
        super().__init__(PROC)


class NProcs(Expr):
    """Total number of processes *in the running layout* (``T·n`` when
    tiled).  Use a :class:`Const` for the per-block ``n``."""

    __slots__ = ()

    def __init__(self):
        super().__init__(SCALAR)


class Neigh(Expr):
    """Lift a process-space expression to edge space: per edge slot, the
    *neighbor's* value."""

    __slots__ = ("arg",)

    def __init__(self, arg: ExprLike):
        arg = as_expr(arg)
        if arg.space == EDGE:
            raise AlgorithmError("Neigh(...) of an edge-space expression")
        super().__init__(EDGE)
        self.arg = arg


class Own(Expr):
    """Lift a process-space expression to edge space: per edge slot, the
    *owner's* value."""

    __slots__ = ("arg",)

    def __init__(self, arg: ExprLike):
        arg = as_expr(arg)
        if arg.space == EDGE:
            raise AlgorithmError("Own(...) of an edge-space expression")
        super().__init__(EDGE)
        self.arg = arg


_BIN_OPS = frozenset(
    {"+", "-", "*", "//", "%", "==", "!=", "<", "<=", ">", ">=", "&", "|",
     "min2", "max2"}
)


class BinOp(Expr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in _BIN_OPS:
            raise AlgorithmError(f"unknown binary op {op!r}")
        super().__init__(_join(a.space, b.space))
        self.op = op
        self.a = a
        self.b = b


_UN_OPS = frozenset({"~", "-", "sign", "abs"})


class UnOp(Expr):
    __slots__ = ("op", "a")

    def __init__(self, op: str, a: Expr):
        if op not in _UN_OPS:
            raise AlgorithmError(f"unknown unary op {op!r}")
        super().__init__(a.space)
        self.op = op
        self.a = a


class Where(Expr):
    """Elementwise conditional ``cond ? a : b`` (both branches evaluate)."""

    __slots__ = ("cond", "a", "b")

    def __init__(self, cond: ExprLike, a: ExprLike, b: ExprLike):
        cond, a, b = as_expr(cond), as_expr(a), as_expr(b)
        super().__init__(_join(_join(cond.space, a.space), b.space))
        self.cond = cond
        self.a = a
        self.b = b


class Gather(Expr):
    """``value[index]`` across processes — read another process's value
    through a pointer column (e.g. a parent pointer).  Negative indices
    (⊥ pointers) read process 0; guard the result with the pointer's
    validity."""

    __slots__ = ("index", "value")

    def __init__(self, index: ExprLike, value: ExprLike):
        index, value = as_expr(index), as_expr(value)
        if index.space == EDGE or value.space == EDGE:
            raise AlgorithmError("Gather operands must be process-space")
        super().__init__(PROC)
        self.index = index
        self.value = value


_REDUCE_KINDS = frozenset({"all", "any", "count", "min", "max"})


class Reduce(Expr):
    """Neighborhood quantifier/reduction: fold an edge-space expression
    over each process's neighbors.

    ``all``/``any``/``count`` take just the flag; ``min``/``max`` take an
    optional edge-space ``where`` filter and a required ``default`` for
    processes whose filtered neighborhood is empty.
    """

    __slots__ = ("kind", "value", "where", "default")

    def __init__(self, kind: str, value: ExprLike, where=None, default=None):
        if kind not in _REDUCE_KINDS:
            raise AlgorithmError(f"unknown reduction {kind!r}")
        value = as_expr(value)
        if value.space != EDGE:
            raise AlgorithmError(
                f"Reduce({kind!r}) wants an edge-space expression; lift "
                "with neigh(...)/own(...)"
            )
        if kind in ("all", "any", "count"):
            if where is not None or default is not None:
                raise AlgorithmError(f"Reduce({kind!r}) takes no where/default")
        else:
            if default is None:
                raise AlgorithmError(f"Reduce({kind!r}) needs a default")
            default = int(default)
            if where is not None:
                where = as_expr(where)
                if where.space != EDGE:
                    raise AlgorithmError("Reduce where-filter must be edge-space")
        super().__init__(PROC)
        self.kind = kind
        self.value = value
        self.where = where
        self.default = default


# ----------------------------------------------------------------------
# Helper constructors — the authoring vocabulary
# ----------------------------------------------------------------------
def col(name: str) -> Col:
    return Col(name)


def const(value) -> Const:
    return Const(value)


def param(label: str) -> Param:
    return Param(label)


def proc_index() -> ProcIndex:
    return ProcIndex()


def nprocs() -> NProcs:
    return NProcs()


def neigh(x: ExprLike) -> Neigh:
    return Neigh(x)


def own(x: ExprLike) -> Own:
    return Own(x)


def neigh_index() -> Neigh:
    """Per edge slot: the neighbor's process index."""
    return Neigh(ProcIndex())


def where(cond: ExprLike, a: ExprLike, b: ExprLike) -> Where:
    return Where(cond, a, b)


def gather(index: ExprLike, value: ExprLike) -> Gather:
    return Gather(index, value)


def minimum(a: ExprLike, b: ExprLike) -> BinOp:
    return BinOp("min2", as_expr(a), as_expr(b))


def maximum(a: ExprLike, b: ExprLike) -> BinOp:
    return BinOp("max2", as_expr(a), as_expr(b))


def sign(x: ExprLike) -> UnOp:
    return UnOp("sign", as_expr(x))


def absval(x: ExprLike) -> UnOp:
    return UnOp("abs", as_expr(x))


def all_neighbors(flag: ExprLike) -> Reduce:
    """``∀v ∈ N(u): flag(u, v)`` — vacuously true for isolated processes."""
    return Reduce("all", flag)


def any_neighbors(flag: ExprLike) -> Reduce:
    """``∃v ∈ N(u): flag(u, v)``."""
    return Reduce("any", flag)


def count_neighbors(flag: ExprLike) -> Reduce:
    """``#{v ∈ N(u) | flag(u, v)}``."""
    return Reduce("count", flag)


def min_over_neighbors(value: ExprLike, *, where=None, default) -> Reduce:
    """``min{value(u, v) | v ∈ N(u), where}`` with ``default`` when empty."""
    return Reduce("min", value, where, default)


def max_over_neighbors(value: ExprLike, *, where=None, default) -> Reduce:
    """``max{value(u, v) | v ∈ N(u), where}`` with ``default`` when empty."""
    return Reduce("max", value, where, default)


class Argmin(NamedTuple):
    """Result bundle of :func:`argmin_over_neighbors`.

    ``packed`` is the raw ``key·N + index`` minimum (``sentinel`` when no
    neighbor passes the filter) — compose with further :func:`minimum`
    before decoding if the process itself competes.  ``found`` tells
    whether any candidate existed, ``index``/``key`` decode the winner
    (``index`` is ``-1`` when not found).
    """

    packed: Expr
    found: Expr
    index: Expr
    key: Expr


def _arg_reduce(kind: str, key: ExprLike, where, sentinel: int) -> Argmin:
    key = as_expr(key)
    n = NProcs()
    packed_edge = key * n + neigh_index()
    packed = Reduce(kind, packed_edge, where, sentinel)
    found = packed != sentinel
    return Argmin(
        packed=packed,
        found=found,
        index=Where(found, packed % n, Const(-1)),
        key=packed // n,
    )


def argmin_over_neighbors(key: ExprLike, *, where=None, sentinel: int) -> Argmin:
    """Neighbor minimizing ``key``, ties broken by smallest process index.

    Packs ``key·N + index`` (``N`` = :class:`NProcs`) into one composite
    int64 and min-reduces it, the standard trick behind FGA's pointer
    election and the BFS parent choice.  ``sentinel`` must exceed every
    packed candidate; callers are responsible for the no-overflow bound
    ``max(key)·N + N ≤ sentinel``.
    """
    return _arg_reduce("min", key, where, sentinel)


def argmax_over_neighbors(key: ExprLike, *, where=None, sentinel: int) -> Argmin:
    """Neighbor maximizing ``key``; ``sentinel`` must be *below* every
    packed candidate (e.g. ``-1`` with non-negative keys).  Ties break
    toward the *largest* process index."""
    return _arg_reduce("max", key, where, sentinel)
