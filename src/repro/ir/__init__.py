"""`repro.ir` — one declarative rule language, compiled to every backend.

The paper presents its algorithms (SDR, unison, (f,g)-alliance) as sets
of guarded rules over locally shared variables.  This package makes that
the *authoring format*: an algorithm states its rules once, as
expression trees over its schema columns
(:mod:`~repro.ir.exprs`).  A rule set is structure only — per-process
inputs such as identifiers are named :class:`Param` nodes — and is
built once per shape and process (:func:`rule_set_of`).  Two compilers
bind it to a network and its per-process values to produce the
executable forms —

* :meth:`RuleSet.compile_dict` → a per-process interpreter matching the
  ``Algorithm.guard``/``execute`` dict contract
  (:mod:`~repro.ir.dictc`), used to machine-check IR definitions against
  handwritten guards;
* :meth:`RuleSet.compile_kernel` → the generated numpy program over
  CSR columns (:class:`~repro.ir.kernelc.IRKernelProgram`, the one
  program type the kernel/fused/batched engines run).  A composed system
  (``I ∘ SDR``, ``I ∘ MonoReset``) embeds its input's
  :class:`InputRuleSet` into the host's rule set, so it compiles the
  same way.

``python -m repro.ir check`` lints every registered rule set: it
compiles both backends and verifies rule-label parity, schema parity,
guard/action agreement with the native dict implementation, and mask
coverage (see :mod:`~repro.ir.check`).
"""

from .exprs import (
    Argmin,
    BinOp,
    Col,
    Const,
    Expr,
    Gather,
    Neigh,
    NProcs,
    Own,
    Param,
    ProcIndex,
    Reduce,
    UnOp,
    Where,
    absval,
    all_neighbors,
    any_neighbors,
    argmax_over_neighbors,
    argmin_over_neighbors,
    as_expr,
    col,
    const,
    count_neighbors,
    gather,
    max_over_neighbors,
    maximum,
    min_over_neighbors,
    minimum,
    neigh,
    neigh_index,
    nprocs,
    own,
    param,
    proc_index,
    sign,
    where,
)
from .rules import (
    Assign,
    FastPath,
    InputRuleSet,
    Rule,
    RuleSet,
    merge_rule_sets,
    rule_set_of,
)

__all__ = [
    # expressions
    "Expr", "Const", "Col", "Param", "ProcIndex", "NProcs", "Neigh", "Own",
    "BinOp", "UnOp", "Where", "Gather", "Reduce", "Argmin", "as_expr",
    "col", "const", "param", "proc_index", "nprocs", "neigh", "own",
    "neigh_index", "where", "gather", "minimum", "maximum", "sign", "absval",
    "all_neighbors", "any_neighbors", "count_neighbors",
    "min_over_neighbors", "max_over_neighbors",
    "argmin_over_neighbors", "argmax_over_neighbors",
    # rule sets
    "Assign", "Rule", "FastPath", "RuleSet", "InputRuleSet",
    "merge_rule_sets", "rule_set_of",
]
