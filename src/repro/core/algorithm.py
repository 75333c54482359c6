"""Distributed algorithms as guarded-rule programs.

A distributed algorithm in the locally shared memory model is one local
program per process, each a finite set of rules ``⟨label⟩ : ⟨guard⟩ →
⟨action⟩`` (paper, Section 2.2).  :class:`Algorithm` captures exactly that:
subclasses declare variable names and rule labels, and implement ``guard``
and ``execute`` per rule.

Conventions
-----------
* Guards are pure: they read the configuration (their own closed
  neighborhood only — see :attr:`Algorithm.guard_locality`) and must not
  mutate it.
* ``execute`` returns the *new values of the executing process's own
  variables* as a dict; it must not write to other processes (the model
  forbids writing neighbors' registers).
* All algorithms are parameterized by the :class:`~repro.core.graph.Network`
  they run on, fixed at construction.
"""

from __future__ import annotations

import abc
from random import Random
from typing import Any, Mapping

from .configuration import Configuration
from .exceptions import AlgorithmError
from .graph import Network

__all__ = ["Algorithm"]


class Algorithm(abc.ABC):
    """Base class for guarded-rule distributed algorithms.

    Subclasses must provide:

    * :attr:`name` — short human-readable algorithm name;
    * :meth:`variables` — names of the locally shared variables;
    * :meth:`rule_names` — labels of the rules, in a fixed order;
    * :meth:`guard` / :meth:`execute` — rule semantics;
    * :meth:`initial_state` — the pre-defined initial state ``γ_init``;
    * :meth:`random_state` — an arbitrary state drawn from the variable
      domains (used to build the "arbitrary initial configuration" that
      self-stabilization quantifies over, and by fault injection).
    """

    #: Human-readable name, overridden by subclasses.
    name: str = "algorithm"

    #: Maximum graph distance a guard may look at.  Every algorithm in the
    #: paper is distance-1 (closed neighborhood); the simulator relies on
    #: this to maintain the enabled set incrementally.
    guard_locality: int = 1

    #: Whether the rules are pairwise mutually exclusive (at most one rule
    #: enabled per process in any configuration).  SDR proves this
    #: (Lemma 5); when ``True`` the simulator asserts it in strict mode.
    mutually_exclusive_rules: bool = False

    def __init__(self, network: Network):
        self.network = network

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def variables(self) -> tuple[str, ...]:
        """Names of the locally shared variables of every process."""

    @abc.abstractmethod
    def rule_names(self) -> tuple[str, ...]:
        """Labels of the rules of the local program."""

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        """Evaluate the guard of ``rule`` at process ``u`` in ``cfg``."""

    @abc.abstractmethod
    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        """Compute the action of ``rule`` at ``u``.

        Returns the new values of (a subset of) ``u``'s own variables,
        reading neighbor states from the frozen pre-step ``cfg``.
        """

    # ------------------------------------------------------------------
    # Configurations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_state(self, u: int) -> dict[str, Any]:
        """The pre-defined initial state of process ``u`` (``γ_init``)."""

    @abc.abstractmethod
    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        """An arbitrary state of ``u``, uniform-ish over variable domains."""

    def rule_set(self):
        """Declarative IR definition of this algorithm, or ``None``.

        Algorithms ported to the rule language return a
        :class:`repro.ir.rules.RuleSet` stating their guards and actions
        once as expression trees.  A rule set is structure only: it
        depends on the algorithm's shape (a period, a distance cap),
        never on its network or per-process values, and comes from the
        per-process cache :func:`repro.ir.rules.rule_set_of`, so every
        instance of one shape shares it and its generated code.  Both
        execution backends bind it to :attr:`network` and
        :meth:`param_values` (``compile_dict`` for the per-process
        contract, ``compile_kernel`` for the array kernel).  The default
        is ``None``: dict methods only, no kernel backend.
        """
        return None

    def param_values(self) -> Mapping[str, Any]:
        """The per-process values :meth:`rule_set`'s params bind to:
        param name → one value per process (identifiers, ``f``/``g``
        thresholds, root flags).  Default: no params."""
        return {}

    def kernel_program(self):
        """Array-backed execution program for :mod:`repro.core.kernel`:
        :meth:`rule_set` bound to this network and :meth:`param_values`
        (an :class:`~repro.ir.kernelc.IRKernelProgram`), whose guards and
        actions operate on flat per-variable columns.  The simulator
        then offers ``backend="kernel"`` (and ``backend="auto"`` prefers
        it).  ``None`` means no rule set, or values the rule set's
        ``tile_check`` refuses (identifiers that would overflow a
        composite key): dict backend only.

        Each call returns a new program with its own
        :class:`~repro.core.kernel.csr.CSRAdjacency`, which churn edits
        in place; the generated code is the rule set's, shared.
        """
        rs = self.rule_set()
        if rs is None:
            return None
        return rs.compile_kernel(self.network, self.param_values())

    def initial_configuration(self) -> Configuration:
        """``γ_init``: every process in its pre-defined initial state."""
        return Configuration.build(self.network.n, self.initial_state)

    def random_configuration(self, rng: Random) -> Configuration:
        """An arbitrary configuration (self-stabilization's starting point)."""
        return Configuration.build(self.network.n, lambda u: self.random_state(u, rng))

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def enabled_rules(self, cfg: Configuration, u: int) -> tuple[str, ...]:
        """Labels of the rules enabled at ``u`` in ``cfg``."""
        return tuple(r for r in self.rule_names() if self.guard(r, cfg, u))

    def is_enabled(self, cfg: Configuration, u: int) -> bool:
        """Whether at least one rule of ``u`` is enabled in ``cfg``."""
        return any(self.guard(r, cfg, u) for r in self.rule_names())

    def enabled_processes(self, cfg: Configuration) -> list[int]:
        """The paper's ``Enabled(γ)``: processes with an enabled rule."""
        return [u for u in self.network.processes() if self.is_enabled(cfg, u)]

    def is_terminal(self, cfg: Configuration) -> bool:
        """Whether no rule is enabled at any process."""
        return not any(self.is_enabled(cfg, u) for u in self.network.processes())

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def validate_state(self, state: Mapping[str, Any], u: int) -> None:
        """Check that ``state`` declares exactly this algorithm's variables."""
        expected = set(self.variables())
        actual = set(state)
        if expected != actual:
            raise AlgorithmError(
                f"{self.name}: process {u} state has variables {sorted(actual)}, "
                f"expected {sorted(expected)}"
            )

    def check_rule(self, rule: str) -> None:
        if rule not in self.rule_names():
            raise AlgorithmError(f"{self.name}: unknown rule {rule!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.network.n})"
