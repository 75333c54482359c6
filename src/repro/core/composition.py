"""Generic algorithm composition ``A ∘ B`` (paper, Section 2.5).

The composition of two algorithms is the algorithm whose local program
consists of all variables and rules of both.  :class:`Composition` realizes
this for any number of components whose variable names are disjoint; each
component's guards see the merged per-process state, so components may read
(but, by the model, never write) each other's variables.

The paper's central composition ``I ∘ SDR`` is *not* built with this class
— SDR's guards are parameterized by the input algorithm's predicates, so
:class:`repro.reset.sdr.SDR` owns its input component directly.  This
generic class serves the baselines (e.g. the BFS-tree + reset-wave stack of
the mono-initiator baseline) and user experiments.
"""

from __future__ import annotations

from random import Random
from typing import Any, Sequence

from .algorithm import Algorithm
from .configuration import Configuration
from .exceptions import AlgorithmError

__all__ = ["Composition"]


class Composition(Algorithm):
    """Union of several component algorithms on the same network.

    Rule labels are namespaced ``"<component-name>:<rule>"`` to keep them
    unambiguous in traces and move accounting.
    """

    def __init__(self, components: Sequence[Algorithm], name: str | None = None):
        if not components:
            raise AlgorithmError("a composition needs at least one component")
        networks = {id(c.network) for c in components}
        if len(networks) != 1:
            raise AlgorithmError("all composed algorithms must share one network")
        super().__init__(components[0].network)

        self.components = tuple(components)
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise AlgorithmError(f"component names must be unique, got {names}")
        self.name = name if name is not None else " o ".join(reversed(names))

        seen: dict[str, str] = {}
        for comp in self.components:
            for var in comp.variables():
                if var in seen:
                    raise AlgorithmError(
                        f"variable {var!r} declared by both {seen[var]!r} and {comp.name!r}"
                    )
                seen[var] = comp.name
        self._variables = tuple(seen)

        self._rules: tuple[str, ...] = tuple(
            f"{comp.name}:{rule}" for comp in self.components for rule in comp.rule_names()
        )
        self._rule_owner: dict[str, tuple[Algorithm, str]] = {
            f"{comp.name}:{rule}": (comp, rule)
            for comp in self.components
            for rule in comp.rule_names()
        }
        self.guard_locality = max(c.guard_locality for c in self.components)

    # ------------------------------------------------------------------
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def rule_names(self) -> tuple[str, ...]:
        return self._rules

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        comp, local_rule = self._rule_owner[rule]
        return comp.guard(local_rule, cfg, u)

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        comp, local_rule = self._rule_owner[rule]
        return comp.execute(local_rule, cfg, u)

    def initial_state(self, u: int) -> dict[str, Any]:
        state: dict[str, Any] = {}
        for comp in self.components:
            state.update(comp.initial_state(u))
        return state

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        state: dict[str, Any] = {}
        for comp in self.components:
            state.update(comp.random_state(u, rng))
        return state

    def rule_set(self):
        """Merged IR definition, when *every* component declares one.

        Component rule sets concatenate with labels namespaced
        ``"<component-name>:<rule>"`` — the same labels the dict methods
        use — so the generated kernel program is trace-compatible with
        the dict backend.  Any unported component keeps the whole
        composition on the dict backend.
        """
        from ..ir import merge_rule_sets, rule_set_of

        parts = []
        for comp in self.components:
            rs = comp.rule_set()
            if rs is None:
                return None
            parts.append((comp.name, rs))
        return rule_set_of(merge_rule_sets, self.name, tuple(parts))

    def param_values(self):
        """Every component's param values; components sharing a param
        name must agree on its values (one name is one input)."""
        values: dict[str, Any] = {}
        for comp in self.components:
            for label, per_process in comp.param_values().items():
                per_process = tuple(per_process)
                if values.setdefault(label, per_process) != per_process:
                    raise AlgorithmError(
                        f"{self.name}: components disagree on param {label!r}"
                    )
        return values

    def component(self, name: str) -> Algorithm:
        """Look up a component by its algorithm name."""
        for comp in self.components:
            if comp.name == name:
                return comp
        raise AlgorithmError(f"no component named {name!r} in {self.name!r}")
