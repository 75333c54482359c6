"""The input-algorithm interface of SDR (paper, Section 3.5).

SDR re-initializes an *input algorithm* ``I``.  To be resettable, ``I`` must
provide three hooks and obey five requirements:

* ``P_ICorrect(u)`` — local consistency predicate ("I is locally
  checkable"); must not read SDR variables and must be closed by ``I``
  (Req. 2a);
* ``P_reset(u)`` — characterizes the pre-defined initial state; reads only
  ``u``'s own ``I``-variables (Req. 2b);
* ``reset(u)`` — the macro writing that pre-defined state (Req. 2e);
* no rule of ``I`` is enabled at ``u`` when ``¬P_ICorrect(u) ∨ ¬P_Clean(u)``
  (Req. 2c) — ``P_Clean`` comes from SDR, so input algorithms consult their
  *host* for it;
* if every member of ``N[u]`` satisfies ``P_reset``, then ``P_ICorrect(u)``
  (Req. 2d);
* ``I`` never writes SDR's variables (Req. 1 — guaranteed by construction
  here, since actions may only return their own declared variables).

:class:`InputAlgorithm` encodes this contract.  An input algorithm can run
*standalone* (the paper's Theorems 5, 9: ``U`` and ``FGA`` are correct
non-self-stabilizing algorithms from ``γ_init``); standalone instances see a
:class:`TrivialHost` whose ``P_Clean`` is constantly true.
"""

from __future__ import annotations

import abc
from typing import Any, Protocol

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration

__all__ = ["Host", "TrivialHost", "InputAlgorithm"]


class Host(Protocol):
    """What an input algorithm may ask of the layer hosting it."""

    def p_clean(self, cfg: Configuration, u: int) -> bool:
        """Whether every member of ``N[u]`` has reset status ``C``."""
        ...


class TrivialHost:
    """Host used when the input algorithm runs without SDR.

    Standalone execution corresponds to a system where no reset is ever in
    progress, i.e. ``P_Clean`` holds everywhere, always.
    """

    def p_clean(self, cfg: Configuration, u: int) -> bool:
        return True


_TRIVIAL_HOST = TrivialHost()


class InputAlgorithm(Algorithm):
    """Base class for SDR-resettable algorithms (the paper's ``I``)."""

    def __init__(self, network):
        super().__init__(network)
        self._host: Host = _TRIVIAL_HOST

    # ------------------------------------------------------------------
    # Host wiring
    # ------------------------------------------------------------------
    @property
    def host(self) -> Host:
        return self._host

    def attach(self, host: Host) -> None:
        """Called by SDR when this instance becomes its input algorithm."""
        self._host = host

    def detach(self) -> None:
        """Return to standalone mode (``P_Clean ≡ true``)."""
        self._host = _TRIVIAL_HOST

    def p_clean(self, cfg: Configuration, u: int) -> bool:
        """``P_Clean(u)`` as seen through the host."""
        return self._host.p_clean(cfg, u)

    # ------------------------------------------------------------------
    # The SDR contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def p_icorrect(self, cfg: Configuration, u: int) -> bool:
        """``P_ICorrect(u)``: ``u``'s ``I``-state is consistent locally.

        Must read only ``I``-variables of ``N[u]`` and be closed by ``I``.
        """

    @abc.abstractmethod
    def p_reset(self, cfg: Configuration, u: int) -> bool:
        """``P_reset(u)``: ``u`` is in the pre-defined initial ``I``-state.

        Must read only ``u``'s *own* ``I``-variables.
        """

    @abc.abstractmethod
    def reset_updates(self, cfg: Configuration, u: int) -> dict[str, Any]:
        """The macro ``reset(u)``: variable updates installing the
        pre-defined initial state.  After applying them (alone),
        ``P_reset(u)`` must hold (Requirement 2e)."""

    # ------------------------------------------------------------------
    # Array-backed kernel support
    # ------------------------------------------------------------------
    def input_rule_set(self):
        """Declarative IR definition of this input algorithm, or ``None``.

        Returns a :class:`repro.ir.rules.InputRuleSet` carrying, besides
        the rules, the ``P_ICorrect``/``P_reset`` predicate expressions
        and the ``reset(u)`` action — everything a reset host needs to
        compose with at the IR level.  Like every rule set it is
        structure only; a host binds its params to this algorithm's
        :meth:`param_values`.
        """
        return None

    def rule_set(self):
        """Standalone view: the input rule set itself (trivial host), or
        ``None`` while a host is attached — an attached input algorithm is
        simulated through its host's composed rule set instead.

        Rules marked ``clean_gated`` compile ungated from here, which is
        exactly the trivial host's ``P_Clean ≡ true``.
        """
        if not isinstance(self._host, TrivialHost):
            return None
        return self.input_rule_set()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def all_icorrect(self, cfg: Configuration) -> bool:
        """Whether ``P_ICorrect`` holds at every process."""
        return all(self.p_icorrect(cfg, u) for u in self.network.processes())
