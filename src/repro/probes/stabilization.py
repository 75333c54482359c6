"""Stabilization measurement as a capability-tiered probe.

:class:`StabilizationProbe` records the ``(step, rounds, moves)``
totals at the first configuration satisfying a legitimacy notion, keeps
counting violations afterwards (closure assertions for predicates
claimed closed — ``run_past`` suffix monitoring), and optionally stops
the run at the hit (plus ``run_past`` extra steps).

The legitimacy notion is given twice, once per tier:

* ``predicate`` — a ``Configuration -> bool`` closure (decode tier);
* ``mask`` — the name of a predicate the kernel program declares
  (``"normal"``, ``"legitimate"``), read off the driver's guard
  evaluation (vector tier).  Its all-processes conjunction must equal
  the predicate — the probe-equivalence property suite asserts the
  measurements are byte-identical.

On the kernel backend the name is checked against the program
(:func:`~repro.core.kernel.engine.check_predicate`: an undeclared name
raises ``ValueError``), :meth:`wants_decode` answers ``False`` and the
probe rides the fused loop, never evaluating anything itself; on the
dict backend, or without a mask, it decodes per step.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.exceptions import NotStabilized
from ..core.kernel.engine import check_predicate
from .base import Probe
from .view import ColumnView

__all__ = ["StabilizationProbe", "StopProbe"]

Predicate = Callable[[Any], bool]


class StabilizationProbe(Probe):
    """Records when a legitimacy notion first holds; counts violations after.

    Attributes (``None`` until the notion first holds):

    * ``step`` — steps executed before the first hit (0 when the initial
      configuration already satisfies it);
    * ``rounds`` — complete rounds elapsed at the first hit;
    * ``moves`` — total moves executed at the first hit;
    * ``violations_after_hit`` — later configurations violating the
      notion (must stay 0 for closed predicates).

    Parameters
    ----------
    predicate:
        Decode-tier legitimacy test (``Configuration -> bool``).  May be
        ``None`` when a mask is given and the execution is guaranteed to
        stay on the kernel backend.
    mask:
        Vector-tier legitimacy test: the name of a predicate the kernel
        program declares (see module docstring).
    run_past:
        Extra steps to keep executing after the hit before requesting a
        stop, so closure assertions observe the suffix (ignored when
        ``stop`` is false — the run then never stops on this probe's
        account and the suffix is whatever the caller runs).
    stop:
        Whether to request a stop once hit (+ ``run_past``).  ``False``
        turns the probe into a pure measurement device.
    """

    name = "stabilization"

    def __init__(
        self,
        predicate: Predicate | None = None,
        mask: str | None = None,
        name: str = "legitimate",
        run_past: int = 0,
        stop: bool = True,
    ):
        self.predicate = predicate
        self.mask = mask
        self.name = name
        self.run_past = run_past
        self.stop = stop
        self.step: int | None = None
        self.rounds: int | None = None
        self.moves: int | None = None
        self.violations_after_hit = 0
        self._past = 0
        #: ``mask`` once checked against a kernel program (``None``
        #: until then, and on the dict backend).
        self._test: str | None = None

    # ------------------------------------------------------------------
    @property
    def hit(self) -> bool:
        return self.step is not None

    def require_hit(self) -> None:
        if not self.hit:
            raise NotStabilized(f"predicate {self.name!r} never held")

    # ------------------------------------------------------------------
    # Capability declaration
    # ------------------------------------------------------------------
    def wants_decode(self) -> bool:
        return self._test is None

    # ------------------------------------------------------------------
    # Shared recording logic (identical on both tiers)
    # ------------------------------------------------------------------
    def _observe(self, holds: bool, steps: int, rounds: int, moves: int) -> None:
        if self.hit:
            if not holds:
                self.violations_after_hit += 1
            self._past += 1
        elif holds:
            self.step, self.rounds, self.moves = steps, rounds, moves

    # ------------------------------------------------------------------
    # Decode tier
    # ------------------------------------------------------------------
    def _holds(self, sim) -> bool:
        # Even on the decode tier, prefer the predicate bit over the
        # kernel columns: no configuration decode, identical result.
        if self._test is not None and sim._kernel is not None:
            return sim._kernel.holds(self._test)
        if self.predicate is None:
            raise ValueError(
                f"stabilization probe {self.name!r} has no decode-tier "
                "predicate and no mask a kernel program declares"
            )
        return self.predicate(sim.cfg)

    def on_start(self, sim) -> None:
        if (self._test is None and self.mask is not None
                and sim._program is not None):
            self._test = check_predicate(sim._program, self.mask)
        if not self.hit and self._holds(sim):
            self.step = sim.step_count
            self.rounds = sim.rounds.completed
            self.moves = sim.move_count

    def on_step(self, sim, record) -> None:
        self._observe(
            self._holds(sim), sim.step_count, sim.rounds.completed, sim.move_count
        )

    # ------------------------------------------------------------------
    # Vector tier
    # ------------------------------------------------------------------
    def on_columns(self, view: ColumnView) -> None:
        if self._test is None:
            # Batch-attached probes have no simulator (on_start never
            # ran): check the mask against the view's program.
            self._test = check_predicate(view.program, self.mask)
        holds = view.holds(self._test)
        if view.phase == "start":
            if not self.hit and holds:
                self.step = view.steps
                self.rounds = view.rounds
                self.moves = view.moves
            return
        self._observe(holds, view.steps, view.rounds, view.moves)

    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self.stop and self.hit and self._past >= self.run_past

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, step={self.step}, "
            f"rounds={self.rounds}, moves={self.moves}, "
            f"violations_after_hit={self.violations_after_hit})"
        )


class StopProbe(StabilizationProbe):
    """A predicate-driven stop condition, the one way to stop on a predicate.

    The run ends the first time the named predicate (``mask``) or the
    decode-tier one (``predicate``, ``Configuration -> bool``) holds
    everywhere — the initial configuration included.  A declared
    ``mask`` keeps the run fused the whole way; a decode-tier predicate
    alone is evaluated on the decoded configuration per step.
    ``hit``/``step``/``rounds``/``moves`` record where it fired.
    """

    def __init__(self, predicate: Predicate | None = None,
                 mask: str | None = None, name: str = "stop"):
        super().__init__(predicate, mask=mask, name=name, run_past=0, stop=True)
