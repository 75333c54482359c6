"""Stabilization measurement as a capability-tiered probe.

:class:`StabilizationProbe` records the ``(step, rounds, moves)``
totals at the first configuration satisfying a legitimacy notion, keeps
counting violations afterwards (closure assertions for predicates
claimed closed — ``run_past`` suffix monitoring), and optionally stops
the run at the hit (plus ``run_past`` extra steps).

The legitimacy notion is given twice, once per tier:

* ``predicate`` — a ``Configuration -> bool`` closure (decode tier);
* ``mask`` — the name of a per-process boolean mask on the kernel
  program (``"normal_mask"``, ``"legitimate_mask"``), or a callable
  ``cols -> ndarray`` (vector tier).  The all-processes conjunction of
  the mask must equal the predicate — the probe-equivalence property
  suite asserts the measurements are byte-identical.

When the mask resolves, :meth:`wants_decode` answers ``False`` and the
probe rides the fused loop; when it does not (dict backend, unported
program), the probe falls back to the decode tier — loudly, once per
rule set, when a kernel program lacks the expected mask attribute.  A
mask naming a declared predicate of the program (:func:`lane_mask`) is
never evaluated by the probe: it reads the bit the driver reduced from
its guard evaluation.
"""

from __future__ import annotations

import logging
from typing import Any, Callable

from ..core.exceptions import NotStabilized
from .base import Probe
from .view import ColumnView

__all__ = ["StabilizationProbe", "StopProbe", "lane_mask"]

Predicate = Callable[[Any], bool]

_logger = logging.getLogger(__name__)

#: ``rule_set_name.mask_attr`` combinations already warned about — one
#: warning per combination (campaigns build thousands of probes).
_MASK_FALLBACK_WARNED: set[str] = set()


def lane_mask(program, mask) -> str | Callable | None:
    """What a probe tests for ``mask``: the name of the declared
    predicate it names (``"normal_mask"`` → ``"normal"``), which the
    driver evaluates with the guards — else :func:`resolve_mask`'s
    callable.  ``ColumnView.holds`` and ``KernelRuntime.holds`` take
    either."""
    if isinstance(mask, str) and mask.endswith("_mask"):
        name = mask[: -len("_mask")]
        if name in getattr(program, "predicates", ()):
            return name
    return resolve_mask(program, mask)


def resolve_mask(program, mask) -> Callable | None:
    """``mask`` as a ``cols -> ndarray`` callable bound to ``program``.

    ``mask`` may be a callable (returned unchanged), an attribute name
    on the program, or ``None``.  A *named* mask missing from an
    otherwise-present program warns once — a rename or an unported mask
    would otherwise silently cost the fused fast path.
    """
    if mask is None:
        return None
    if callable(mask):
        return mask
    fn = getattr(program, mask, None) if program is not None else None
    if program is not None and fn is None:
        name = program.rule_set.name
        key = f"{name}.{mask}"
        if key not in _MASK_FALLBACK_WARNED:
            _MASK_FALLBACK_WARNED.add(key)
            _logger.warning(
                "kernel program of %s provides no %s; stabilization "
                "detection falls back to per-step decoding (slower, same "
                "results)",
                name,
                mask,
            )
    return fn


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
        Vector-tier legitimacy mask: a kernel-program attribute name or
        a ``cols -> ndarray`` callable (see module docstring).
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
        mask=None,
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
        #: The resolved :func:`lane_mask` (``None`` until resolved).
        self._test: str | Callable | None = mask if callable(mask) else None

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
        # Even on the decode tier, prefer the mask over the kernel
        # columns: no configuration decode, identical result.
        if self._test is not None and sim._kernel is not None:
            return sim._kernel.holds(self._test)
        if self.predicate is None:
            raise ValueError(
                f"stabilization probe {self.name!r} has no decode-tier "
                "predicate and its mask did not resolve against this "
                "simulator's backend"
            )
        return self.predicate(sim.cfg)

    def on_start(self, sim) -> None:
        if self._test is None:
            self._test = lane_mask(sim._program, self.mask)
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
            # ran): resolve a named mask against the view's program.
            self._test = lane_mask(view.program, self.mask)
            if self._test is None:
                raise ValueError(
                    f"stabilization probe {self.name!r}: mask {self.mask!r} "
                    f"did not resolve against {type(view.program).__name__}"
                )
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
    """``stop_when`` as a declared-capability probe.

    A mask-driven stop condition: the run ends the first time the mask
    (or predicate) holds everywhere, staying fused the whole way —
    unlike the ``stop_when`` closure, which forces per-step decoding.
    ``hit``/``step``/``rounds``/``moves`` record where it fired.
    """

    def __init__(self, predicate: Predicate | None = None, mask=None,
                 name: str = "stop"):
        super().__init__(predicate, mask=mask, name=name, run_past=0, stop=True)
