"""The capability-tiered observation protocol.

Every measurement in this repository — stabilization times, closure
assertions, accounting snapshots, trace samples — is an *observation*
of an execution.  A decoded :class:`~repro.core.trace.StepRecord` per
step costs the array driver a Python callback per step, so
:class:`Probe` declares what it needs in two capability tiers:

* the **decode tier** — ``on_start(sim)`` / ``on_step(sim, record)``.
  Every probe supports it: the dict backend and ``Simulator.step`` use
  it, and on the kernel backend a decode-tier probe puts the per-step
  decode hook (:class:`repro.core.kernel.adapters.DecodeAdapter`) on
  the run's lane.
* the **vector tier** — ``on_columns(view)`` over a
  :class:`~repro.probes.view.ColumnView`, invoked *inline* by the array
  driver (:meth:`repro.core.kernel.engine.KernelRuntime.drive`, which
  serves single runs and batched trials alike) with no per-step
  decode.  A probe advertises this tier by returning ``False`` from
  :meth:`Probe.wants_decode`; :attr:`Simulator.fusion_available` stays
  true when *every* attached probe does, so measurement never costs a
  per-step callback.

Both tiers must report identical measurements for identical executions
(the probe-equivalence property suite asserts byte-equality); a probe
that cannot guarantee that must stay on the decode tier.

Stopping is part of the protocol: after each step (on either tier) the
driver asks :meth:`Probe.done`; any probe answering ``True`` ends the
run with ``stop_reason="probe"``.  This is how ``stop_when`` predicates
and stabilization detection express themselves without a per-step
Python closure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .view import ColumnView

if TYPE_CHECKING:  # import cycle: the simulator imports this package
    from ..core.simulator import Simulator
    from ..core.trace import StepRecord

__all__ = ["Probe"]


class Probe:
    """Base class of the two-tier observation protocol.

    Subclasses override the decode hooks (always) and, when they can
    observe columns directly, the vector hooks plus ``wants_decode``.
    The default implementation is a no-op decode-tier probe.
    """

    #: Human-readable label (diagnostics, CLI listings).
    name = "probe"

    # ------------------------------------------------------------------
    # Capability declaration
    # ------------------------------------------------------------------
    def wants_decode(self) -> bool:
        """Whether this probe needs per-step decoded records.

        ``True`` (the default) makes a kernel run call the per-step
        decode hook.  Probes returning ``False`` MUST implement
        :meth:`on_columns` and are then served inline by the array
        driver.  Consulted after :meth:`on_start` ran, so probes may
        resolve their capability against the simulator they are
        attached to (e.g. whether it runs a kernel program that declares
        the predicate they read).
        """
        return True

    # ------------------------------------------------------------------
    # Decode tier
    # ------------------------------------------------------------------
    def on_start(self, sim: "Simulator") -> None:
        """Observe the initial configuration, before any step."""

    def on_step(self, sim: "Simulator", record: "StepRecord") -> None:
        """Observe one decoded step (invoked after accounting updated)."""

    # ------------------------------------------------------------------
    # Vector tier
    # ------------------------------------------------------------------
    def on_columns(self, view: ColumnView) -> None:
        """Observe one step (or the start) in array form.

        Only invoked on probes whose :meth:`wants_decode` returned
        ``False``; ``view.phase`` distinguishes the initial
        configuration from per-step calls.
        """

    def on_stop(self, view: ColumnView) -> None:
        """Observe the final configuration once, when a fused run stops.

        The vector twin of :meth:`on_finish`: the array driver calls it
        (``view.phase == "stop"``, no ``chosen``) on every probe of a
        lane the moment the lane stops — in a batch there is no
        simulator to finish.  Default: no-op.
        """

    # ------------------------------------------------------------------
    # Fault notifications (tier-agnostic)
    # ------------------------------------------------------------------
    def on_fault(self, info) -> None:
        """Observe one mid-run fault injection (a ``FaultInfo``).

        Invoked by every driver — dict, kernel, fused, batched —
        immediately after a :class:`~repro.faults.schedule.FaultSchedule`
        occurrence corrupts the configuration, on both capability tiers.
        Injection adds no steps/moves/rounds; ``info`` carries the totals
        at the corrupted configuration plus the victims and variables
        hit.  Default: no-op.
        """

    def on_churn(self, info) -> None:
        """Observe one mid-run topology mutation (a ``ChurnInfo``).

        Invoked by every driver immediately after a
        :class:`~repro.faults.churn.ChurnSchedule` occurrence mutates
        the network — links dropped/added, processes crashed/rejoined —
        on both capability tiers.  Like fault injection, a mutation adds
        no steps/moves/rounds; ``info`` carries the totals at the
        mutated configuration plus the applied delta and the live
        subgraph's component count.  Default: no-op.
        """

    def on_finish(self, sim: "Simulator") -> None:
        """Observe the final configuration once, after the driving loop.

        Invoked exactly once per :meth:`Simulator.run` return, on the
        decode tier, after any fused execution has merged its accounting
        and synchronized churn topology back into the simulator.  Lets a
        probe settle state the per-step hooks could not see — e.g. a
        churn occurrence whose delta leaves the system immediately
        terminal *and* legitimate produces no further step to observe,
        so a recovery stopwatch closes here with zero cost.  Default:
        no-op.
        """

    # ------------------------------------------------------------------
    # Stop requests
    # ------------------------------------------------------------------
    def done(self) -> bool:
        """Whether this probe requests no further execution.

        Checked by every driver after each observation (and once on the
        initial configuration); any attached probe answering ``True``
        stops the run with ``stop_reason="probe"``.
        """
        return False
