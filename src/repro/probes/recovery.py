"""Recovery measurement for mid-run fault injection.

:class:`RecoveryProbe` is the fault-workload counterpart of
:class:`~repro.probes.stabilization.StabilizationProbe`: instead of one
stopwatch from γ0 to the first legitimate configuration, it keeps one
stopwatch *per fault burst* — armed by the drivers' ``on_fault``
notification, stopped the next time the legitimacy notion holds — so a
storm of repeated corruptions yields a per-burst series of recovery
steps/rounds/moves.  Like every probe it is capability-tiered: with the
name of a declared legitimacy predicate it rides the fused loop (and
batched cells); with only a decode-tier predicate it decodes per step.
Both tiers, and both backends, report byte-identical burst series for
identical executions.

:class:`SdrWaveProbe` adds the SDR-specific counters the paper's
cooperative-reset story is about: per burst, how many resets were
*initiated* (``rule_R`` moves), how much broadcast/feedback wave work ran
(``rule_RB``/``rule_RF``), how many distinct reset epochs the network
went through (transitions of "any process off status C"), and how many
initiators therefore *merged* into a shared wave instead of paying their
own.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.kernel.engine import check_predicate
from .base import Probe
from .view import ColumnView

__all__ = ["RecoveryProbe", "SdrWaveProbe"]

Predicate = Callable[[Any], bool]


class RecoveryProbe(Probe):
    """Per-burst recovery stopwatches over a legitimacy notion.

    Parameters
    ----------
    predicate:
        Decode-tier legitimacy test (``Configuration -> bool``).
    mask:
        Vector-tier legitimacy test — the name of a predicate the kernel
        program declares (``"normal"``).
    terminal:
        For *silent* algorithms (``FGA ∘ SDR``): recovery means the
        configuration is terminal again — no process enabled.  Uses the
        drivers' own enabled bookkeeping on both tiers; ``predicate``
        and ``mask`` must be omitted.
    expected:
        Number of bursts the attached schedule will fire
        (``FaultSchedule.total_occurrences``); lets ``stop=True`` end
        the run once every expected burst has recovered.  ``None`` (for
        unbounded schedules) never stops the run on this probe's
        account.
    stop:
        Request a stop once ``expected`` bursts have all recovered.

    Each fired burst appends a record to :attr:`bursts`:
    ``injected_step``/``nominal_step``/``victims``/``variables`` from the
    injection, then — once the notion next holds — ``steps``/``rounds``/
    ``moves`` as recovery *deltas* from the injected configuration and
    ``recovered=True``.  Overlapping bursts (a new injection before the
    previous recovered) each keep their own stopwatch; one legitimate
    configuration closes all open ones.
    """

    name = "recovery"

    def __init__(
        self,
        predicate: Predicate | None = None,
        mask: str | None = None,
        name: str = "recovery",
        terminal: bool = False,
        expected: int | None = None,
        stop: bool = False,
    ):
        if terminal and (predicate is not None or mask is not None):
            raise ValueError("terminal recovery takes no predicate or mask")
        self.predicate = predicate
        self.mask = mask
        self.name = name
        self.terminal = terminal
        self.expected = expected
        self.stop = stop
        self.bursts: list[dict] = []
        self._open: list[int] = []
        #: ``mask`` once checked against a kernel program (``None``
        #: until then, and on the dict backend).
        self._test: str | None = None
        #: Crashed-and-not-rejoined process ids, learned from ``on_churn``
        #: notifications; legitimacy is judged on the live subsystem.
        self._dead: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def recovered_count(self) -> int:
        return len(self.bursts) - len(self._open)

    @property
    def all_recovered(self) -> bool:
        return not self._open and (
            self.expected is None or len(self.bursts) >= self.expected
        )

    def summary(self) -> dict:
        """JSON-safe recovery summary for trial records."""
        recovered = [b for b in self.bursts if b["recovered"]]
        out = {
            "bursts": len(self.bursts),
            "recovered": len(recovered),
            "records": [dict(b) for b in self.bursts],
        }
        for key in ("steps", "rounds", "moves"):
            series = [b[key] for b in recovered]
            out[f"worst_{key}"] = max(series) if series else None
            out[f"mean_{key}"] = (
                sum(series) / len(series) if series else None
            )
        return out

    # ------------------------------------------------------------------
    # Capability declaration
    # ------------------------------------------------------------------
    def wants_decode(self) -> bool:
        if self.terminal:
            return False
        return self._test is None

    # ------------------------------------------------------------------
    # Fault notifications (tier-agnostic)
    # ------------------------------------------------------------------
    def on_fault(self, info) -> None:
        self._open.append(len(self.bursts))
        self.bursts.append(
            {
                "burst": info.burst,
                "injected_step": info.step,
                "nominal_step": info.nominal_step,
                "victims": list(info.victims),
                "variables": list(info.variables),
                "at_moves": info.moves,
                "at_rounds": info.rounds,
                "steps": None,
                "rounds": None,
                "moves": None,
                "recovered": False,
            }
        )

    def on_churn(self, info) -> None:
        """Arm a recovery stopwatch for one topology-churn occurrence.

        Churn perturbs the system exactly as a fault burst does — the
        live subsystem must re-converge — so each occurrence gets the
        same per-burst stopwatch, with the applied delta recorded in
        place of corrupted variables.  The probe also tracks the dead
        set here: recovery under churn means the legitimacy notion
        holds on every *live* process.
        """
        if info.action == "crash":
            self._dead.update(info.victims)
        elif info.action == "join":
            self._dead.difference_update(info.victims)
        self._open.append(len(self.bursts))
        self.bursts.append(
            {
                "burst": info.burst,
                "action": info.action,
                "injected_step": info.step,
                "nominal_step": info.nominal_step,
                "victims": list(info.victims),
                "dropped": [list(e) for e in info.dropped],
                "added": [list(e) for e in info.added],
                "components": info.components,
                "live": info.live,
                "at_moves": info.moves,
                "at_rounds": info.rounds,
                "steps": None,
                "rounds": None,
                "moves": None,
                "recovered": False,
            }
        )

    # ------------------------------------------------------------------
    # Shared recording logic (identical on both tiers)
    # ------------------------------------------------------------------
    def _observe(self, holds: bool, steps: int, rounds: int, moves: int) -> None:
        if not holds or not self._open:
            return
        for i in self._open:
            burst = self.bursts[i]
            burst["steps"] = steps - burst["injected_step"]
            burst["rounds"] = rounds - burst["at_rounds"]
            burst["moves"] = moves - burst["at_moves"]
            burst["recovered"] = True
        self._open.clear()

    # ------------------------------------------------------------------
    # Decode tier
    # ------------------------------------------------------------------
    def _holds(self, sim) -> bool:
        if self.terminal:
            return sim.is_terminal()
        if self._test is not None and sim._kernel is not None:
            return sim._kernel.holds(self._test, live=True)
        if self.predicate is None:
            raise ValueError(
                f"recovery probe {self.name!r} has no decode-tier predicate "
                "and no mask a kernel program declares"
            )
        if self._dead:
            live = [u for u in range(sim.network.n) if u not in self._dead]
            return self.predicate(sim.cfg, live=live)
        return self.predicate(sim.cfg)

    def on_start(self, sim) -> None:
        if (self._test is None and self.mask is not None
                and sim._program is not None):
            self._test = check_predicate(sim._program, self.mask)

    def on_step(self, sim, record) -> None:
        self._observe(
            self._holds(sim), sim.step_count, sim.rounds.completed, sim.move_count
        )

    def on_finish(self, sim) -> None:
        # A burst or churn occurrence that leaves the configuration
        # immediately terminal produces no further step on any tier;
        # if the final configuration is legitimate, the stopwatch
        # closes here with zero steps/rounds/moves.
        if not self._open:
            return
        if self._test is None and self.predicate is None and not self.terminal:
            return  # no kernel program read the mask: nothing was observable
        self._observe(
            self._holds(sim), sim.step_count, sim.rounds.completed, sim.move_count
        )

    # ------------------------------------------------------------------
    # Vector tier
    # ------------------------------------------------------------------
    def on_columns(self, view: ColumnView) -> None:
        if self._test is None and not self.terminal:
            self._test = check_predicate(view.program, self.mask)
        # Only an open stopwatch can close: without one, nothing to test.
        if view.phase != "start" and self._open:
            self._observe(self._view_holds(view), view.steps, view.rounds,
                          view.moves)

    def on_stop(self, view: ColumnView) -> None:
        # Vector twin of on_finish (same reason: a burst that leaves the
        # configuration immediately terminal produces no further step).
        if self._open:
            self._observe(self._view_holds(view), view.steps, view.rounds,
                          view.moves)

    def _view_holds(self, view: ColumnView) -> bool:
        if self.terminal:
            return not bool(view.enabled_mask.any())
        return view.holds(self._test, live=True)

    # ------------------------------------------------------------------
    def done(self) -> bool:
        return (
            self.stop
            and self.expected is not None
            and len(self.bursts) >= self.expected
            and not self._open
        )

    def __repr__(self) -> str:
        return (
            f"RecoveryProbe({self.name!r}, bursts={len(self.bursts)}, "
            f"recovered={self.recovered_count})"
        )


class SdrWaveProbe(Probe):
    """SDR reset-wave accounting per fault burst (and in total).

    Counts, per burst window (from one injection to the next):

    * ``initiators`` — ``rule_R`` executions (reset initiations);
    * ``rb`` / ``rf`` — broadcast / feedback wave moves;
    * ``epochs`` — distinct reset epochs: transitions of the network
      from "every status is C" to "some status off C";
    * ``merges`` — ``max(0, initiators - epochs)``: initiations that
      joined an already-running wave instead of starting their own (the
      cooperative multi-initiator behaviour of Section 3.3).

    Counts before the first injection accumulate in the ``"pre"``
    window (index ``-1`` in :attr:`windows` order).  Works on both
    tiers; the vector tier never leaves the fused loop: per step it
    reads the lane's per-rule move counts and its ``status_c`` bit,
    which the driver derives for every lane at once (one ``bincount``,
    one boolean ``reduceat``).
    """

    name = "sdr-waves"

    def __init__(self):
        # Late import: keep repro.probes importable without the reset
        # package.
        from ..reset.sdr import C, SDR_RULES, ST

        self._st = ST
        self._clean_status = C
        self._rule_names = {"rule_R": "initiators", "rule_RB": "rb", "rule_RF": "rf"}
        self._sdr_rules = SDR_RULES
        self.windows: list[dict] = [self._window("pre")]
        self._dirty = False
        # Vector-tier rule lookup, resolved against the observed program once.
        self._rule_cols = None

    @staticmethod
    def _window(label) -> dict:
        return {"burst": label, "initiators": 0, "rb": 0, "rf": 0, "epochs": 0}

    # ------------------------------------------------------------------
    @property
    def current(self) -> dict:
        return self.windows[-1]

    def summary(self) -> dict:
        """JSON-safe per-burst wave summary for trial records."""
        windows = []
        for w in self.windows:
            w = dict(w)
            w["merges"] = max(0, w["initiators"] - w["epochs"])
            windows.append(w)
        return {
            "windows": windows,
            "initiators": sum(w["initiators"] for w in windows),
            "epochs": sum(w["epochs"] for w in windows),
            "merges": sum(w["merges"] for w in windows),
        }

    def wants_decode(self) -> bool:
        return False

    def on_fault(self, info) -> None:
        self.windows.append(self._window(info.burst))
        # The corrupted configuration may already sit mid-wave; epoch
        # transitions keep being detected from the observed state.

    def on_churn(self, info) -> None:
        # Topology churn opens a wave window too: the reset traffic it
        # provokes is attributed to the mutation, not the previous burst.
        self.windows.append(self._window(f"churn{info.burst}:{info.action}"))

    # ------------------------------------------------------------------
    # Decode tier
    # ------------------------------------------------------------------
    def on_start(self, sim) -> None:
        cfg = sim.cfg
        self._dirty = any(
            cfg[u][self._st] != self._clean_status
            for u in sim.network.processes()
        )

    def on_step(self, sim, record) -> None:
        window = self.current
        for rule in record.selection.values():
            key = self._rule_names.get(rule)
            if key is not None:
                window[key] += 1
        cfg = sim.cfg
        dirty = any(
            cfg[u][self._st] != self._clean_status
            for u in sim.network.processes()
        )
        if dirty and not self._dirty:
            window["epochs"] += 1
        self._dirty = dirty

    # ------------------------------------------------------------------
    # Vector tier
    # ------------------------------------------------------------------
    def on_columns(self, view: ColumnView) -> None:
        if self._rule_cols is None:
            rules = view.program.rules
            self._rule_cols = {
                k: self._rule_names[rule]
                for k, rule in enumerate(rules)
                if rule in self._rule_names
            }
        dirty = not view.holds("status_c")
        if view.phase == "start":
            self._dirty = dirty
            return
        window = self.current
        counts = view.rule_counts
        for k, key in self._rule_cols.items():
            window[key] += counts[k]
        if dirty and not self._dirty:
            window["epochs"] += 1
        self._dirty = dirty
