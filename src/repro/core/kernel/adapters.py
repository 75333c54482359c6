"""The simulator's lane of :meth:`KernelRuntime.drive` and its two adapters.

Every kernel-backend :class:`~repro.core.simulator.Simulator` execution
is one lane of the driver (:func:`drive`).  A daemon with no array twin
selects through :class:`DaemonAdapter`, a :class:`VectorDaemon`; whatever
needs the decoded execution per step (a trace, decode-tier probes,
``stop_when``, the paranoid lockstep) is served by :class:`DecodeAdapter`,
a vector-tier lane probe.  Plain lanes attach neither.
"""

from __future__ import annotations

import numpy as np

from ...probes.base import Probe
from ...probes.view import ColumnView
from ..rounds import ArrayRoundCounter
from ..trace import StepRecord
from .daemons import VectorDaemon, vectorize

__all__ = ["DaemonAdapter", "DecodeAdapter", "drive"]


def drive(sim, max_steps: int, *, stop_when=None, until=None,
          step: bool = False):
    """Advance ``sim``'s columns through one lane of the array driver.

    The lane's daemon is the array twin of ``sim``'s daemon, else — and
    always for ``step``, one step observed like the dict engine's
    ``Simulator.step`` — a :class:`DaemonAdapter`.  Merges the lane's
    accounting into ``sim``; returns ``(stop_reason, last_step_record)``
    (the record is ``None`` unless steps were decoded).
    """
    # Built per drive: a topology-aware twin starts from the churned network.
    vec = None if step else vectorize(sim.daemon, sim.network)
    if vec is None:
        vec = DaemonAdapter(sim)
    else:
        vec.load_state(sim.daemon)
    if step:
        probes, decode = [], sim.probes
    else:
        probes = [probe for probe in sim.probes if not probe.wants_decode()]
        decode = [probe for probe in sim.probes if probe.wants_decode()]
    hook = None
    if (decode or stop_when is not None or sim.trace is not None
            or sim._shadow is not None or (step and sim._schedules)):
        hook = DecodeAdapter(sim, decode, stop_when, stops=not step)
        probes.append(hook)
    # The preset totals also anchor the schedules' step clock.
    view = ColumnView(sim._program)
    steps0 = view.steps = sim.step_count
    moves0 = view.moves = sim.move_count
    # The array counter outlives the drive while the set-based one only
    # mirrors it (a fresh pending set marks an outside change).
    counter, rounds = sim.rounds, sim._array_rounds
    if (rounds is None or counter._pending is not sim._rounds_mirror
            or counter.completed != rounds.completed[0]):
        rounds = sim._array_rounds = ArrayRoundCounter.from_counter(
            counter, sim.network.n
        )
    check = sim.strict and sim.algorithm.mutually_exclusive_rules
    kernel = sim._kernel
    result = kernel.run(
        vec,
        sim.rng,
        max_steps,
        until=until,
        rounds=rounds,
        exclusion_name=sim.algorithm.name if check else None,
        probes=probes,
        view=view,
        faults=sim.faults,
        churn=sim.churn,
    )
    vec.store_state(sim.daemon)
    rounds.into_counter(counter)
    sim._rounds_mirror = counter._pending
    if sim.churn is not None and sim.churn.fired:
        # The schedule edits the network's links at draw time.
        sim.dead = set(sim.churn.dead())
    sim._cfg_dirty = True
    if step and hook is None:  # nothing landed after the step: decode it now
        record = _stepped(sim, vec.selection, steps0 + 1, moves0 + result.moves,
                         counter.completed) if result.steps else None
        return result.stop_reason, record
    if hook is None and result.steps:
        sim.moves_per_process = [
            have + delta
            for have, delta in zip(
                sim.moves_per_process, result.moves_per_process.tolist()
            )
        ]
        moves_per_rule = sim.moves_per_rule
        for rule, count in result.moves_per_rule.items():
            moves_per_rule[rule] = moves_per_rule.get(rule, 0) + count
    sim.step_count = steps0 + result.steps
    sim.move_count = moves0 + result.moves
    sim._enabled = kernel.enabled_map()
    sim._enabled_snapshot = tuple(sim._enabled)
    reason = result.stop_reason
    if reason == "probe" and hook is not None and hook.reason == "predicate":
        reason = "predicate"
    return reason, None if hook is None else hook.record


def _stepped(sim, selection, steps: int, moves: int, rounds: int) -> StepRecord:
    """Bring ``sim`` past one step of its lane; returns the step's record."""
    sim._cfg_dirty = True
    sim.step_count = steps
    sim.move_count = moves
    sim.rounds.completed = rounds
    per_process, per_rule = sim.moves_per_process, sim.moves_per_rule
    for u, rule in selection.items():
        per_process[u] += 1
        per_rule[rule] = per_rule.get(rule, 0) + 1
    before = sim._enabled_snapshot
    sim._enabled = sim._kernel.enabled_map()
    sim._enabled_snapshot = after = tuple(sim._enabled)
    return StepRecord(
        index=steps - 1,
        selection=selection,
        enabled_before=before,
        enabled_after=after,
        rounds_completed=rounds,
    )


class DaemonAdapter(VectorDaemon):
    """A simulator's dict daemon selecting inside the driver.

    Draws from the simulator's ``Random`` directly and keeps the
    daemon's last selection in :attr:`selection`.
    """

    uses_rng = False
    picks_rules = True

    def __init__(self, sim):
        self.sim = sim
        self.step = sim.step_count
        self.selection: dict[int, str] = {}

    def select(self, enabled_idx, stream):
        sim = self.sim
        kernel = sim._kernel
        read, write = kernel.read, kernel.write
        enabled = kernel.enabled_map()
        sim._cfg_dirty = True
        selection = sim.daemon.select(sim._cfg_view, enabled, sim.rng, self.step)
        if sim.strict:
            sim._check_selection(selection, enabled)
        if kernel.read is not read:
            # A column-tier search rolled the runtime out and back
            # (apply/restore), leaving the contents under the other
            # parity: hand them back to the buffers the driver holds.
            for name, col in kernel.read.items():
                read[name][:] = col
            kernel.read, kernel.write = read, write
        self.step += 1
        self.selection = selection
        return np.array(sorted(selection), dtype=np.int64)

    @property
    def kinds(self) -> np.ndarray:
        """The picked rules' indices, aligned with the chosen vector."""
        index, selection = self.sim._kernel.rule_index, self.selection
        return np.array([index[selection[u]] for u in sorted(selection)],
                        dtype=np.int8)


class DecodeAdapter(Probe):
    """A simulator's per-step consumers, served from inside the driver.

    ``probes`` are the decode-tier probes it forwards to (``on_step``,
    ``on_fault``, ``on_churn``); ``stops=False`` makes it ignore stop
    requests (``Simulator.step``).  After a stop it requested,
    :attr:`reason` says why: ``"predicate"`` (``stop_when``) or
    ``"probe"``.  :attr:`record` is the last step's record.
    """

    name = "decode-adapter"

    def __init__(self, sim, probes, stop_when=None, stops: bool = True):
        self.sim = sim
        self.probes = probes
        self.stop_when = stop_when
        self.stops = stops
        self.reason = ""
        self.record: StepRecord | None = None
        self._rules = sim._kernel.rules

    def wants_decode(self) -> bool:
        return False

    def on_columns(self, view) -> None:
        if view.phase != "step":
            return  # the simulator is current at the start
        sim = self.sim
        rules = self._rules
        selection = {
            u: rules[k]
            for u, k in zip(view.chosen.tolist(), view.chosen_rules.tolist())
        }
        record = self.record = _stepped(
            sim, selection, view.steps, view.moves, view.rounds
        )
        if sim._shadow is not None:
            sim._lockstep_check(selection)
        if sim.trace is not None:
            sim.trace.append(record, sim.cfg)
        for probe in self.probes:
            probe.on_step(sim, record)

    def on_fault(self, info, hook: str = "on_fault") -> None:
        sim = self.sim
        sim._cfg_dirty = True
        sim.rounds.completed = info.rounds
        sim._enabled = sim._kernel.enabled_map()
        sim._enabled_snapshot = tuple(sim._enabled)
        if sim._shadow is not None:
            # The reference lands the occurrence itself — compared at
            # the next step or at the stop, never resynced from columns.
            for u, var, value in info.assignments:
                sim._shadow.set(u, var, value)
        for probe in self.probes:
            getattr(probe, hook)(info)

    def on_churn(self, info) -> None:
        if info.action == "crash":
            self.sim.dead.update(info.victims)
        elif info.action == "join":
            self.sim.dead.difference_update(info.victims)
        self.on_fault(info, "on_churn")

    def on_stop(self, view) -> None:
        if self.sim._shadow is not None:
            self.sim._compare_shadow()

    def done(self) -> bool:
        if not self.stops:
            return False
        if self.stop_when is not None and self.stop_when(self.sim):
            self.reason = "predicate"
            return True
        if any(probe.done() for probe in self.probes):
            self.reason = "probe"
            return True
        return False
