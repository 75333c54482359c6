"""Batched multi-trial execution: a trial axis on the state columns.

A campaign cell — one ``(algorithm, topology, n, scenario, daemon)``
combination — differs across its replicate trials only in the seed.  This
module runs all ``T`` replicates as *one* simulation over tiled columns:
trial ``t`` owns the process block ``[t·n, (t+1)·n)`` of a block-diagonal
adjacency (:meth:`~repro.core.kernel.csr.CSRAdjacency.tile`), so one
guard evaluation, one rule application, and one accounting pass serve
every trial per step.  Only the daemons stay per-trial: each trial draws
from its *own* seeded ``Random`` stream in exactly the serial order, so
every trial's trajectory — selections, moves, rounds, stopping step — is
identical to its serial run, record for record.

Each trial is one *lane* of the fused driver
(:meth:`~repro.core.kernel.engine.KernelRuntime.drive`), the same loop a
single run drives with one lane: trials stop independently (terminal block,
a probe's stop — convergence included — or budget) and freeze while the rest of the
batch runs on, and :class:`~repro.core.rounds.ArrayRoundCounter` counts
rounds per block.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Sequence

from ..exceptions import UnbatchableError
from ..rounds import ArrayRoundCounter
from .daemons import vectorize
from .engine import KernelRuntime, Lane

if TYPE_CHECKING:
    from ...ir.kernelc import IRKernelProgram

__all__ = ["TrialOutcome", "BatchResult", "run_batch"]

class TrialOutcome:
    """Accounting of one trial of a batch, frozen at its stopping step."""

    __slots__ = ("steps", "moves", "rounds", "moves_per_process",
                 "moves_per_rule", "stop_reason")

    def __init__(self, steps, moves, rounds, moves_per_process,
                 moves_per_rule, stop_reason):
        self.steps = steps
        self.moves = moves
        self.rounds = rounds
        self.moves_per_process = moves_per_process
        self.moves_per_rule = moves_per_rule
        self.stop_reason = stop_reason

    def __repr__(self) -> str:
        return (
            f"TrialOutcome(steps={self.steps}, moves={self.moves}, "
            f"rounds={self.rounds}, stop_reason={self.stop_reason!r})"
        )


class BatchResult:
    """Per-trial outcomes plus access to the final configurations."""

    __slots__ = ("outcomes", "_schema", "_columns", "_n")

    def __init__(self, outcomes, schema, columns, n):
        self.outcomes: list[TrialOutcome] = outcomes
        self._schema = schema
        self._columns = columns
        self._n = n

    def configuration(self, trial: int):
        """Trial's final configuration (decoded, trial-local indices)."""
        return self._schema.decode_block(self._columns, trial, self._n)


def run_batch(
    program: IRKernelProgram,
    cfgs: Sequence,
    daemons: Sequence,
    rngs: Sequence[Random],
    network,
    *,
    max_steps: int,
    exclusion_name: str | None = None,
    probes: Sequence[Sequence] | None = None,
    faults: Sequence | None = None,
) -> BatchResult:
    """Run ``len(cfgs)`` trials of one cell as a single tiled simulation.

    ``cfgs``/``daemons``/``rngs`` are per-trial: the initial
    configuration, a fresh dict daemon instance (state bridged into its
    vector twin), and the trial's seeded generator.
    ``probes`` (optional) carries one sequence of vector-tier
    :class:`repro.probes.Probe` instances *per trial*; each trial's
    probes see its block of the tiled buffers as a
    :class:`repro.probes.ColumnView` (base program + block-sliced
    columns, so per-trial semantics match a single run), and a probe's
    ``done()`` freezes its trial with ``stop_reason="probe"`` — a
    convergence stop is a :class:`repro.probes.StopProbe` (or
    :class:`repro.probes.StabilizationProbe`) naming a declared
    predicate, asked on the initial configuration too.
    ``faults`` (optional) carries one bound
    :class:`~repro.faults.schedule.BoundFaultSchedule` (or ``None``) per
    trial, landed on the trial's block exactly as on a single run.
    Bound schedules are stateful: pass a fresh binding per trial.

    Every trial is one lane of :meth:`KernelRuntime.drive` — the loop a
    single run drives as its only lane — so each trial's trajectory is
    identical to its serial run, record for record.  Raises
    :class:`~repro.core.exceptions.UnbatchableError` when the program or
    a daemon cannot be vectorized — callers catch exactly that and fall
    back to serial trials.
    """
    trials = len(cfgs)
    n = len(cfgs[0])
    runtime = KernelRuntime.tiled(program, cfgs)
    if runtime is None:
        raise UnbatchableError(
            "program does not support tiled (batched) execution"
        )
    vecs = [vectorize(daemon, network) for daemon in daemons]
    if any(vec is None for vec in vecs):
        raise UnbatchableError(
            "daemon cannot be vectorized for batched execution"
        )
    for name, per_trial in (("probes", probes), ("faults", faults)):
        if per_trial is not None and len(per_trial) != trials:
            raise ValueError(
                f"{name} must align with cfgs: {len(per_trial)} != {trials}"
            )
    from ...probes.view import ColumnView

    lanes = []
    for t, (vec, daemon, rng) in enumerate(zip(vecs, daemons, rngs)):
        vec.load_state(daemon)
        trial_probes = probes[t] if probes is not None else ()
        lanes.append(Lane(
            t, vec, rng,
            probes=trial_probes,
            view=ColumnView(program, trial=t) if trial_probes else None,
            schedules=(faults[t],) if faults is not None else (),
        ))
    rounds = ArrayRoundCounter(n, trials)
    acc = runtime.drive(
        lanes, max_steps=max_steps, rounds=rounds,
        exclusion_name=exclusion_name,
    )
    acc.flush()
    for vec, daemon in zip(vecs, daemons):
        vec.store_state(daemon)

    rules = program.rules
    per_process = acc.counts.reshape(trials, n)
    per_rule = acc.per_rule.reshape(trials, len(rules)).tolist()
    outcomes = [
        TrialOutcome(
            steps=lane.steps,
            moves=lane.moves,
            rounds=rounds.completed[t],
            moves_per_process=tuple(per_process[t].tolist()),
            moves_per_rule={
                rule: count for rule, count in zip(rules, per_rule[t]) if count
            },
            stop_reason=lane.stop_reason,
        )
        for t, lane in enumerate(lanes)
    ]
    return BatchResult(outcomes, program.schema, runtime.read, n)
