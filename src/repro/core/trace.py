"""Execution traces: step records and optional configuration history.

The complexity analysis of the paper quantifies over *executions*
``e = γ0 γ1 …`` (maximal sequences of steps).  :class:`StepRecord` captures
what happened in one step ``γi ↦ γi+1`` — which processes were activated
with which rules — and :class:`Trace`, a decode-tier probe, accumulates
records plus optional configuration snapshots, which the proof-artifact
analysis (segments, reset branches, rule languages) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..probes.base import Probe
from .configuration import Configuration

__all__ = ["StepRecord", "Trace"]


@dataclass(frozen=True)
class StepRecord:
    """What happened in one atomic step.

    Attributes
    ----------
    index:
        Step number, starting at 0 for the step ``γ0 ↦ γ1``.
    selection:
        Mapping from activated process to the rule label it executed.
    enabled_before:
        Processes enabled in the pre-step configuration (sorted tuple);
        needed for the neutralization-based round accounting.
    enabled_after:
        Processes enabled in the post-step configuration (sorted tuple).
    rounds_completed:
        Number of full rounds completed once this step was applied.
    """

    index: int
    selection: Mapping[int, str]
    enabled_before: tuple[int, ...]
    enabled_after: tuple[int, ...]
    rounds_completed: int

    @property
    def moves(self) -> int:
        """Number of moves in this step (one per activated process)."""
        return len(self.selection)

    def executed(self, u: int) -> bool:
        """Whether process ``u`` moved in this step."""
        return u in self.selection


class Trace(Probe):
    """Accumulated execution history: a decode-tier probe.

    Attach it like any probe (``Simulator(..., probes=[trace])``, or
    ``sim.add_probe(trace)`` on a live simulator): it records every
    step's :class:`StepRecord` on every backend, and on the kernel
    backend it puts the per-step decode hook on the run's lane.

    Parameters
    ----------
    record_configurations:
        When true, a snapshot of every configuration (including ``γ0``) is
        kept.  This is memory-heavy and intended for analysis and tests on
        small systems; benchmarks leave it off.  ``configurations[i]`` is
        the configuration step ``i`` ran from: a fault or churn
        occurrence landing between two steps replaces the snapshot, and
        the configuration the previous step produced is kept aside for
        :meth:`pairs`.
    """

    name = "trace"

    def __init__(self, record_configurations: bool = False):
        self.records: list[StepRecord] = []
        self.record_configurations = record_configurations
        self.configurations: list[Configuration] = []
        #: Step index → the configuration it produced, where a
        #: disturbance changed it before the next step.
        self._produced: dict[int, Configuration] = {}
        self._sim = None

    # ------------------------------------------------------------------
    def on_start(self, sim) -> None:
        if self.record_configurations:
            self._sim = sim
            self.configurations.append(sim.cfg.copy())

    def on_step(self, sim, record: StepRecord) -> None:
        self.records.append(record)
        if self.record_configurations:
            self.configurations.append(sim.cfg.copy())

    def on_disturbance(self, info) -> None:
        if self.record_configurations:
            if self.records:
                self._produced.setdefault(
                    len(self.records) - 1, self.configurations[-1]
                )
            self.configurations[-1] = self._sim.cfg.copy()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self.records)

    def moves_of(self, u: int) -> int:
        """Total number of moves process ``u`` performed."""
        return sum(1 for r in self.records if u in r.selection)

    def rules_of(self, u: int) -> list[str]:
        """The sequence of rule labels ``u`` executed, in order."""
        return [r.selection[u] for r in self.records if u in r.selection]

    def steps_with_rule(self, rule: str) -> list[int]:
        """Indices of steps in which some process executed ``rule``."""
        return [r.index for r in self.records if rule in r.selection.values()]

    def configuration(self, i: int) -> Configuration:
        """Snapshot ``γ_i`` (requires ``record_configurations=True``)."""
        if not self.record_configurations:
            raise ValueError("trace was not recording configurations")
        return self.configurations[i]

    def pairs(self) -> Iterator[tuple[Configuration, StepRecord, Configuration]]:
        """Iterate ``(pre, step, post)`` triples (requires snapshots): the
        configuration each step ran from and the one it produced — under
        faults or churn, ``post`` of one step need not be ``pre`` of the
        next."""
        if not self.record_configurations:
            raise ValueError("trace was not recording configurations")
        for i, record in enumerate(self.records):
            post = self._produced.get(i, self.configurations[i + 1])
            yield self.configurations[i], record, post
