"""Sampling probes: accounting snapshots and every-k-steps trace decode.

Both ride the fused loop.  :class:`AccountingProbe` never touches the
columns at all — it snapshots the ``(steps, moves, rounds)`` totals the
drivers maintain natively.  :class:`TraceProbe` decodes the columns into
a :class:`~repro.core.configuration.Configuration` only every ``k``
steps: full-fidelity tracing (a :class:`~repro.core.trace.Trace`, a
decode-tier probe) decodes every step through the lane's decode hook,
sampled tracing once per ``k`` steps.
"""

from __future__ import annotations

from .base import Probe
from .view import ColumnView

__all__ = ["AccountingProbe", "TraceProbe"]


class AccountingProbe(Probe):
    """Periodic ``(steps, moves, rounds)`` snapshots, array-native.

    ``samples`` holds one ``(steps, moves, rounds)`` triple for the
    initial configuration and for every configuration whose step index
    is a multiple of ``every``.  Identical on both tiers (no decoding
    on either).
    """

    name = "accounting"

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.samples: list[tuple[int, int, int]] = []

    def wants_decode(self) -> bool:
        return False

    def on_start(self, sim) -> None:
        self.samples.append(
            (sim.step_count, sim.move_count, sim.rounds.completed)
        )

    def on_step(self, sim, record) -> None:
        if sim.step_count % self.every == 0:
            self.samples.append(
                (sim.step_count, sim.move_count, sim.rounds.completed)
            )

    def on_columns(self, view: ColumnView) -> None:
        if view.phase == "start":
            # Simulator-attached probes already sampled the initial
            # configuration in on_start; batch-attached probes (which
            # have no simulator) sample it here.
            if not self.samples:
                self.samples.append((view.steps, view.moves, view.rounds))
        elif view.steps % self.every == 0:
            self.samples.append((view.steps, view.moves, view.rounds))


class TraceProbe(Probe):
    """Every-``k``-steps configuration snapshots.

    ``samples`` holds ``(step_index, Configuration)`` pairs for the
    initial configuration and every configuration whose step index is a
    multiple of ``every``.  On the vector tier the decode happens inside
    the fused loop through the program's schema; on the decode tier it
    snapshots ``sim.cfg`` — identical configurations either way (the
    schema round-trip is lossless by contract).
    """

    name = "trace-sample"

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.samples: list[tuple[int, object]] = []

    def wants_decode(self) -> bool:
        return False

    def on_start(self, sim) -> None:
        self.samples.append((sim.step_count, sim.cfg.copy()))

    def on_step(self, sim, record) -> None:
        if sim.step_count % self.every == 0:
            self.samples.append((sim.step_count, sim.cfg.copy()))

    def on_columns(self, view: ColumnView) -> None:
        if view.phase == "start":
            # Simulator-attached probes already sampled the initial
            # configuration in on_start; batch-attached probes (which
            # have no simulator) sample it here.
            if not self.samples:
                self.samples.append(
                    (view.steps, view.program.schema.decode(view.cols))
                )
        elif view.steps % self.every == 0:
            self.samples.append(
                (view.steps, view.program.schema.decode(view.cols))
            )
