"""Phase-level wall-time accounting for the execution hot paths.

Where does a fused step's time go?  The two drivers — the fused
:meth:`repro.core.kernel.engine.KernelRuntime.drive` (behind single
runs and batches alike) and the per-step path in
:class:`repro.core.simulator.Simulator` — split one step into a
handful of phases — guard evaluation, daemon selection, action
application, round accounting, probe hooks, and (batched only)
compaction/re-tile — and, when telemetry is enabled, accumulate each
phase's wall time and invocation count into a :class:`PhaseStats`.

Design constraints, in order:

1. **Disabled must be free.**  The kill switch is module-level: a
   driver fetches :func:`collector` once per run; when it returns
   ``None`` the per-step cost is a few local boolean checks — no timer
   calls, no allocations.  (The overhead-guard test asserts the timer
   is never consulted.)
2. **Enabled must stay within ~2% of the fused loop.**  Per-phase
   timer pairs every step would cost microseconds against a ~20µs
   fused step, so timing is *stride-sampled*: one step in every
   ``stride`` (a power of two; default 16) is fully timed, the rest
   pay one mask test.  Sampled sums extrapolate to estimated totals
   (``est_s = sampled_s × stride``); rare phases (compaction) are
   timed exactly.  Phase *shares* are what the breakdown is for, and
   shares are unbiased under uniform sampling.
3. **Array-backed, no dicts in the hot path.**  ``times``/``counts``
   are flat per-phase slots indexed by the module's phase constants;
   drivers add with two list index operations, not attribute or dict
   lookups.

Telemetry never touches execution state: runs are byte-identical with
the switch on or off.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "PHASES",
    "GUARD",
    "DAEMON",
    "APPLY",
    "ROUNDS",
    "PROBE",
    "COMPACT",
    "DEFAULT_STRIDE",
    "PhaseStats",
    "enable",
    "disable",
    "enabled",
    "collector",
    "snapshot",
    "recording",
    "merge_snapshots",
]

#: Phase labels, indexed by the constants below.
PHASES = ("guard", "daemon", "apply", "rounds", "probe", "compact")
GUARD, DAEMON, APPLY, ROUNDS, PROBE, COMPACT = range(len(PHASES))

#: Phases recorded on every occurrence (not stride-sampled): their
#: sampled sums are already exact totals and must not be extrapolated.
EXACT_PHASES = frozenset({COMPACT})

#: Default sampling stride (power of two): one fully-timed step per 16.
DEFAULT_STRIDE = 16

#: The clock the drivers read.  A module attribute (not an import-time
#: binding in the drivers) so tests can substitute a counting fake and
#: assert the disabled path never consults it.
timer = time.perf_counter


class PhaseStats:
    """Flat per-phase accumulators: sampled seconds and sample counts.

    ``times[p]``/``counts[p]`` hold the summed wall seconds and the
    number of samples recorded for phase ``p``.  For stride-sampled
    phases the estimated total is ``times[p] * stride``; for phases in
    :data:`EXACT_PHASES` it is ``times[p]`` itself.  Plain Python lists
    beat numpy here: the hot path does single-slot ``+=`` updates,
    where ndarray scalar indexing costs more than the timed work.
    """

    __slots__ = ("times", "counts", "stride", "mask")

    def __init__(self, stride: int = DEFAULT_STRIDE):
        if stride < 1 or (stride & (stride - 1)):
            raise ValueError(f"stride must be a power of two >= 1, got {stride}")
        self.stride = stride
        #: ``step & mask == 0`` selects the sampled steps.
        self.mask = stride - 1
        self.times = [0.0] * len(PHASES)
        self.counts = [0] * len(PHASES)

    # ------------------------------------------------------------------
    def add(self, phase: int, seconds: float) -> None:
        """Record one sample (drivers inline this; kept for callers)."""
        self.times[phase] += seconds
        self.counts[phase] += 1

    def reset(self) -> None:
        self.times = [0.0] * len(PHASES)
        self.counts = [0] * len(PHASES)

    def mark(self) -> tuple[list[float], list[int]]:
        """A copy of the current accumulators, for :meth:`since`."""
        return list(self.times), list(self.counts)

    def since(self, mark: tuple[list[float], list[int]]) -> dict:
        """Snapshot of what accumulated after ``mark`` was taken."""
        times0, counts0 = mark
        return _snapshot_of(
            [t - t0 for t, t0 in zip(self.times, times0)],
            [c - c0 for c, c0 in zip(self.counts, counts0)],
            self.stride,
        )

    def absorb(self, snap: dict | None) -> None:
        """Fold a snapshot (e.g. a worker process's delta) into this.

        Only meaningful when the snapshot came from a *different*
        collector — absorbing an in-process delta would double count.
        Strides may differ; estimated seconds stay correct because each
        sample re-enters under this collector's stride via its recorded
        ``est_s`` (we fold estimated seconds scaled back to this
        stride's sampled domain).
        """
        if not snap:
            return
        for idx, name in enumerate(PHASES):
            entry = snap.get("phases", {}).get(name)
            if not entry:
                continue
            scale = 1 if idx in EXACT_PHASES else self.stride
            self.times[idx] += entry["est_s"] / scale
            self.counts[idx] += entry["samples"]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe breakdown: per-phase samples, sampled and est. seconds."""
        return _snapshot_of(self.times, self.counts, self.stride)


def _snapshot_of(times: list[float], counts: list[int], stride: int) -> dict:
    phases = {}
    total = 0.0
    for idx, name in enumerate(PHASES):
        if not counts[idx] and not times[idx]:
            continue
        est = times[idx] * (1 if idx in EXACT_PHASES else stride)
        phases[name] = {
            "samples": counts[idx],
            "sampled_s": round(times[idx], 9),
            "est_s": round(est, 9),
        }
        total += est
    for entry in phases.values():
        entry["share"] = round(entry["est_s"] / total, 4) if total else 0.0
    return {"stride": stride, "phases": phases, "total_est_s": round(total, 9)}


def merge_snapshots(*snaps: dict | None) -> dict:
    """Sum several snapshots (e.g. per-worker deltas) into one breakdown.

    Estimated seconds and sample counts add; the merged snapshot keeps
    no single stride (strides may differ across inputs) and reports
    ``stride: None``.
    """
    phases: dict[str, dict] = {}
    for snap in snaps:
        if not snap:
            continue
        for name, entry in snap.get("phases", {}).items():
            slot = phases.setdefault(
                name, {"samples": 0, "sampled_s": 0.0, "est_s": 0.0}
            )
            slot["samples"] += entry["samples"]
            slot["sampled_s"] = round(slot["sampled_s"] + entry["sampled_s"], 9)
            slot["est_s"] = round(slot["est_s"] + entry["est_s"], 9)
    total = sum(entry["est_s"] for entry in phases.values())
    for entry in phases.values():
        entry["share"] = round(entry["est_s"] / total, 4) if total else 0.0
    return {"stride": None, "phases": phases, "total_est_s": round(total, 9)}


# ----------------------------------------------------------------------
# The kill switch
# ----------------------------------------------------------------------
_collector: PhaseStats | None = None


def enable(stride: int = DEFAULT_STRIDE) -> PhaseStats:
    """Install (and return) a fresh process-wide collector."""
    global _collector
    _collector = PhaseStats(stride)
    return _collector


def disable() -> None:
    """Remove the collector: drivers fall back to the zero-cost path."""
    global _collector
    _collector = None


def enabled() -> bool:
    return _collector is not None


def collector() -> PhaseStats | None:
    """The active collector, or ``None`` when telemetry is off.

    Drivers call this once per run (never per step) and branch on the
    result locally.
    """
    return _collector


def snapshot() -> dict | None:
    """The active collector's breakdown, or ``None`` when off."""
    return _collector.snapshot() if _collector is not None else None


@contextmanager
def recording(stride: int = DEFAULT_STRIDE) -> Iterator[PhaseStats]:
    """Scoped collection: enable for the block, restore the prior state.

    The previous collector (if any) is reinstated afterwards — its
    accumulators are untouched by the scoped run.
    """
    global _collector
    previous = _collector
    stats = PhaseStats(stride)
    _collector = stats
    try:
        yield stats
    finally:
        _collector = previous


# Opt-in via environment, so sweeps launched from scripts or CI pick up
# phase tracing without code changes (REPRO_TELEMETRY=0/false keeps it off).
if os.environ.get("REPRO_TELEMETRY", "").strip().lower() not in (
    "", "0", "false", "no", "off",
):
    enable()
