"""The unison specification (paper, Section 5.1) as executable checkers.

* **Safety** — at every instant, the clocks of every two neighbors differ
  by at most one increment (modulo the period).
* **Liveness** — every process increments its clock infinitely often.

Safety is a per-configuration predicate; liveness is checked over bounded
execution suffixes (every process must keep accumulating increments).
"""

from __future__ import annotations

from typing import Iterable

from ..core.configuration import Configuration
from ..core.graph import Network
from ..core.trace import Trace
from ..probes.base import Probe

__all__ = [
    "circularly_close",
    "safety_holds",
    "safety_violations",
    "SafetyMonitor",
    "increment_counts",
    "liveness_holds",
]


def circularly_close(a: int, b: int, period: int) -> bool:
    """Whether two clock values differ by at most one increment mod period."""
    return b in ((a - 1) % period, a, (a + 1) % period)


def safety_violations(
    network: Network, cfg: Configuration, period: int, clock_var: str = "c"
) -> list[tuple[int, int]]:
    """Edges whose endpoint clocks violate the unison safety predicate."""
    bad = []
    for u, v in network.edges():
        if not circularly_close(cfg[u][clock_var], cfg[v][clock_var], period):
            bad.append((u, v))
    return bad


def safety_holds(
    network: Network, cfg: Configuration, period: int, clock_var: str = "c"
) -> bool:
    """Whether the unison safety predicate holds on every edge."""
    return not safety_violations(network, cfg, period, clock_var)


class SafetyMonitor(Probe):
    """Decode-tier probe counting configurations that violate safety.

    Attach after stabilization (or from the start, to measure how long the
    system stays unsafe).  ``violations`` counts post-step configurations
    with at least one unsafe edge; ``first_safe_step`` records when the
    predicate first held.
    """

    name = "safety"

    def __init__(self, network: Network, period: int, clock_var: str = "c"):
        self.network = network
        self.period = period
        self.clock_var = clock_var
        self.violations = 0
        self.first_safe_step: int | None = None

    def on_start(self, sim) -> None:
        self._check(sim, step=0)

    def on_step(self, sim, record) -> None:
        self._check(sim, step=sim.step_count)

    def _check(self, sim, step: int) -> None:
        if safety_holds(self.network, sim.cfg, self.period, self.clock_var):
            if self.first_safe_step is None:
                self.first_safe_step = step
        else:
            self.violations += 1


def increment_counts(trace: Trace, increment_rules: Iterable[str] = ("rule_U",)) -> dict[int, int]:
    """How many clock increments each process performed in a trace."""
    rules = set(increment_rules)
    counts: dict[int, int] = {}
    for record in trace:
        for u, rule in record.selection.items():
            if rule in rules:
                counts[u] = counts.get(u, 0) + 1
    return counts


def liveness_holds(
    trace: Trace,
    n: int,
    min_increments: int = 1,
    increment_rules: Iterable[str] = ("rule_U",),
) -> bool:
    """Bounded liveness check: every process incremented ≥ ``min_increments``.

    Infinitely-often cannot be observed on a finite prefix; the tests run a
    suffix long enough that ``min_increments`` per process certifies that no
    process is starved.
    """
    counts = increment_counts(trace, increment_rules)
    return all(counts.get(u, 0) >= min_increments for u in range(n))
