"""Declarative, seeded topology churn schedules.

Where :mod:`repro.faults.schedule` corrupts *register contents*, churn
mutates the *communication graph* mid-run: links appear and disappear
(``add_edge``/``drop_edge``), processes crash (silenced — state frozen,
every incident link removed, masked out of guard evaluation, daemon
selection, and move/round accounting) and later rejoin with arbitrary
state drawn from the algorithm's declared domains (``join`` — which is
exactly the self-stabilization premise: a joining process is
indistinguishable from an arbitrarily corrupted one).

Determinism is load-bearing, same as fault schedules: every occurrence
draws from a dedicated SHA-256-derived PRNG keyed on ``(seed, event
index, occurrence index)``.  Unlike faults, a churn draw is
*state-dependent* — which links can drop depends on which links exist —
so the bound schedule owns the canonical topology state (liveness
vector + the algorithm's ``Network``, edited in place) and updates it at
draw time.  Both engines replay the identical occurrence stream, so
dict, kernel and batched executions see byte-identical topology
sequences under one seed.

Spec grammar reuses the fault timing surface (``at/every/storm/burst``
with ``start/count/gap/cadence/until``), the action carries ``k``::

    every=50,crash=1                 crash one process every 50 steps
    at=100,drop_edge=2               drop two links at step 100
    burst=200,count=3,gap=80,join=1  three rejoins at 200/280/360
    every=40,crash=1;every=60,join=1,connectivity=allow

``procs=a|b`` restricts the candidate pool (crash/join), ``clustered``
crashes a BFS-connected region, ``connectivity=preserve`` (the default)
refuses candidates that would increase the live subgraph's component
count; ``connectivity=allow`` permits disconnection, and every
occurrence records the resulting component count either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from .schedule import (
    BoundSchedule,
    Occurrence,
    Schedule,
    TimedEvent,
    occurrence_rng,
    parse_clauses,
    pop_timing,
)

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "BoundChurnSchedule",
    "parse_churn",
]

#: Occurrence actions, in spec-key form.
ACTIONS = ("crash", "join", "drop_edge", "add_edge")

#: Connectivity policies.
CONNECTIVITY = ("preserve", "allow")


@dataclass(frozen=True)
class ChurnEvent(TimedEvent):
    """One timed topology mutation pattern inside a schedule.

    Timing is :class:`~repro.faults.schedule.TimedEvent`'s, shared with
    fault events.  ``action`` is what fires; ``k`` how many
    processes/links one occurrence touches.
    """

    action: str = ""  # "crash" | "join" | "drop_edge" | "add_edge"
    k: int = 1
    procs: tuple[int, ...] = ()
    clustered: bool = False

    family = "churn"

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown churn action {self.action!r}")
        super().__post_init__()
        if self.k < 1:
            raise ValueError("churn events must touch at least one target (k >= 1)")
        if self.procs and self.action not in ("crash", "join"):
            raise ValueError("procs= applies only to crash/join churn events")
        if self.clustered and self.action != "crash":
            raise ValueError("clustered applies only to crash churn events")
        if self.procs and self.clustered:
            raise ValueError("explicit procs and clustered are mutually exclusive")

    def canonical(self) -> str:
        """The normalized spec clause for this event."""
        parts = self.timing()
        parts.append(f"{self.action}={self.k}")
        if self.procs:
            parts.append("procs=" + "|".join(str(p) for p in self.procs))
        if self.clustered:
            parts.append("clustered")
        return ",".join(parts)


class ChurnSchedule(Schedule):
    """An ordered collection of :class:`ChurnEvent`, plus seed and policy.

    Seeds follow :class:`~repro.faults.schedule.Schedule`.
    ``connectivity`` is schedule-wide: ``preserve`` (default) draws only
    candidates that keep the live subgraph's component count from
    growing, ``allow`` lets churn partition it.
    """

    family = "churn"

    def __init__(
        self,
        events: Sequence[ChurnEvent],
        seed: int | None = None,
        connectivity: str = "preserve",
    ):
        super().__init__(events, seed)
        if connectivity not in CONNECTIVITY:
            raise ValueError(
                f"unknown connectivity policy {connectivity!r} "
                f"(expected one of {CONNECTIVITY})"
            )
        self.connectivity = connectivity

    @classmethod
    def parse(cls, spec: str) -> "ChurnSchedule":
        return parse_churn(spec)

    def canonical(self) -> str:
        """Normalized spec string — the *measured parameter* form."""
        parts = [e.canonical() for e in self.events]
        if self.connectivity != "preserve":
            parts.append(f"connectivity={self.connectivity}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def bind(self, algorithm, default_seed: int = 0) -> "BoundChurnSchedule":
        """Commit this schedule to one execution's algorithm and seed."""
        seed = self.seed if self.seed is not None else default_seed
        return BoundChurnSchedule(self, algorithm, seed)


class BoundChurnSchedule(BoundSchedule):
    """A schedule bound to an algorithm and a seed — the applicable form.

    Owns the *canonical topology state*: the liveness vector and the
    algorithm's :class:`~repro.core.graph.Network` — the one current link
    set, which draws edit in place at pop time, so every later draw
    (crash eligibility, a rejoined process's junk pointers) reads the
    same topology whichever engine replays the stream.  ``base`` keeps
    the deployment links a rejoining process reclaims.  Engines mirror
    each occurrence's ``drops``/``adds``/``assignments`` into their own
    structures (:meth:`repro.core.kernel.csr.CSRAdjacency.apply_delta`
    plus the liveness mask on the kernel side — the dict side reads the
    ``Network`` directly).

    The pop protocol is :class:`~repro.faults.schedule.BoundSchedule`'s,
    shared with fault schedules, including terminal pull-forward: a
    silent system still experiences its churn.
    """

    def __init__(self, schedule: ChurnSchedule, algorithm, seed: int):
        super().__init__(schedule, algorithm, seed)
        network = algorithm.network
        #: The live :class:`~repro.core.graph.Network`, edited *at draw
        #: time*: the current link set every draw reads.
        self.network = network
        self.n = network.n
        #: Canonical liveness (all processes start live).
        self.live = [True] * self.n
        #: Deployment adjacency — the links a rejoining process reclaims.
        self.base = tuple(network.neighbors(u) for u in range(self.n))
        self._preserve = schedule.connectivity == "preserve"
        self._variables = tuple(algorithm.variables())

    # ------------------------------------------------------------------
    # Canonical-state queries (for drivers and posthoc sync)
    # ------------------------------------------------------------------
    def current_edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical link set as sorted ``(u, v)`` pairs, ``u < v``."""
        return tuple(self.network.edges())

    def dead(self) -> tuple[int, ...]:
        """Currently crashed process indices, ascending."""
        return tuple(u for u in range(self.n) if not self.live[u])

    def components(self) -> int:
        """Component count of the canonical live subgraph."""
        return self.network.components(self.dead())

    # ------------------------------------------------------------------
    # Draws (state-dependent, committed at pop time)
    # ------------------------------------------------------------------
    def _draw(self, occ: Occurrence) -> None:
        if occ.drawn:
            return
        event = self.schedule.events[occ.event]
        rng = occurrence_rng("churn", self.seed, occ.event, occ.index)
        occ.action = event.action
        if event.action == "crash":
            self._draw_crash(occ, event, rng)
        elif event.action == "join":
            self._draw_join(occ, event, rng)
        elif event.action == "drop_edge":
            self._draw_drop(occ, event, rng)
        else:
            self._draw_add(occ, event, rng)
        occ.components = self.components()
        occ.live = sum(self.live)
        occ.drawn = True

    def _crash_eligible(self, pool) -> list[int]:
        cands = [u for u in pool if self.live[u]]
        if sum(self.live) <= 1:
            return []  # never silence the last live process
        if self._preserve:  # silencing u must not split the live subgraph
            dead, before = self.dead(), self.components()
            cands = [u for u in cands
                     if self.network.components(dead + (u,)) <= before]
        return cands

    def _apply_crash(self, u: int, drops: list) -> None:
        self.live[u] = False
        links = [(min(u, v), max(u, v)) for v in self.network.neighbors(u)]
        self.network.apply_delta(links, ())
        drops.extend(links)

    def _draw_crash(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        pool = event.procs or range(self.n)
        victims: list[int] = []
        drops: list[tuple[int, int]] = []
        if event.clustered:
            cands = self._crash_eligible(pool)
            if cands:
                seed = cands[rng.randrange(len(cands))]
                frontier = list(self.network.neighbors(seed))
                self._apply_crash(seed, drops)
                victims.append(seed)
                seen = {seed}
                while len(victims) < event.k and frontier:
                    v = frontier.pop(rng.randrange(len(frontier)))
                    if v in seen:
                        continue
                    seen.add(v)
                    if v not in self._crash_eligible((v,)):
                        continue
                    neigh = self.network.neighbors(v)
                    self._apply_crash(v, drops)
                    victims.append(v)
                    frontier.extend(w for w in neigh if w not in seen)
        else:
            for _ in range(event.k):
                cands = self._crash_eligible(pool)
                if not cands:
                    break
                u = cands[rng.randrange(len(cands))]
                self._apply_crash(u, drops)
                victims.append(u)
        occ.victims = tuple(sorted(victims))
        occ.drops = tuple(drops)

    def _draw_join(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        pool = event.procs or range(self.n)
        victims: list[int] = []
        adds: list[tuple[int, int]] = []
        assignments: list[tuple[int, str, object]] = []
        for _ in range(event.k):
            cands = [u for u in pool if not self.live[u]]
            if self._preserve:
                cands = [
                    u for u in cands
                    if any(self.live[v] for v in self.base[u]) or sum(self.live) == 0
                ]
            if not cands:
                break
            u = cands[rng.randrange(len(cands))]
            self.live[u] = True
            reclaimed = [(min(u, v), max(u, v)) for v in self.base[u]
                         if self.live[v] and not self.network.are_neighbors(u, v)]
            # Link the reclaimed edges before drawing junk: the junk
            # pointer domain is the process's *post-join* neighborhood.
            if reclaimed:
                self.network.apply_delta((), reclaimed)
                adds.extend(reclaimed)
            junk = self.algorithm.random_state(u, rng)
            for var in self._variables:
                assignments.append((u, var, junk[var]))
            victims.append(u)
        occ.victims = tuple(sorted(victims))
        occ.adds = tuple(adds)
        occ.assignments = tuple(assignments)

    def _draw_drop(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        drops: list[tuple[int, int]] = []
        for _ in range(event.k):
            cands = list(self.current_edges())
            if self._preserve:
                dead, before = self.dead(), self.components()
                cands = [e for e in cands
                         if self.network.components(dead, without=e) == before]
            if not cands:
                break
            edge = cands[rng.randrange(len(cands))]
            self.network.apply_delta((edge,), ())
            drops.append(edge)
        occ.drops = tuple(drops)

    def _draw_add(self, occ: Occurrence, event: ChurnEvent, rng: Random) -> None:
        adds: list[tuple[int, int]] = []
        for _ in range(event.k):
            live = [u for u in range(self.n) if self.live[u]]
            cands = [
                (u, v)
                for i, u in enumerate(live)
                for v in live[i + 1:]
                if not self.network.are_neighbors(u, v)
            ]
            if not cands:
                break
            edge = cands[rng.randrange(len(cands))]
            self.network.apply_delta((), (edge,))
            adds.append(edge)
        occ.adds = tuple(adds)


# ----------------------------------------------------------------------
# The spec grammar (the ``churn`` trial param).
# ----------------------------------------------------------------------
def _churn_key(key: str, value: str, opts: dict, wide: dict) -> bool:
    if key == "connectivity":
        if value not in CONNECTIVITY:
            raise ValueError(
                f"unknown connectivity policy {value!r} "
                f"(expected one of {CONNECTIVITY})"
            )
        wide["connectivity"] = value
    elif key in ACTIONS:
        if "action" in opts:
            raise ValueError(
                f"churn clauses take exactly one action, got both "
                f"{opts['action']!r} and {key!r}"
            )
        opts["action"] = key
        opts["k"] = int(value)
    else:
        return False
    return True


def _clause_event(opts: dict) -> ChurnEvent:
    timing = pop_timing(opts, "churn")
    if "action" not in opts:
        raise ValueError(
            f"each churn clause needs exactly one action of {ACTIONS} "
            f"(e.g. crash=1)"
        )
    event = ChurnEvent(
        **timing,
        action=opts.pop("action"),
        k=opts.pop("k"),
        procs=opts.pop("procs", ()),
        clustered=opts.pop("clustered", False),
    )
    if opts:
        raise ValueError(
            f"churn spec options {sorted(opts)} don't apply to {timing['kind']!r}"
        )
    return event


def parse_churn(spec: str) -> ChurnSchedule:
    """Parse and validate a ``churn`` spec string.

    Raises :class:`ValueError` with a pointed message on any malformed
    spec; it is the run-option check of the trial param, run before
    anything is built.
    """
    if isinstance(spec, ChurnSchedule):
        return spec
    clauses, wide = parse_clauses(spec, "churn", _churn_key)
    return ChurnSchedule(
        [_clause_event(opts) for opts in clauses],
        seed=wide.get("seed"),
        connectivity=wide.get("connectivity", "preserve"),
    )
