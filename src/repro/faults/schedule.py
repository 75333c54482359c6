"""Declarative, seeded mid-run fault schedules.

A :class:`FaultSchedule` describes *when* transient faults strike an
execution (at a fixed step, every ``k`` steps, across a storm window, or
as a repeated burst), *which* registers they hit (``k`` random processes,
an explicit process list, a BFS-clustered region, restricted to named
variables or a layer scope such as "only the input algorithm's state"),
and nothing else: the corrupted *values* are always drawn from the
algorithm's own declared domains via ``random_state``, because transient
faults in the model corrupt register contents, never code.

Determinism is the load-bearing property.  Binding a schedule to an
algorithm and a seed (:meth:`FaultSchedule.bind`) pre-commits every
occurrence's victims and replacement values to a dedicated PRNG stream
derived from ``(seed, event index, occurrence index)`` — independent of
the daemon's RNG, of the backend, and of *when* the occurrence actually
fires.  The dict engine, the fused kernel loop, and the batched driver
therefore apply byte-identical corruptions under the same seed, which is
what the cross-backend property suite asserts.

Schedules are written either programmatically or as a compact spec
string (the ``faults`` trial param, ``--param faults=...`` on the sweep CLI)::

    at=100,k=3,vars=c            one 3-process fault at step 100
    every=250,k=1                a 1-process fault every 250 steps
    storm=1000-2000,cadence=50,k=2
                                 a storm window: every 50 steps in [1000, 2000]
    burst=500,count=3,gap=100,k=2,scope=input
                                 3 bursts at steps 500/600/700, input layer only
    at=0,procs=1|4;at=64,k=2,clustered
                                 two events, ';'-separated

:func:`parse_schedule` validates a spec up front and
:meth:`FaultSchedule.canonical` renders the normalized form, so
equivalent spellings share one trial key (fault schedules change
results, hence they are *measured* parameters).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random
from typing import Iterator, Sequence

from .injector import pick_victims

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "Schedule",
    "TimedEvent",
    "BoundFaultSchedule",
    "BoundSchedule",
    "Disturbance",
    "Occurrence",
    "parse_schedule",
]

#: Layer scopes resolvable against a composed algorithm.
SCOPES = ("input", "reset")

_SEP = "\x1f"
_SEED_MASK = (1 << 63) - 1


def occurrence_rng(tag: str, seed: int, event: int, occurrence: int) -> Random:
    """The dedicated PRNG for one occurrence of one event.

    Keyed on identity, not on firing step, so a pulled-forward occurrence
    (see :meth:`BoundSchedule.pop_due`) draws the same victims and
    values as its nominally-timed twin; ``tag`` (``fault``/``churn``)
    keeps co-scheduled fault and churn events from sharing randomness.
    SHA-256, like the campaign engine's seed derivation, so the stream
    is stable across platforms.
    """
    payload = f"{seed}{_SEP}{tag}{_SEP}{event}{_SEP}{occurrence}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return Random(int.from_bytes(digest[:8], "big") & _SEED_MASK)


#: Timing surface forms shared by fault and churn specs.
EVENT_KINDS = ("at", "every", "storm", "burst")


@dataclass(frozen=True)
class TimedEvent:
    """When one scheduled fault or churn event fires.

    Every surface form normalizes to ``(start, gap, count)``:
    ``at=S`` is ``(S, 0, 1)``; ``every=K`` is ``(K, K, None)`` (unbounded);
    ``storm=A-B,cadence=C`` is ``(A, C, (B-A)//C + 1)``;
    ``burst=S,count=N,gap=G`` is ``(S, G, N)``.
    """

    kind: str  # "at" | "every" | "storm" | "burst"
    start: int
    gap: int = 0
    count: int | None = 1

    #: The event family named in validation messages.
    family = "fault"

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown {self.family} event kind {self.kind!r}")
        if self.start < 0:
            raise ValueError(f"{self.family} event start step must be >= 0")
        if self.count is not None and self.count < 1:
            raise ValueError(f"{self.family} event count must be >= 1")
        if (self.count is None or self.count > 1) and self.gap < 1:
            raise ValueError(f"repeating {self.family} events need gap >= 1")

    def occurrence_steps(self) -> Iterator[int]:
        """Nominal firing steps, in order (infinite for unbounded events)."""
        step, i = self.start, 0
        while self.count is None or i < self.count:
            yield step
            step += self.gap
            i += 1

    def timing(self) -> list[str]:
        """The normalized spec items of this event's timing."""
        if self.kind == "at":
            return [f"at={self.start}"]
        if self.kind == "every":
            parts = [f"every={self.gap}"]
            if self.start != self.gap:
                parts.append(f"start={self.start}")
            if self.count is not None:
                parts.append(f"count={self.count}")
            return parts
        if self.kind == "storm":
            last = self.start + (self.count - 1) * self.gap
            return [f"storm={self.start}-{last}", f"cadence={self.gap}"]
        return [f"burst={self.start}", f"count={self.count}", f"gap={self.gap}"]


@dataclass(frozen=True)
class FaultEvent(TimedEvent):
    """One timed corruption pattern inside a schedule."""

    k: int = 1
    procs: tuple[int, ...] = ()
    variables: tuple[str, ...] = ()
    scope: str = ""
    clustered: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1 and not self.procs:
            raise ValueError("fault events must target at least one process")
        if self.procs and self.clustered:
            raise ValueError("explicit procs and clustered are mutually exclusive")
        if self.scope and self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r} (expected one of {SCOPES})")
        if self.scope and self.variables:
            raise ValueError("vars and scope are mutually exclusive")

    def canonical(self) -> str:
        """The normalized spec clause for this event."""
        parts = self.timing()
        if self.procs:
            parts.append("procs=" + "|".join(str(p) for p in self.procs))
        elif self.k != 1:
            parts.append(f"k={self.k}")
        if self.variables:
            parts.append("vars=" + "|".join(self.variables))
        if self.scope:
            parts.append(f"scope={self.scope}")
        if self.clustered:
            parts.append("clustered")
        return ",".join(parts)


class Schedule:
    """An ordered collection of timed events, plus its seed.

    ``seed=None`` (the default) defers to the execution: the harness
    binds such schedules with a trial-derived seed, so every trial in a
    sweep sees independent — but individually reproducible —
    disturbances.  An explicit seed pins the stream and becomes part of
    the canonical spec (and hence of the trial key).
    """

    #: The event family named in messages.
    family = "fault"

    def __init__(self, events: Sequence[TimedEvent], seed: int | None = None):
        if not events:
            raise ValueError(f"a {self.family} schedule needs at least one event")
        self.events = tuple(events)
        self.seed = seed

    @property
    def finite(self) -> bool:
        return all(e.count is not None for e in self.events)

    @property
    def total_occurrences(self) -> int | None:
        """Number of occurrences a full run fires (None if unbounded)."""
        if not self.finite:
            return None
        return sum(e.count for e in self.events)

    def canonical(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical()!r})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


class FaultSchedule(Schedule):
    """An ordered collection of :class:`FaultEvent`, plus its seed."""

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        return parse_schedule(spec)

    def canonical(self) -> str:
        """Normalized spec string — the *measured parameter* form."""
        parts = [e.canonical() for e in self.events]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def bind(self, algorithm, default_seed: int = 0) -> "BoundFaultSchedule":
        """Commit this schedule to one execution's algorithm and seed."""
        seed = self.seed if self.seed is not None else default_seed
        return BoundFaultSchedule(self, algorithm, seed)


@dataclass
class Occurrence:
    """One committed disturbance: identity, nominal step, drawn delta.

    Fault and churn occurrences share this shape, so the drivers land
    both the same way: ``assignments`` rewrite registers, ``drops`` and
    ``adds`` rewire links (churn only), and :attr:`crashed` /
    :attr:`joined` flip liveness (churn only).  ``step`` is the
    *nominal* step; the step it landed at is the :class:`Disturbance`'s.
    """

    event: int
    index: int
    step: int
    #: Schedule-wide occurrence ordinal (0-based firing order).
    burst: int = 0
    #: Churn action (``crash``/``join``/``drop_edge``/``add_edge``);
    #: empty for a fault.
    action: str = ""
    victims: tuple[int, ...] = ()
    #: The fault event's resolved variables, kept even when no victim
    #: was drawn; empty for churn.
    variables: tuple[str, ...] = ()
    #: Undirected ``(u, v)`` pairs, ``u < v``, in application order.
    drops: tuple[tuple[int, int], ...] = ()
    adds: tuple[tuple[int, int], ...] = ()
    #: ``(process, variable, decoded value)`` triples, victims ascending.
    assignments: tuple[tuple[int, str, object], ...] = ()
    #: Live-subgraph shape after a churn mutation.
    components: int = 0
    live: int = 0
    drawn: bool = field(default=False, repr=False)

    @property
    def crashed(self) -> tuple[int, ...]:
        """Processes this occurrence silences."""
        return self.victims if self.action == "crash" else ()

    @property
    def joined(self) -> tuple[int, ...]:
        """Processes this occurrence brings back to life."""
        return self.victims if self.action == "join" else ()


@dataclass(frozen=True)
class Disturbance:
    """What the drivers hand to ``Probe.on_disturbance`` per occurrence.

    ``occurrence`` is the landed fault or churn :class:`Occurrence` (a
    fault's ``action`` is empty); ``step``/``moves``/``rounds`` are the
    execution's accounting totals at the disturbed configuration, which
    landing itself does not advance.
    """

    occurrence: Occurrence
    step: int
    moves: int
    rounds: int


class BoundSchedule:
    """The pop protocol shared by bound fault and churn schedules.

    The drivers own the protocol: before every step they call
    :meth:`pop_due` with the execution's step count; each returned
    occurrence is landed on the current configuration, and the probes
    hear of it through :meth:`notify`.  When the execution goes terminal
    while occurrences remain, the next one is *pulled forward* to the
    current step: a silent algorithm would otherwise never experience
    its disturbances, and self-stabilization's whole claim is recovery
    from faults that strike legitimate configurations.  Subclasses
    commit each occurrence's delta in ``_draw``.
    """

    def __init__(self, schedule, algorithm, seed: int):
        self.schedule = schedule
        self.algorithm = algorithm
        self.seed = seed
        self.fired = 0
        # Per-event cursors over the (possibly unbounded) occurrence steps.
        self._iters = [e.occurrence_steps() for e in schedule.events]
        self._next: list[int | None] = [next(it) for it in self._iters]
        self._counts = [0] * len(schedule.events)

    def peek_next(self) -> int | None:
        """Nominal step of the earliest pending occurrence (None = done)."""
        pending = [s for s in self._next if s is not None]
        return min(pending) if pending else None

    @property
    def exhausted(self) -> bool:
        return self.peek_next() is None

    def _advance(self, event: int) -> Occurrence:
        step = self._next[event]
        occ = Occurrence(event, self._counts[event], step, burst=self.fired)
        self._counts[event] += 1
        try:
            self._next[event] = next(self._iters[event])
        except StopIteration:
            self._next[event] = None
        self.fired += 1
        self._draw(occ)
        return occ

    def pop_due(self, step: int, idle: bool = False) -> list[Occurrence]:
        """All occurrences due at ``step`` (events in declaration order).

        ``idle=True`` signals a terminal configuration: when nothing is
        due but occurrences remain, the earliest is pulled forward so the
        schedule makes progress against silent algorithms.  Each returned
        occurrence keeps its *nominal* step for reporting.
        """
        due: list[Occurrence] = []
        while True:
            ready = [
                i for i, s in enumerate(self._next) if s is not None and s <= step
            ]
            if not ready:
                break
            # Fire in (nominal step, event order), one at a time, so
            # overlapping events interleave deterministically.
            event = min(ready, key=lambda i: (self._next[i], i))
            due.append(self._advance(event))
        if not due and idle:
            pending = [i for i, s in enumerate(self._next) if s is not None]
            if pending:
                event = min(pending, key=lambda i: (self._next[i], i))
                due.append(self._advance(event))
        return due

    def notify(self, probes, due, *, step: int, moves: int, rounds: int) -> None:
        """Hand every landed occurrence of ``due`` to ``probes``."""
        for occ in due:
            info = Disturbance(occ, step, moves, rounds)
            for probe in probes:
                probe.on_disturbance(info)

    def _draw(self, occ: Occurrence) -> None:
        raise NotImplementedError


class BoundFaultSchedule(BoundSchedule):
    """A fault schedule bound to an algorithm and a seed.

    Each occurrence carries pre-drawn ``(process, variable, value)``
    triples to apply to the current configuration (dict
    ``Configuration`` or kernel columns — values are decoded, the
    appliers encode).
    """

    def __init__(self, schedule: FaultSchedule, algorithm, seed: int):
        super().__init__(schedule, algorithm, seed)
        self._allowed = tuple(
            resolve_variables(algorithm, e.variables, e.scope)
            for e in schedule.events
        )

    def _draw(self, occ: Occurrence) -> None:
        """Commit victims and replacement values for one occurrence."""
        if occ.drawn:
            return
        event = self.schedule.events[occ.event]
        rng = occurrence_rng("fault", self.seed, occ.event, occ.index)
        if event.procs:
            n = self.algorithm.network.n
            victims = [p for p in event.procs if 0 <= p < n]
        else:
            victims = pick_victims(
                self.algorithm.network, rng, event.k, event.clustered
            )
        occ.victims = tuple(sorted(victims))
        occ.variables = allowed = self._allowed[occ.event]
        triples = []
        for u in occ.victims:
            junk = self.algorithm.random_state(u, rng)
            for var in allowed:
                triples.append((u, var, junk[var]))
        occ.assignments = tuple(triples)
        occ.drawn = True


def resolve_variables(algorithm, variables: Sequence[str], scope: str) -> tuple[str, ...]:
    """Resolve an event's variable restriction against one algorithm.

    Explicit names are validated against ``algorithm.variables()``; the
    named scopes resolve structurally: ``input`` is the composed input
    layer's variables, ``reset`` everything else (SDR's own registers).
    """
    declared = tuple(algorithm.variables())
    if variables:
        unknown = [v for v in variables if v not in declared]
        if unknown:
            raise ValueError(
                f"fault schedule targets unknown variable(s) {unknown} "
                f"(algorithm declares {sorted(declared)})"
            )
        return tuple(variables)
    if scope:
        inner = getattr(algorithm, "input", None)
        if inner is None:
            raise ValueError(
                f"scope={scope!r} needs a composed algorithm with an input "
                f"layer; {type(algorithm).__name__} has none"
            )
        input_vars = tuple(inner.variables())
        if scope == "input":
            return input_vars
        return tuple(v for v in declared if v not in set(input_vars))
    return declared


# ----------------------------------------------------------------------
# The spec grammar (the ``faults`` trial param).
# ----------------------------------------------------------------------
#: Integer-valued timing keys shared by fault and churn clauses.
_INT_KEYS = ("start", "until", "count", "gap", "cadence")


def parse_clauses(spec: str, family: str, own_key) -> tuple[list[dict], dict]:
    """Split a ``;``-separated spec into one option dict per clause.

    Reads the keys fault and churn specs share — timing, ``storm``,
    ``procs``, ``clustered`` and the schedule-wide ``seed`` — and hands
    every other ``key=value`` to ``own_key(key, value, opts, wide)``,
    which stores it (clause options in ``opts``, schedule-wide ones in
    ``wide``) and answers ``False`` for a key it does not know.  Returns
    the non-empty clauses and the schedule-wide settings.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty {family} spec")
    clauses: list[dict] = []
    wide: dict = {}
    for clause in spec.split(";"):
        opts: dict = {}
        for item in clause.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                if item == "clustered":
                    opts["clustered"] = True
                    continue
                raise ValueError(f"malformed {family} spec item {item!r}")
            key, _, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if key == "seed":
                wide["seed"] = int(value)
            elif key == "storm":
                lo, sep, hi = value.partition("-")
                if not sep:
                    raise ValueError(f"storm window must be A-B, got {value!r}")
                opts["storm"] = (int(lo), int(hi))
            elif key == "procs":
                opts["procs"] = tuple(int(p) for p in value.split("|") if p != "")
            elif key in _INT_KEYS or key in EVENT_KINDS:
                opts[key] = int(value)
            elif not own_key(key, value, opts, wide):
                raise ValueError(f"unknown {family} spec key {key!r}")
        if opts:
            clauses.append(opts)
    if not clauses:
        raise ValueError(f"{family} spec {spec!r} declares no events")
    return clauses, wide


def _fault_key(key: str, value: str, opts: dict, wide: dict) -> bool:
    if key == "k":
        opts["k"] = int(value)
    elif key == "vars":
        opts["vars"] = tuple(v for v in value.split("|") if v)
    elif key == "scope":
        opts["scope"] = value
    else:
        return False
    return True


def pop_timing(opts: dict, family: str) -> dict:
    """Pop one clause's timing options as :class:`TimedEvent` fields."""
    kinds = [k for k in EVENT_KINDS if k in opts]
    if len(kinds) != 1:
        raise ValueError(
            f"each {family} clause needs exactly one of {EVENT_KINDS}, got {kinds}"
        )
    kind = kinds[0]
    if kind == "at":
        return dict(kind=kind, start=opts.pop("at"))
    if kind == "every":
        gap = opts.pop("every")
        start = opts.pop("start", gap)
        count = opts.pop("count", None)
        if "until" in opts:
            until = opts.pop("until")
            if until < start:
                raise ValueError("every: until must be >= start")
            count = (until - start) // gap + 1
        return dict(kind=kind, start=start, gap=gap, count=count)
    if kind == "storm":
        lo, hi = opts.pop("storm")
        cadence = opts.pop("cadence", None)
        if cadence is None:
            raise ValueError("storm windows need cadence=K")
        if hi < lo:
            raise ValueError(f"storm window {lo}-{hi} is empty")
        return dict(kind=kind, start=lo, gap=cadence,
                    count=(hi - lo) // cadence + 1)
    start = opts.pop("burst")
    count = opts.pop("count", None)
    gap = opts.pop("gap", None)
    if count is None or gap is None:
        raise ValueError("bursts need count=N and gap=G")
    return dict(kind=kind, start=start, gap=gap, count=count)


def _clause_event(opts: dict) -> FaultEvent:
    timing = pop_timing(opts, "fault")
    event = FaultEvent(
        **timing,
        k=opts.pop("k", 1),
        procs=opts.pop("procs", ()),
        variables=opts.pop("vars", ()),
        scope=opts.pop("scope", ""),
        clustered=opts.pop("clustered", False),
    )
    if opts:
        raise ValueError(
            f"fault spec options {sorted(opts)} don't apply to {timing['kind']!r}"
        )
    return event


def parse_schedule(spec: str) -> FaultSchedule:
    """Parse and validate a ``faults`` spec string.

    Raises :class:`ValueError` with a pointed message on any malformed
    spec; it is the run-option check of the trial param, run before
    anything is built.
    """
    if isinstance(spec, FaultSchedule):
        return spec
    clauses, wide = parse_clauses(spec, "fault", _fault_key)
    return FaultSchedule([_clause_event(opts) for opts in clauses],
                         seed=wide.get("seed"))
