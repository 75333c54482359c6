"""Adversarial schedule search strategies and their daemon adapter.

Two column-tier searches drive the kernel engine toward worst-case
executions:

* :class:`GreedyAdversary` — 1-step lookahead: every enabled
  ``(process, rule)`` candidate's successor configuration
  (:func:`successor`) is ranked by potential
  (:mod:`repro.adversary.potential`); the best candidate is scheduled.
* :class:`BeamAdversary` — width-W beam over bounded rollouts: each beam
  state is a successor column dict plus the plan's first move, scored by
  moves spent so far plus successor potential, and the first move of the
  best plan is scheduled.

Rollouts are pure functions of column dicts: a search reads the live
:class:`~repro.core.kernel.engine.KernelRuntime`'s program, columns and
liveness but never writes them — only the driver advances the runtime.

:class:`SearchDaemon` adapts a strategy into the daemon contract, so
``Simulator(daemon=...)``, the campaign engine, and trial keys work
unchanged.  It reaches the runtime through the simulator's lazy config
view, so a column-tier strategy needs the kernel backend and raises
:class:`~repro.core.exceptions.DaemonError` without one.  The scored
heuristic (``adversary=delay``, a :class:`ScoredStrategy` selecting
through :class:`AdversarialDaemon`) reads only the configuration and
runs the same schedule on both backends.  Every selection is logged so
:mod:`repro.adversary.certificates` can emit a replayable certificate.

Searches are deterministic: they never consume the simulator's RNG, and
all ties break on one canonical ``(score, -process, rule)`` key — the
highest score wins, then the lowest process index, then the
lexicographically greatest rule name.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..core.configuration import Configuration
from ..core.daemon import Daemon
from ..core.exceptions import DaemonError
from ..core.kernel.engine import check_predicate, enabled_map, live_masks
from ..reset.sdr import SDR_RULES
from .potential import Columns, Potential, default_potential

__all__ = [
    "SearchStrategy",
    "GreedyAdversary",
    "BeamAdversary",
    "ScoredStrategy",
    "SearchDaemon",
    "AdversarialDaemon",
    "delay_strategy",
    "successor",
    "make_search_daemon",
    "known_strategy",
    "STRATEGY_KINDS",
]

EnabledMap = Mapping[int, tuple[str, ...]]
Selection = dict[int, str]


def delay_strategy(cfg: Configuration, u: int, rule: str, step: int) -> float:
    """Scored heuristic: run input moves first, feedback/completion last.

    Stretches executions toward the move-complexity worst case: the
    daemon lets the input algorithm churn before letting resets make
    progress.  Backend-independent: it reads only the configuration.
    """
    if rule not in SDR_RULES:
        return 3.0
    if rule in ("rule_RB", "rule_R"):
        return 2.0
    if rule == "rule_RF":
        return 1.0
    return 0.0  # rule_C


class AdversarialDaemon(Daemon):
    """Greedy scored adversary: activates the single best-scored move.

    The strategy callback receives ``(cfg, u, rule, step)`` and returns a
    score; the canonical ``(score, -u, rule)`` key picks the winner —
    highest score first, ties to the lowest process index, then the
    lexicographically greatest rule name.  :class:`SearchDaemon`
    selects through it for a :class:`ScoredStrategy`.
    """

    name = "adversarial"

    def __init__(self, strategy: Callable[[Configuration, int, str, int], float]):
        self._strategy = strategy

    def select(self, cfg, enabled, rng, step):
        best_key: tuple[float, int, str] | None = None
        best: tuple[int, str] | None = None
        for u in sorted(enabled):
            for rule in enabled[u]:
                key = (self._strategy(cfg, u, rule, step), -u, rule)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (u, rule)
        assert best is not None
        return {best[0]: best[1]}


def successor(program, cols: Columns, selection: Selection) -> dict[str, np.ndarray]:
    """The configuration one atomic step of ``selection`` leads to from ``cols``.

    Pure: ``cols`` stays untouched and the successor lands in fresh
    columns, every activated process reading the same frozen ``cols``
    (composite atomicity).
    """
    nxt = {name: col.copy() for name, col in cols.items()}
    by_rule: dict[str, list[int]] = {}
    for u, rule in selection.items():
        by_rule.setdefault(rule, []).append(u)
    for rule, members in sorted(by_rule.items()):
        program.apply(rule, np.asarray(sorted(members), dtype=np.int64), cols, nxt)
    return nxt


# ======================================================================
# Column-tier strategies
# ======================================================================
class SearchStrategy:
    """One schedule-search policy over the kernel runtime's columns.

    ``choose_columns`` picks a selection given the live runtime and its
    enabled map, rolling out on column dicts of its own (the runtime is
    only read).  Strategies are deterministic and stateless across steps
    apart from the potential and stop predicate they resolve against the
    runtime's program, which ``reset`` drops between executions.
    """

    spec = "strategy"
    #: Whether ``choose_columns`` is implemented (False = scored-only).
    column_tier = True
    #: Name of the measured run's legitimacy predicate (``"normal"``),
    #: one the kernel program declares and ``evaluate`` returns.  The
    #: trial runner sets it so rollouts know the run *stops* at the
    #: first legitimate configuration — a plan crossing one is terminal
    #: and owes no further moves, no matter how enabled it looks.
    stop_mask: str | None = None

    def __init__(self, potential: Potential | None = None):
        self._potential = potential
        self._explicit = potential is not None
        self._stop: str | None = None

    def reset(self) -> None:
        self._stop = None
        if not self._explicit:
            self._potential = None

    def choose_columns(self, kernel, enabled: EnabledMap, step: int) -> Selection:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _materialize(self, kernel) -> Potential:
        if self._potential is None:
            self._potential = default_potential(kernel.program)
        if self._stop is None and self.stop_mask is not None:
            self._stop = check_predicate(kernel.program, self.stop_mask)
        return self._potential

    @staticmethod
    def _enabled(kernel, masks) -> EnabledMap:
        """The enabled map of a rollout state's guard ``masks`` (crashed
        processes stay disabled, as in the runtime's own masks)."""
        return enabled_map(live_masks(masks, kernel.live), kernel.rules,
                           kernel.program.csr.n)

    @staticmethod
    def _candidate_selections(enabled: EnabledMap) -> list[Selection]:
        """Enumerate candidate selections: singles plus cohort macros.

        A distributed daemon may activate *any* non-empty subset, and
        the worst executions are not always sequential: simultaneous
        activations of a whole cohort can regenerate disorder that a
        lone move would resolve (the exhaustive single-move optimum on
        small rings is in fact *below* what random distributed
        schedules reach).  Enumerating all ``2^|enabled|`` subsets is
        hopeless, so candidates are every single move plus structured
        macros: for each rule, the full cohort of processes with that
        rule enabled, its even/odd halves (staggered sub-waves), and
        the fully synchronous selection.
        """
        singles: list[Selection] = [
            {u: rule} for u in sorted(enabled) for rule in enabled[u]
        ]
        cohorts: dict[str, list[int]] = {}
        for u in sorted(enabled):
            for rule in enabled[u]:
                cohorts.setdefault(rule, []).append(u)
        seen = {tuple(sorted(sel.items())) for sel in singles}
        macros: list[Selection] = []

        def add(sel: Selection) -> None:
            if not sel:
                return
            key = tuple(sorted(sel.items()))
            if key not in seen:
                seen.add(key)
                macros.append(sel)

        for rule, members in sorted(cohorts.items()):
            add({u: rule for u in members})
            add({u: rule for u in members[0::2]})
            add({u: rule for u in members[1::2]})
        add({u: enabled[u][0] for u in sorted(enabled)})
        return singles + macros

    def _rank_candidates(self, kernel, cols: Columns, enabled: EnabledMap):
        """Score every candidate selection by moves-spent plus potential.

        Each candidate's successor of ``cols`` (:func:`successor`) is
        scored ``len(selection) + potential(successor)`` — the moves the
        step spends plus an estimate of the moves the successor still
        owes.  A successor the measured run stops at (:attr:`stop_mask`)
        owes nothing, whatever the potential says.  One ``evaluate`` per
        successor serves the stop test, the potential and, later, the
        successor's enabled map.  Returns ``[(score, selection,
        successor, potential, guard masks), ...]`` sorted descending by
        score, ``potential`` being ``None`` at a stopping successor; ties
        break on the canonical serialized selection (ascending), so the
        ranking is deterministic.
        """
        potential = self._materialize(kernel)
        program, stop = kernel.program, self._stop
        ranked = []
        for sel in self._candidate_selections(enabled):
            nxt = successor(program, cols, sel)
            masks, preds = program.evaluate(nxt)
            pot = (None if stop is not None and preds[stop].all()
                   else potential.score(nxt, program, masks))
            ranked.append(
                (float(len(sel)) + (pot or 0.0), sel, nxt, pot, masks)
            )
        ranked.sort(key=lambda t: (-t[0], tuple(sorted(t[1].items()))))
        return ranked

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class GreedyAdversary(SearchStrategy):
    """1-step lookahead: schedule the candidate whose step scores best."""

    spec = "greedy"

    def choose_columns(self, kernel, enabled, step):
        return dict(self._rank_candidates(kernel, kernel.read, enabled)[0][1])


class BeamAdversary(SearchStrategy):
    """Width-W beam over bounded rollouts from the live configuration.

    Each beam state is a rollout's columns plus the plan's first move,
    scored by moves spent so far plus the successor potential.  Per
    depth, each surviving state expands its ``branch`` best candidates
    (ranked by the same 1-step lookahead as :class:`GreedyAdversary`,
    whose successors become the next states); after ``horizon`` plies
    the first move of the best plan is scheduled.  Terminal rollout
    states persist in the beam with their accumulated score, so a plan
    that ends the execution early is only chosen if nothing
    longer-lived outscores it.
    """

    spec = "beam"

    def __init__(self, width: int = 3, horizon: int = 3, branch: int = 6,
                 potential: Potential | None = None):
        if width < 1 or horizon < 1 or branch < 1:
            raise DaemonError(
                f"beam parameters must be >= 1, got width={width} "
                f"horizon={horizon} branch={branch}"
            )
        super().__init__(potential)
        self.width = width
        self.horizon = horizon
        self.branch = branch
        self.spec = f"beam-{width}x{horizon}"

    def _expand(self, kernel, cols, enabled, moves: int, first=None):
        """The ``branch`` best successor states of one beam state."""
        for _score, sel, nxt, pot, masks in self._rank_candidates(
            kernel, cols, enabled
        )[: self.branch]:
            em = {} if pot is None else self._enabled(kernel, masks)
            yield (moves + len(sel) + (pot if em else 0.0), moves + len(sel),
                   sel if first is None else first, nxt, em)

    def choose_columns(self, kernel, enabled, step):
        # (total score, moves in plan, first selection, columns, enabled)
        states = list(self._expand(kernel, kernel.read, enabled, 0))
        # Stable sort on the score alone: ties keep the canonical
        # candidate ranking, so the whole search stays deterministic.
        states.sort(key=lambda s: s[0], reverse=True)
        for _depth in range(1, self.horizon):
            states = states[: self.width]
            if all(not s[4] for s in states):
                break
            nxt = []
            for state in states:
                _total, moves, first, cols, em = state
                if em:
                    nxt.extend(self._expand(kernel, cols, em, moves, first))
                else:
                    nxt.append(state)
            nxt.sort(key=lambda s: s[0], reverse=True)
            states = nxt
        return dict(states[0][2])


class ScoredStrategy(SearchStrategy):
    """A pure scored heuristic wrapped as a strategy (no column tier).

    Identical on every backend: the score function only reads the
    decoded configuration, so the ``delay`` strategy produces the same
    schedule on the dict and kernel backends.
    """

    column_tier = False

    def __init__(self, score_fn: Callable[[Configuration, int, str, int], float],
                 spec: str = "delay"):
        super().__init__()
        self.score = score_fn
        self.spec = spec


# ======================================================================
# Daemon adapter
# ======================================================================
class SearchDaemon(Daemon):
    """A :class:`SearchStrategy` as a zoo daemon.

    On the kernel backend the simulator hands daemons a lazy config
    view; the adapter reaches through it to the live
    :class:`~repro.core.kernel.engine.KernelRuntime` and runs the
    column-tier search without decoding anything.  A column-tier
    strategy without a runtime (the dict backend) raises
    :class:`~repro.core.exceptions.DaemonError`: it has no dict twin, and
    a silent stand-in would land a different schedule under the same
    trial key.  A :class:`ScoredStrategy` selects through
    :class:`AdversarialDaemon` on either backend.

    Every returned selection is appended to :attr:`log` (cleared by
    ``reset``, which the simulator calls once per execution), so a
    finished run can be packaged into a replayable certificate by
    :func:`repro.adversary.certificates.certificate_from_daemon`.
    """

    name = "adversarial"

    def __init__(self, strategy: SearchStrategy):
        self.strategy = strategy
        self.spec = f"adversarial:{strategy.spec}"
        self.log: list[Selection] = []
        self._scored = (
            None if strategy.column_tier else AdversarialDaemon(strategy.score)
        )

    def reset(self) -> None:
        self.log.clear()
        self.strategy.reset()

    def select(self, cfg, enabled, rng, step):
        if self._scored is not None:
            selection = self._scored.select(cfg, enabled, rng, step)
        else:
            kernel = getattr(getattr(cfg, "_sim", None), "_kernel", None)
            if kernel is None:
                raise DaemonError(
                    f"{self.spec} requires the kernel backend: the search "
                    "rolls out on the kernel runtime's columns (replay its "
                    "certificate on the dict backend instead)"
                )
            selection = self.strategy.choose_columns(kernel, enabled, step)
        self.log.append(dict(selection))
        return selection

    def __repr__(self) -> str:
        return f"SearchDaemon({self.spec!r})"


# ======================================================================
# Registry
# ======================================================================
#: Strategy families ``make_search_daemon`` accepts.  ``beam`` takes
#: optional ``-WIDTH``, ``-WIDTHxHORIZON``, or ``-WIDTHxHORIZONxBRANCH``
#: suffixes (e.g. ``beam-2x2``).
STRATEGY_KINDS = ("greedy", "beam", "delay")


def _parse_strategy(spec: str | None) -> SearchStrategy:
    spec = (spec or "greedy").strip()
    if spec == "greedy":
        return GreedyAdversary()
    if spec == "delay":
        return ScoredStrategy(delay_strategy)
    if spec == "beam" or spec.startswith("beam-"):
        if spec == "beam":
            return BeamAdversary()
        try:
            dims = [int(part) for part in spec[len("beam-"):].split("x")]
        except ValueError:
            dims = []
        if not 1 <= len(dims) <= 3:
            raise DaemonError(
                f"bad beam spec {spec!r}; use beam, beam-W, beam-WxH, "
                "or beam-WxHxB (e.g. beam-2x2)"
            )
        return BeamAdversary(*dims)
    raise DaemonError(
        f"unknown adversary strategy {spec!r}; choose from "
        f"{list(STRATEGY_KINDS)}"
    )


def known_strategy(spec: str | None) -> bool:
    """Whether ``spec`` parses to a registered search strategy."""
    try:
        _parse_strategy(spec)
    except DaemonError:
        return False
    return True


def make_search_daemon(spec: str | None = None) -> SearchDaemon:
    """The search daemon for strategy ``spec`` (default: greedy).

    Searches read topology from the kernel program's CSR adjacency, so
    no network is needed.
    """
    return SearchDaemon(_parse_strategy(spec))
