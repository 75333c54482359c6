"""Adversarial schedule search strategies and their daemon adapter.

Two column-tier searches drive the kernel engine toward worst-case
executions:

* :class:`GreedyAdversary` — 1-step lookahead: every enabled
  ``(process, rule)`` candidate is applied on a scratch buffer and the
  successor configurations are ranked by potential
  (:mod:`repro.adversary.potential`); the best candidate is scheduled.
* :class:`BeamAdversary` — width-W beam over bounded rollouts: branches
  are explored on the *live* :class:`~repro.core.kernel.engine.KernelRuntime`
  via :meth:`~repro.core.kernel.engine.KernelRuntime.snapshot` /
  :meth:`~repro.core.kernel.engine.KernelRuntime.restore`, scoring each
  partial plan by moves-spent-so-far plus successor potential, and the
  first move of the best plan is scheduled.

:class:`SearchDaemon` adapts a strategy into the daemon contract, so
``Simulator(daemon=...)``, the campaign engine, and trial keys work
unchanged.  On the kernel backend it reaches the runtime through the
simulator's lazy config view; on the dict backend it degrades to the
decode-tier scored heuristic (:class:`AdversarialDaemon`, folded in here
from ``repro.core.daemon`` — the old import path still works through a
deprecation shim).  Every selection is logged so
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
from ..reset.sdr import SDR_RULES
from .potential import Potential, default_potential

__all__ = [
    "SearchStrategy",
    "GreedyAdversary",
    "BeamAdversary",
    "ScoredStrategy",
    "SearchDaemon",
    "AdversarialDaemon",
    "delay_strategy",
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
    progress.  Backend-independent (reads only the configuration), so it
    doubles as the decode-tier fallback of every search strategy.
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
    lexicographically greatest rule name.  This is the decode-tier
    fallback of :class:`SearchDaemon` and remains importable from
    :mod:`repro.core.daemon` through a deprecation shim.
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


# ======================================================================
# Column-tier strategies
# ======================================================================
class SearchStrategy:
    """One schedule-search policy over the kernel runtime.

    ``choose_columns`` picks a selection given the live runtime and its
    enabled map; ``score`` is the decode-tier scalar fallback used when
    no runtime is available (dict backend).  Strategies are
    deterministic and stateless across steps apart from cached scratch
    buffers, which ``reset`` drops between executions.
    """

    spec = "strategy"
    #: Whether ``choose_columns`` is implemented (False = scored-only).
    column_tier = True
    #: Kernel-program legitimacy mask of the measured run (an attribute
    #: name like ``"normal_mask"``, or a ``cols -> ndarray`` callable).
    #: The trial runner sets it so rollouts know the run *stops* at the
    #: first legitimate configuration — a plan crossing one is terminal
    #: and owes no further moves, no matter how enabled it looks.
    stop_mask: str | None = None

    def __init__(self, potential: Potential | None = None):
        self._potential = potential
        self._explicit = potential is not None
        self._scratch: dict[str, np.ndarray] | None = None
        self._stop_fn = None

    def reset(self) -> None:
        self._scratch = None
        self._stop_fn = None
        if not self._explicit:
            self._potential = None

    def choose_columns(self, kernel, enabled: EnabledMap, step: int) -> Selection:
        raise NotImplementedError

    def score(self, cfg, u: int, rule: str, step: int) -> float:
        return delay_strategy(cfg, u, rule, step)

    # ------------------------------------------------------------------
    def _materialize(self, kernel) -> tuple[Potential, dict[str, np.ndarray]]:
        if self._potential is None:
            self._potential = default_potential(kernel.program)
        if self._scratch is None:
            self._scratch = {
                name: np.empty_like(col) for name, col in kernel.read.items()
            }
        if self._stop_fn is None and self.stop_mask is not None:
            from ..probes.stabilization import resolve_mask

            self._stop_fn = resolve_mask(kernel.program, self.stop_mask)
        return self._potential, self._scratch

    def _stopped(self, cols) -> bool:
        """Whether ``cols`` is a configuration the measured run stops at."""
        return self._stop_fn is not None and bool(self._stop_fn(cols).all())

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

    def _apply_scratch(self, kernel, sel: Selection,
                       scratch: dict[str, np.ndarray]) -> None:
        """Apply ``sel`` on the scratch buffer (read columns untouched)."""
        read, program = kernel.read, kernel.program
        for name, col in read.items():
            scratch[name][:] = col
        by_rule: dict[str, list[int]] = {}
        for u, rule in sel.items():
            by_rule.setdefault(rule, []).append(u)
        for rule, members in sorted(by_rule.items()):
            idx = np.asarray(sorted(members), dtype=np.int64)
            program.apply(rule, idx, read, scratch)

    def _rank_candidates(self, kernel, enabled: EnabledMap):
        """Score every candidate selection by moves-spent plus potential.

        Each candidate is applied alone on the scratch buffer and scored
        ``len(selection) + potential(successor)`` — the moves the step
        spends plus an estimate of the moves the successor still owes.
        A successor the measured run stops at (:attr:`stop_mask`) owes
        nothing, whatever the potential says.  Returns
        ``[(score, selection), ...]`` sorted descending by score; ties
        break on the canonical serialized selection (ascending), so the
        ranking is deterministic.
        """
        potential, scratch = self._materialize(kernel)
        program = kernel.program
        ranked = []
        for sel in self._candidate_selections(enabled):
            self._apply_scratch(kernel, sel, scratch)
            pot = (0.0 if self._stopped(scratch)
                   else potential.score(scratch, program))
            ranked.append((float(len(sel)) + pot, sel))
        ranked.sort(key=lambda t: (-t[0], tuple(sorted(t[1].items()))))
        return ranked

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class GreedyAdversary(SearchStrategy):
    """1-step lookahead: schedule the candidate whose step scores best."""

    spec = "greedy"

    def choose_columns(self, kernel, enabled, step):
        _, sel = self._rank_candidates(kernel, enabled)[0]
        return dict(sel)


class BeamAdversary(SearchStrategy):
    """Width-W beam over bounded rollouts of the live kernel runtime.

    Rollouts branch off :meth:`KernelRuntime.snapshot`: each beam state
    is a snapshot plus the plan's first move, scored by moves spent so
    far plus the successor potential.  Per depth, each surviving state
    expands its ``branch`` best candidates (ranked by the same 1-step
    lookahead as :class:`GreedyAdversary`); after ``horizon`` plies the
    first move of the best plan is scheduled and the runtime is restored
    untouched.  Terminal rollout states persist in the beam with their
    accumulated score, so a plan that ends the execution early is only
    chosen if nothing longer-lived outscores it.
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

    def choose_columns(self, kernel, enabled, step):
        potential, _ = self._materialize(kernel)
        program = kernel.program
        base = kernel.snapshot()
        try:
            # Depth 1: every candidate from the live configuration.
            states = []  # (total score, moves in plan, first selection, snap, enabled)
            for _score, sel in self._rank_candidates(kernel, enabled)[: self.branch]:
                kernel.restore(base)
                kernel.apply(sel)
                stopped = self._stopped(kernel.read)
                em = {} if stopped else dict(kernel.enabled_map())
                pot = 0.0 if not em else potential.score(kernel.read, program)
                states.append((len(sel) + pot, len(sel), sel,
                               kernel.snapshot(), em))
            # Stable sort on the score alone: ties keep the canonical
            # candidate ranking, so the whole search stays deterministic.
            states.sort(key=lambda s: s[0], reverse=True)
            for _depth in range(1, self.horizon):
                states = states[: self.width]
                if all(not s[4] for s in states):
                    break
                nxt = []
                for total, moves, first, snap, em in states:
                    if not em:
                        nxt.append((total, moves, first, snap, em))
                        continue
                    kernel.restore(snap)
                    ranked = self._rank_candidates(kernel, em)[: self.branch]
                    for _score, sel in ranked:
                        kernel.restore(snap)
                        kernel.apply(sel)
                        stopped = self._stopped(kernel.read)
                        em2 = {} if stopped else dict(kernel.enabled_map())
                        pot = (0.0 if not em2
                               else potential.score(kernel.read, program))
                        nxt.append((moves + len(sel) + pot, moves + len(sel),
                                    first, kernel.snapshot(), em2))
                nxt.sort(key=lambda s: s[0], reverse=True)
                states = nxt
        finally:
            kernel.restore(base)
        return dict(states[0][2])


class ScoredStrategy(SearchStrategy):
    """A pure scored heuristic wrapped as a strategy (no column tier).

    Identical on every backend: the score function only reads the
    decoded configuration, so ``adversarial:delay`` produces the same
    schedule on the dict and kernel backends.
    """

    column_tier = False

    def __init__(self, score_fn: Callable[[Configuration, int, str, int], float],
                 spec: str = "delay"):
        super().__init__()
        self._score_fn = score_fn
        self.spec = spec

    def score(self, cfg, u, rule, step):
        return self._score_fn(cfg, u, rule, step)


# ======================================================================
# Daemon adapter
# ======================================================================
class SearchDaemon(Daemon):
    """A :class:`SearchStrategy` as a zoo daemon.

    On the kernel backend the simulator hands daemons a lazy config
    view; the adapter reaches through it to the live
    :class:`~repro.core.kernel.engine.KernelRuntime` and runs the
    column-tier search without decoding anything.  On the dict backend
    (or for scored-only strategies) it falls back to the decode-tier
    :class:`AdversarialDaemon` with the strategy's score function.

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
        self._fallback = AdversarialDaemon(strategy.score)

    def reset(self) -> None:
        self.log.clear()
        self.strategy.reset()

    def select(self, cfg, enabled, rng, step):
        kernel = None
        if self.strategy.column_tier:
            sim = getattr(cfg, "_sim", None)
            kernel = getattr(sim, "_kernel", None)
        if kernel is not None:
            selection = self.strategy.choose_columns(kernel, enabled, step)
        else:
            selection = self._fallback.select(cfg, enabled, rng, step)
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


def make_search_daemon(spec: str | None = None, network=None) -> SearchDaemon:
    """Instantiate ``adversarial:<spec>`` (default strategy: greedy).

    ``network`` is accepted for signature compatibility with
    :func:`repro.core.daemon.make_daemon`; searches read topology from
    the kernel program's CSR adjacency instead.
    """
    return SearchDaemon(_parse_strategy(spec))
