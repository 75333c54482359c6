"""The execution engine for the locally shared memory model.

:class:`Simulator` drives executions ``γ0 ↦ γ1 ↦ …`` of an
:class:`~repro.core.algorithm.Algorithm` under a
:class:`~repro.core.daemon.Daemon`, with composite atomicity: all processes
activated in a step compute their actions against the same frozen pre-step
configuration, then all updates are installed at once.

Execution backends
------------------
Two interchangeable backends implement the step relation:

* ``"dict"`` — the reference engine.  States are per-process dicts, guards
  are evaluated process by process through ``Algorithm.guard``, and the
  enabled set is maintained *incrementally*: after a step in which the set
  ``S`` moved, only processes within graph distance ``guard_locality`` of
  ``S`` can change enabled status.
* ``"kernel"`` — the array engine (:mod:`repro.core.kernel`).  Algorithms
  that declare a typed variable schema (``Algorithm.kernel_program``)
  execute on flat numpy columns over CSR adjacency; guards become
  vectorized masks and actions mutate a double buffer.  Orders of
  magnitude less interpreter work per step on non-trivial networks.

``backend="auto"`` (the default) picks the kernel whenever the algorithm
provides a program and numpy is importable, and falls back to the dict
engine otherwise.  The two backends are observationally identical: both
present the enabled map to daemons in ascending process order (a contract
this class guarantees), so with equal seeds they produce step-for-step
identical traces — equality that the backend-equivalence property tests
assert and that ``paranoid`` mode machine-checks in-process.

``paranoid`` mode is backend-specific validation: under the dict backend
it recomputes the enabled set from scratch each step and cross-checks the
incremental bookkeeping; under the kernel backend it runs the dict
reference *in lockstep* — every step applies the same selection to both
engines and compares configurations, enabled sets, and accounting, so
kernel/reference equivalence is machine-checked, not assumed.

Accounting follows the paper exactly: *moves* are rule executions, *rounds*
follow the neutralization definition (see :mod:`repro.core.rounds`).
"""

from __future__ import annotations

import logging
from random import Random
from typing import Any, Callable, Iterable, Sequence

from ..telemetry import phases as telemetry
from .algorithm import Algorithm
from .configuration import Configuration, state_equal
from .daemon import Daemon
from .exceptions import AlgorithmError, DaemonError, ModelViolation, NotStabilized
from .rounds import RoundCounter
from .trace import StepRecord, Trace

__all__ = ["Simulator", "RunResult", "BACKENDS"]

#: Recognized values of the ``backend`` parameter.
BACKENDS = ("auto", "dict", "kernel")

_logger = logging.getLogger(__name__)

#: Algorithm names already warned about (one warning per algorithm, not
#: one per simulator — campaigns construct thousands of simulators).
_FALLBACK_WARNED: set[str] = set()


def _warn_auto_fallback(name: str) -> None:
    if name not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(name)
        _logger.warning(
            "algorithm %r provides no kernel program (or numpy is missing); "
            "backend='auto' is falling back to the dict engine — declare a "
            "repro.ir rule set (see repro/unison/kernelized.py) to use the "
            "array kernel",
            name,
        )


#: Algorithm names already warned about handwritten kernel programs.
_HANDWRITTEN_WARNED: set[str] = set()


def _warn_handwritten_program(name: str) -> None:
    if name not in _HANDWRITTEN_WARNED:
        _HANDWRITTEN_WARNED.add(name)
        _logger.warning(
            "algorithm %r supplies a handwritten kernel program; handwritten "
            "numpy twins are deprecated — declare a repro.ir rule set and "
            "let rule_set().compile_kernel() generate the program (see "
            "repro/unison/kernelized.py)",
            name,
        )


class RunResult:
    """Summary of a (partial) execution produced by :meth:`Simulator.run`.

    Attributes
    ----------
    steps: number of atomic steps executed.
    moves: total number of moves (rule executions).
    rounds: number of complete rounds elapsed.
    terminal: whether the final configuration is terminal.
    stop_reason: ``"terminal"``, ``"predicate"``, ``"probe"`` or
        ``"budget"`` (``"probe"`` = an attached probe requested the stop).
    """

    __slots__ = ("steps", "moves", "rounds", "terminal", "stop_reason")

    def __init__(self, steps: int, moves: int, rounds: int, terminal: bool, stop_reason: str):
        self.steps = steps
        self.moves = moves
        self.rounds = rounds
        self.terminal = terminal
        self.stop_reason = stop_reason

    def __repr__(self) -> str:
        return (
            f"RunResult(steps={self.steps}, moves={self.moves}, rounds={self.rounds}, "
            f"terminal={self.terminal}, stop_reason={self.stop_reason!r})"
        )


class _LazyConfigView:
    """Configuration façade handed to daemons under the kernel backend.

    Decoding the columns into dicts costs O(n·|vars|); the built-in
    daemons never read the configuration, so the proxy defers decoding
    until an attribute or item is actually touched (priority/strategy
    callbacks still see full :class:`Configuration` semantics).
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator"):
        self._sim = sim

    def _materialize(self) -> Configuration:
        return self._sim.cfg

    def __getattr__(self, name):
        return getattr(self._materialize(), name)

    def __getitem__(self, u):
        return self._materialize()[u]

    def __len__(self):
        return len(self._materialize())

    def __iter__(self):
        return iter(self._materialize())


#: Sentinel: the vectorized daemon twin has not been resolved yet.
_VEC_UNRESOLVED = object()


class Simulator:
    """Executes one algorithm on one network under one daemon.

    Parameters
    ----------
    algorithm:
        The algorithm to run (bound to its network).
    daemon:
        Scheduling strategy; defaults to a fresh
        :class:`~repro.core.daemon.DistributedRandomDaemon` is *not*
        provided implicitly — pass one explicitly to keep runs reproducible.
    config:
        Initial configuration ``γ0``; defaults to the algorithm's
        ``initial_configuration()``.
    seed / rng:
        Randomness for the daemon (and nothing else).  Provide at most one.
    strict:
        Assert daemon contract and (when the algorithm declares it) pairwise
        mutual exclusion of rules.
    paranoid:
        Backend-specific cross-checking (slow; for tests).  Dict backend:
        recompute the enabled set from scratch every step and compare with
        the incremental bookkeeping.  Kernel backend: run the dict
        reference in lockstep and compare configurations, enabled sets and
        rule choices after every step.
    backend:
        ``"auto"`` (default), ``"dict"`` or ``"kernel"``.  ``"kernel"``
        requires the algorithm to provide a kernel program (see
        ``Algorithm.kernel_program``) and numpy to be installed; ``"auto"``
        falls back to ``"dict"`` when either is missing (logging one
        warning per algorithm so silent slowdowns stay visible).
    fuse:
        Allow :meth:`run` to use the fused kernel loop (vectorized
        daemons + array-native accounting) when nothing observes
        individual steps.  Results are identical either way; pass
        ``False`` to force the step-by-step loop (benchmark baselines,
        debugging).
    trace:
        Optional :class:`~repro.core.trace.Trace` to record into.
    observers:
        Deprecated (use ``probes``).  Callables ``observer(simulator,
        record)`` invoked after every step; an optional
        ``on_start(simulator)`` attribute is invoked before the first
        step.  Any attached observer forces the step-by-step loop; wrap
        one in :class:`repro.probes.LegacyObserverProbe` (or port it to
        a :class:`repro.probes.Probe`) to migrate.
    probes:
        :class:`repro.probes.Probe` instances observing the execution.
        Probes whose ``wants_decode()`` is false are served *inside*
        the fused kernel loop (their ``on_columns`` hook), so
        measurement does not cost the fast path; any probe wanting
        decoded records keeps the step-by-step loop (its ``on_step``
        hook — today's observer contract).
    faults:
        Optional mid-run fault schedule: a
        :class:`repro.faults.schedule.FaultSchedule`, an already-bound
        schedule, or a spec string (see :mod:`repro.faults.schedule`).
        Unbound schedules without an explicit seed bind to this
        simulator's ``seed`` (0 when constructed from ``rng``), so dict
        and kernel executions with equal seeds inject byte-identical
        corruption.  Occurrences fire inside :meth:`run`'s driving loops
        (all of them — dict, kernel step-by-step, fused) between steps:
        they add no steps/moves, rebase the round counter, and notify
        probes via ``on_fault``.
    churn:
        Optional mid-run topology churn: a
        :class:`repro.faults.churn.ChurnSchedule`, an already-bound
        schedule, or a spec string (see :mod:`repro.faults.churn`).
        Seed binding follows the ``faults`` convention.  Occurrences
        mutate the network between steps on every driving loop — links
        drop/appear, processes crash (state frozen, edges removed,
        excluded from guards/daemon/accounting via :attr:`dead`) and
        rejoin with domain-random state — identically across backends;
        probes are notified via ``on_churn``.  The simulator's
        :class:`~repro.core.graph.Network` is mutated in place (the
        fused loop syncs it from the schedule's canonical state on
        exit), so construct churn trials on a fresh network.

    Notes
    -----
    Daemons observe the enabled map in ascending process order on both
    backends — relying on that order is safe and keeps traces
    backend-independent.  Under the kernel backend, :attr:`cfg` is a
    decoded *snapshot* of the columnar state: reading it is always
    current, but mutating it does not write through to the execution
    state (mutate initial configurations before construction instead).
    """

    def __init__(
        self,
        algorithm: Algorithm,
        daemon: Daemon,
        config: Configuration | None = None,
        seed: int | None = None,
        rng: Random | None = None,
        strict: bool = True,
        paranoid: bool = False,
        backend: str = "auto",
        fuse: bool = True,
        trace: Trace | None = None,
        observers: Sequence[Callable[["Simulator", StepRecord], Any]] = (),
        probes: Sequence[Any] = (),
        faults: Any = None,
        churn: Any = None,
    ):
        if seed is not None and rng is not None:
            raise ValueError("provide either seed or rng, not both")
        self.algorithm = algorithm
        self.network = algorithm.network
        self.daemon = daemon
        self.rng = rng if rng is not None else Random(seed)
        self.strict = strict
        self.paranoid = paranoid
        self.fuse = fuse
        self.trace = trace
        self.observers = list(observers)
        self.probes = list(probes)
        self._vec_daemon: Any = _VEC_UNRESOLVED
        self.faults = self._bind(faults, seed, "faults")
        self.churn = self._bind(churn, seed, "churn")
        #: Bound disturbance schedules in polling order.
        self._schedules = tuple(
            sched for sched in (self.faults, self.churn) if sched is not None
        )
        #: Crashed-and-not-rejoined process ids under topology churn
        #: (kept out of the enabled set on every backend).
        self.dead: set[int] = set()

        cfg = config.copy() if config is not None else algorithm.initial_configuration()
        if len(cfg) != self.network.n:
            raise ValueError(
                f"configuration has {len(cfg)} states for {self.network.n} processes"
            )

        self.backend = self._resolve_backend(backend)
        self._cfg: Configuration | None = cfg
        self._cfg_dirty = False
        self._kernel = None
        self._shadow: Configuration | None = None
        if self.backend == "kernel":
            from .kernel.engine import KernelRuntime

            self._kernel = KernelRuntime(self._program, cfg)
            self._cfg_view = _LazyConfigView(self)
            if self.paranoid:
                self._shadow = cfg.copy()

        self.step_count = 0
        self.move_count = 0
        self.moves_per_process = [0] * self.network.n
        self.moves_per_rule: dict[str, int] = {}
        self.rounds = RoundCounter()

        self.daemon.reset()
        self._enabled: dict[int, tuple[str, ...]] = {}
        if self.backend == "kernel":
            self._enabled = self._kernel.enabled_map()
            self._check_exclusion_kernel()
            if self._shadow is not None:
                self._compare_shadow_enabled()
        else:
            self._recompute_all_enabled()
        self._enabled_snapshot = tuple(self._enabled)
        self.rounds.start(self._enabled)

        if self.trace is not None:
            self.trace.start(self.cfg)
        for obs in self.observers:
            on_start = getattr(obs, "on_start", None)
            if on_start is not None:
                on_start(self)
        for probe in self.probes:
            probe.on_start(self)

    def add_probe(self, probe) -> None:
        """Attach a :class:`repro.probes.Probe` to a live simulator.

        The probe observes the current configuration (``on_start``)
        immediately, then every subsequent step on whichever tier the
        execution runs.
        """
        probe.on_start(self)
        self.probes.append(probe)

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------
    def _resolve_backend(self, requested: str) -> str:
        if requested not in BACKENDS:
            raise ValueError(f"unknown backend {requested!r}; choose from {BACKENDS}")
        if requested == "dict":
            self._program = None
            return "dict"
        self._program = self.algorithm.kernel_program()
        if self._program is not None:
            inner = getattr(self._program, "inner", self._program)
            if not getattr(inner, "ir_generated", False):
                _warn_handwritten_program(self.algorithm.name)
            return "kernel"
        if requested == "kernel":
            raise AlgorithmError(
                f"{self.algorithm.name}: backend='kernel' requires the algorithm "
                "to provide a kernel program (typed variable schema) and numpy "
                "to be installed; use backend='auto' to fall back gracefully"
            )
        # Loud-but-once: the fallback is silent per run, but the first run
        # of each unported algorithm names itself in the log.
        _warn_auto_fallback(self.algorithm.name)
        return "dict"

    # ------------------------------------------------------------------
    # Configuration access
    # ------------------------------------------------------------------
    @property
    def cfg(self) -> Configuration:
        """Current configuration (decoded on demand under the kernel)."""
        if self._cfg_dirty:
            self._cfg = self._kernel.decode()
            self._cfg_dirty = False
        return self._cfg

    # ------------------------------------------------------------------
    # Enabled-set maintenance (dict backend)
    # ------------------------------------------------------------------
    def _enabled_rules_checked(self, u: int) -> tuple[str, ...]:
        rules = self.algorithm.enabled_rules(self.cfg, u)
        if (
            self.strict
            and self.algorithm.mutually_exclusive_rules
            and len(rules) > 1
        ):
            raise ModelViolation(
                f"{self.algorithm.name}: rules {rules} simultaneously enabled at "
                f"process {u}, but the algorithm declares mutual exclusion"
            )
        return rules

    def _recompute_all_enabled(self) -> None:
        self._enabled = {}
        dead = self.dead
        for u in self.network.processes():
            if u in dead:
                continue  # crashed: frozen state, never enabled
            rules = self._enabled_rules_checked(u)
            if rules:
                self._enabled[u] = rules

    def _affected_by(self, moved: Iterable[int]) -> set[int]:
        """Processes whose guards may change after ``moved`` updated."""
        frontier = set(moved)
        affected = set(frontier)
        neighbors = self.network.neighbors
        for _ in range(self.algorithm.guard_locality):
            nxt: set[int] = set()
            for u in frontier:
                nxt.update(neighbors(u))
            nxt -= affected
            affected |= nxt
            frontier = nxt
        return affected

    def _update_enabled(self, moved: Iterable[int]) -> None:
        enabled = self._enabled
        inserted = False
        dead = self.dead
        for u in self._affected_by(moved):
            if u in dead:
                enabled.pop(u, None)
                continue
            rules = self._enabled_rules_checked(u)
            if rules:
                inserted = inserted or u not in enabled
                enabled[u] = rules
            else:
                enabled.pop(u, None)
        if inserted:
            # Keep the ascending-order contract daemons observe; updates
            # in place and removals preserve it, only insertions break it.
            self._enabled = dict(sorted(enabled.items()))
        if self.paranoid:
            incremental = dict(self._enabled)
            self._recompute_all_enabled()
            if incremental != self._enabled:
                raise ModelViolation(
                    "incremental enabled-set bookkeeping diverged from full "
                    f"recomputation: {incremental} != {self._enabled}"
                )
            # _recompute_all_enabled iterates processes() → already ascending.

    def _check_exclusion_kernel(self) -> None:
        if not (self.strict and self.algorithm.mutually_exclusive_rules):
            return
        if self._kernel.max_enabled_rules > 1:
            offender = next(
                (u, rules) for u, rules in self._enabled.items() if len(rules) > 1
            )
            raise ModelViolation(
                f"{self.algorithm.name}: rules {offender[1]} simultaneously enabled "
                f"at process {offender[0]}, but the algorithm declares mutual exclusion"
            )

    # ------------------------------------------------------------------
    # Disturbances (faults and churn alike)
    # ------------------------------------------------------------------
    def _bind(self, spec: Any, seed: int | None, family: str):
        """Coerce a ``faults``/``churn`` argument into a bound schedule."""
        if spec is None:
            return None
        from ..faults.churn import BoundChurnSchedule, ChurnSchedule, parse_churn
        from ..faults.schedule import BoundFaultSchedule, FaultSchedule, parse_schedule

        schedule_cls, bound_cls, parse = {
            "faults": (FaultSchedule, BoundFaultSchedule, parse_schedule),
            "churn": (ChurnSchedule, BoundChurnSchedule, parse_churn),
        }[family]
        if isinstance(spec, bound_cls):
            return spec
        if isinstance(spec, str):
            spec = parse(spec)
        if not isinstance(spec, schedule_cls):
            raise TypeError(
                f"{family} must be a {schedule_cls.__name__}, a bound "
                f"schedule, or a spec string, not {type(spec).__name__}"
            )
        return spec.bind(self.algorithm, default_seed=seed if seed is not None else 0)

    def _land(self, sched, due) -> None:
        """Land fired occurrences on every live structure, no step.

        A churn occurrence's delta is already committed to the bound
        schedule's canonical state — including the shared
        :class:`Network`, mirrored at draw time so state-dependent draws
        see the same topology on every backend.  This applies each
        occurrence to the executing engine and the dead set, refreshes
        the enabled set (from scratch when links or liveness changed: a
        topology change can flip guards anywhere), rebases the round
        counter, and notifies probes through the schedule's hook.
        """
        rewired = False
        victims: set[int] = set()
        for occ in due:
            self.dead.update(occ.crashed)
            self.dead.difference_update(occ.joined)
            victims.update(occ.victims)
        if self.backend == "kernel":
            for occ in due:
                rewired = self._kernel.disturb(occ) or rewired
            self._cfg_dirty = True
            # A resolved vectorized daemon twin snapshots CSR arrays at
            # construction; keep it current for any later fused stretch.
            if rewired and self._vec_daemon not in (_VEC_UNRESOLVED, None):
                self._vec_daemon.refresh_topology(self._program.csr)
            if self._shadow is not None:
                for occ in due:
                    for u, var, value in occ.assignments:
                        self._shadow.set(u, var, value)
            self._enabled = self._kernel.enabled_map()
            self._check_exclusion_kernel()
            if self._shadow is not None:
                self._compare_shadow_enabled()
        else:
            for occ in due:
                for u, var, value in occ.assignments:
                    self.cfg.set(u, var, value)
            if any(occ.drops or occ.adds or occ.crashed or occ.joined
                   for occ in due):
                self._recompute_all_enabled()
            else:
                self._update_enabled(victims)
        self._enabled_snapshot = tuple(self._enabled)
        self.rounds.rebase(self._enabled)
        if self.probes:
            sched.notify(
                self.probes, due, step=self.step_count,
                moves=self.move_count, rounds=self.rounds.completed,
            )

    def _poll(self) -> bool:
        """Fire due occurrences; ``False`` = re-poll before stepping.

        The fused driver's pull-forward rule
        (:meth:`~repro.core.kernel.engine.KernelRuntime.drive`): the
        schedules are polled in order (faults, then churn); each fires
        its due occurrences or, at a terminal configuration, pulls its
        next one forward.  A pull from a *finite* schedule that leaves
        the configuration terminal answers ``False``, so the driving
        loop polls again — a finite schedule always plays out in full
        before the run can end terminal; an infinite one whose pull
        wakes nobody lets the run end terminal.
        """
        for sched in self._schedules:
            if sched.exhausted:
                continue
            idle = not self._enabled
            due = sched.pop_due(self.step_count, idle=idle)
            if not due:
                continue
            self._land(sched, due)
            if idle and not self._enabled and sched.schedule.finite:
                return False
        return True

    def _sync_churn_topology(self) -> None:
        """Adopt the bound schedule's canonical topology after a fused run.

        The schedule mirrors every link delta into the shared
        :class:`~repro.core.graph.Network` at draw time, so the edge
        diff below is normally empty (it is kept as a cheap invariant
        repair); the :attr:`dead` set, which only the stepped loops
        track occurrence by occurrence, always catches up here.
        """
        current = set(self.churn.current_edges())
        have = {tuple(sorted(e)) for e in self.network.edges()}
        drops = sorted(have - current)
        adds = sorted(current - have)
        if drops or adds:
            self.network.apply_delta(drops, adds)
        self.dead = set(self.churn.dead())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> dict[int, tuple[str, ...]]:
        """Enabled processes mapped to their enabled rules (do not mutate)."""
        return self._enabled

    def is_terminal(self) -> bool:
        return not self._enabled

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> StepRecord | None:
        """Execute one atomic step; returns ``None`` at a terminal config."""
        advanced = self._advance()
        if advanced is None:
            return None
        selection, enabled_before, enabled_after = advanced
        record = StepRecord(
            index=self.step_count - 1,
            selection=dict(selection),
            enabled_before=enabled_before,
            enabled_after=enabled_after,
            rounds_completed=self.rounds.completed,
        )
        # Same stride-sampled phase timing as the fused driver; the
        # index matches _advance's so one step's phases share a sample.
        stats = telemetry.collector()
        sampling = (
            stats is not None and ((self.step_count - 1) & stats.mask) == 0
        )
        if sampling:
            t_mark = telemetry.timer()
        if self.trace is not None:
            self.trace.append(record, self.cfg)
        for obs in self.observers:
            obs(self, record)
        for probe in self.probes:
            probe.on_step(self, record)
        if sampling:
            stats.times[telemetry.PROBE] += telemetry.timer() - t_mark
            stats.counts[telemetry.PROBE] += 1
        return record

    def _step_fast(self) -> None:
        """:meth:`step` minus :class:`StepRecord` construction.

        Used by :meth:`run` when no trace and no observers are attached —
        the per-step record would be built only to be discarded.
        """
        self._advance()

    def _advance(self) -> tuple[dict[int, str], tuple[int, ...], tuple[int, ...]] | None:
        """The step relation: select, apply, account.  ``None`` at terminal."""
        if not self._enabled:
            return None

        # Stride-sampled phase timing, shared with the fused driver (see
        # repro.telemetry.phases); when telemetry is off this costs one
        # None check per step.
        stats = telemetry.collector()
        sampling = stats is not None and (self.step_count & stats.mask) == 0
        if sampling:
            ttimes, tcounts = stats.times, stats.counts
            t_mark = telemetry.timer()

        enabled_before = self._enabled_snapshot
        daemon_cfg = self._cfg_view if self.backend == "kernel" else self.cfg
        selection = self.daemon.select(daemon_cfg, self._enabled, self.rng, self.step_count)
        if self.strict:
            self._check_selection(selection)
        if sampling:
            t_now = telemetry.timer()
            ttimes[telemetry.DAEMON] += t_now - t_mark
            tcounts[telemetry.DAEMON] += 1
            t_mark = t_now

        if self.backend == "kernel":
            self._kernel.apply(selection)
            self._cfg_dirty = True
            if sampling:
                t_now = telemetry.timer()
                ttimes[telemetry.APPLY] += t_now - t_mark
                tcounts[telemetry.APPLY] += 1
                t_mark = t_now
            self._enabled = self._kernel.enabled_map()
            self._check_exclusion_kernel()
            if self._shadow is not None:
                self._lockstep_check(selection)
        else:
            # Composite atomicity: compute every action against the frozen
            # pre-step configuration, then install all updates at once.
            updates = {
                u: self.algorithm.execute(rule, self.cfg, u)
                for u, rule in selection.items()
            }
            self.cfg.apply(updates)
            if sampling:
                t_now = telemetry.timer()
                ttimes[telemetry.APPLY] += t_now - t_mark
                tcounts[telemetry.APPLY] += 1
                t_mark = t_now
            self._update_enabled(selection)
        if sampling:
            t_now = telemetry.timer()
            ttimes[telemetry.GUARD] += t_now - t_mark
            tcounts[telemetry.GUARD] += 1
            t_mark = t_now

        enabled_after = tuple(self._enabled)
        self._enabled_snapshot = enabled_after
        self.rounds.observe_step(selection, enabled_before, enabled_after)
        if sampling:
            ttimes[telemetry.ROUNDS] += telemetry.timer() - t_mark
            tcounts[telemetry.ROUNDS] += 1

        self.step_count += 1
        self.move_count += len(selection)
        moves_per_process = self.moves_per_process
        moves_per_rule = self.moves_per_rule
        for u, rule in selection.items():
            moves_per_process[u] += 1
            moves_per_rule[rule] = moves_per_rule.get(rule, 0) + 1
        return selection, enabled_before, enabled_after

    def _lockstep_check(self, selection: dict[int, str]) -> None:
        """Advance the dict reference with the same selection and compare."""
        shadow = self._shadow
        updates = {
            u: self.algorithm.execute(rule, shadow, u)
            for u, rule in selection.items()
        }
        shadow.apply(updates)
        decoded = self.cfg
        for u in self.network.processes():
            if not state_equal(decoded[u], shadow[u]):
                raise ModelViolation(
                    f"kernel backend diverged from the dict reference at process "
                    f"{u} after step {self.step_count}: kernel={decoded[u]} "
                    f"reference={shadow[u]}"
                )
        self._compare_shadow_enabled()

    def _compare_shadow_enabled(self) -> None:
        shadow = self._shadow
        reference_enabled = {
            u: rules
            for u in self.network.processes()
            if u not in self.dead
            and (rules := self.algorithm.enabled_rules(shadow, u))
        }
        if reference_enabled != self._enabled:
            raise ModelViolation(
                "kernel enabled set diverged from the dict reference after "
                f"step {self.step_count}: kernel={self._enabled} "
                f"reference={reference_enabled}"
            )

    def _check_selection(self, selection: dict[int, str]) -> None:
        if not selection:
            raise DaemonError("daemon selected an empty set at a non-terminal configuration")
        for u, rule in selection.items():
            if u not in self._enabled:
                raise DaemonError(f"daemon activated disabled process {u}")
            if rule not in self._enabled[u]:
                raise DaemonError(f"daemon picked disabled rule {rule!r} at process {u}")

    # ------------------------------------------------------------------
    # Fused kernel loop
    # ------------------------------------------------------------------
    def _vectorized_daemon(self):
        """The daemon's array twin, or ``None`` (resolved once, cached)."""
        if self._vec_daemon is _VEC_UNRESOLVED:
            if self.backend == "kernel":
                from .kernel.daemons import vectorize

                self._vec_daemon = vectorize(self.daemon, self.network)
            else:
                self._vec_daemon = None
        return self._vec_daemon

    @property
    def fusion_available(self) -> bool:
        """Whether :meth:`run` will use the fused kernel loop.

        Requires the kernel backend, a vectorizable daemon, ``fuse`` left
        on, and no per-step Python boundary crossing: no trace, no
        legacy observers, no paranoid lockstep, and every attached probe
        advertising the array-native tier (``wants_decode()`` false —
        such probes are served *inside* the fused loop).  (A
        ``stop_when`` predicate also disables fusion — it must observe
        the simulator between steps; express it as a
        :class:`repro.probes.StopProbe` mask to keep the fast path.)
        """
        return (
            self.backend == "kernel"
            and self.fuse
            and not self.paranoid
            and self.trace is None
            and not self.observers
            and all(not probe.wants_decode() for probe in self.probes)
            and self._vectorized_daemon() is not None
        )

    def _run_fused(self, max_steps: int, until=None) -> RunResult:
        """Drive the kernel's fused loop and merge its accounting back."""
        from .rounds import ArrayRoundCounter

        vec = self._vectorized_daemon()
        vec.load_state(self.daemon)
        rounds = ArrayRoundCounter.from_counter(self.rounds, self.network.n)
        check = self.strict and self.algorithm.mutually_exclusive_rules
        view = None
        if self.probes or self._schedules:
            # Disturbances need the view too: its steps preset anchors
            # the schedules' absolute step clock on resumed executions.
            from ..probes.view import ColumnView

            view = ColumnView(self._program)
            view.steps = self.step_count
            view.moves = self.move_count
        result = self._kernel.run(
            vec,
            self.rng,
            max_steps,
            until=until,
            rounds=rounds,
            exclusion_name=self.algorithm.name if check else None,
            probes=self.probes,
            view=view,
            faults=self.faults,
            churn=self.churn,
        )
        vec.store_state(self.daemon)
        rounds.into_counter(self.rounds)
        if any(sched.fired for sched in self._schedules):
            self._cfg_dirty = True  # zero-step runs can still have landed some
        if self.churn is not None and self.churn.fired:
            self._sync_churn_topology()
        if result.steps:
            self.step_count += result.steps
            self.move_count += result.moves
            self.moves_per_process = [
                have + int(delta)
                for have, delta in zip(
                    self.moves_per_process, result.moves_per_process.tolist()
                )
            ]
            moves_per_rule = self.moves_per_rule
            for rule, count in result.moves_per_rule.items():
                moves_per_rule[rule] = moves_per_rule.get(rule, 0) + count
            self._cfg_dirty = True
        self._enabled = self._kernel.enabled_map()
        self._enabled_snapshot = tuple(self._enabled)
        for probe in self.probes:
            probe.on_finish(self)
        return RunResult(
            steps=self.step_count,
            moves=self.move_count,
            rounds=self.rounds.completed,
            terminal=not self._enabled,
            stop_reason=result.stop_reason,
        )

    def run_until_mask(self, mask_fn, max_steps: int = 1_000_000) -> RunResult:
        """Fused :meth:`run` with a vectorized convergence predicate.

        ``mask_fn(columns) -> bool ndarray`` is the per-process legitimacy
        mask (e.g. a kernel program's ``normal_mask``); the run stops the
        first time it holds everywhere — evaluated on the initial
        configuration too, exactly like ``stop_when`` — with stop reason
        ``"predicate"``.  Only valid while :attr:`fusion_available`.
        (The experiment runners measure through
        :class:`repro.probes.StabilizationProbe` instead, which also
        records the hit accounting and closure violations.)
        """
        if not self.fusion_available:
            raise RuntimeError(
                "run_until_mask requires the fused kernel loop "
                "(check Simulator.fusion_available first)"
            )
        return self._run_fused(max_steps, until=mask_fn)

    # ------------------------------------------------------------------
    # Driving loops
    # ------------------------------------------------------------------
    def run(
        self,
        max_steps: int = 1_000_000,
        stop_when: Callable[["Simulator"], bool] | None = None,
    ) -> RunResult:
        """Run until terminal, ``stop_when(self)``, a probe stop, or budget.

        ``stop_when`` (and every attached probe's ``done()``) is
        evaluated on the initial configuration too, so a condition
        already satisfied stops immediately with zero steps; a
        probe-requested stop reports ``stop_reason="probe"``.

        When the kernel backend is active and nothing needs to observe
        individual *decoded* steps (no ``stop_when``, trace, legacy
        observers, decode-tier probes, or paranoid mode) the loop runs
        *fused* inside the kernel — see :attr:`fusion_available` — with
        identical results and rng consumption, decoding to Python only
        on exit.  Vector-tier probes are served inside that loop.
        """
        if stop_when is None and self.fusion_available:
            return self._run_fused(max_steps)
        probes = self.probes
        stop_reason = "budget"
        if stop_when is not None and stop_when(self):
            stop_reason = "predicate"
        elif probes and any(probe.done() for probe in probes):
            stop_reason = "probe"
        else:
            stepper = (
                self._step_fast
                if self.trace is None and not self.observers and not probes
                else self.step
            )
            executed = 0
            # Loop order mirrors the fused driver exactly: disturbance
            # poll, terminal check, budget check, step, stop checks.
            # (A ``False`` poll means a finite-schedule pull left the
            # configuration terminal with occurrences still pending, so
            # the loop re-polls — the run only ends terminal once no
            # schedule can disturb it again.)
            while True:
                if not self._poll():
                    continue
                if self.is_terminal():
                    stop_reason = "terminal"
                    break
                if executed >= max_steps:
                    stop_reason = "budget"
                    break
                stepper()
                executed += 1
                if stop_when is not None and stop_when(self):
                    stop_reason = "predicate"
                    break
                if probes and any(probe.done() for probe in probes):
                    stop_reason = "probe"
                    break
        for probe in probes:
            probe.on_finish(self)
        return RunResult(
            steps=self.step_count,
            moves=self.move_count,
            rounds=self.rounds.completed,
            terminal=self.is_terminal(),
            stop_reason=stop_reason,
        )

    def run_to_termination(self, max_steps: int = 1_000_000) -> RunResult:
        """Run until a terminal configuration; raise if the budget runs out.

        Use for silent algorithms (e.g. ``FGA ∘ SDR``) where every execution
        is finite.
        """
        result = self.run(max_steps=max_steps)
        if not result.terminal:
            raise NotStabilized(
                f"no terminal configuration within {max_steps} steps", steps=result.steps
            )
        return result
