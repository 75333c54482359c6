"""The execution engine for the locally shared memory model.

:class:`Simulator` drives executions ``γ0 ↦ γ1 ↦ …`` of an
:class:`~repro.core.algorithm.Algorithm` under a
:class:`~repro.core.daemon.Daemon`, with composite atomicity: all processes
activated in a step compute their actions against the same frozen pre-step
configuration, then all updates are installed at once.

Execution backends
------------------
Two interchangeable backends implement the step relation:

* ``"dict"`` — the reference interpreter.  States are per-process dicts,
  guards are evaluated process by process through ``Algorithm.guard``,
  and the enabled set is maintained *incrementally*: after a step in
  which the set ``S`` moved, only processes within graph distance
  ``guard_locality`` of ``S`` can change enabled status.
* ``"kernel"`` — the array driver (:mod:`repro.core.kernel`).  Algorithms
  that declare a :mod:`repro.ir` rule set execute its generated program
  (``Algorithm.kernel_program``) on flat numpy columns over CSR
  adjacency; guards become vectorized masks and actions mutate a double
  buffer.  Every execution
  — :meth:`Simulator.run`, :meth:`Simulator.step`, paranoid mode — is
  one lane of :meth:`~repro.core.kernel.engine.KernelRuntime.drive`;
  daemons without an array twin and decode-tier consumers (traces,
  decode probes, the lockstep) plug into it through
  :mod:`repro.core.kernel.adapters`.

``backend="auto"`` (the default) picks the kernel whenever the algorithm
declares a rule set, and falls back to the dict engine otherwise.  The
two backends are observationally identical: both present the enabled map
to daemons in ascending process order (a contract this class
guarantees), so with equal seeds they produce step-for-step identical
executions — equality that the backend-equivalence property
tests assert and that ``paranoid`` mode machine-checks in-process.

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
from typing import Any, Iterable, Sequence

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
            "algorithm %r has no kernel program (no rule set, or values "
            "its tile_check refuses); backend='auto' is falling back to the "
            "dict engine — declare a repro.ir rule set (Algorithm.rule_set) "
            "to use the array kernel",
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
    stop_reason: ``"terminal"``, ``"probe"`` or ``"budget"`` (``"probe"``
        = an attached probe requested the stop — a predicate stop is a
        :class:`repro.probes.StopProbe`).
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

    def __getattr__(self, name):
        return getattr(self._sim.cfg, name)

    def __getitem__(self, u):
        return self._sim.cfg[u]

    def __len__(self):
        return len(self._sim.cfg)

    def __iter__(self):
        return iter(self._sim.cfg)


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
        reference in lockstep — it applies every step's selection and
        lands every disturbance's assignments itself — and compare
        configurations and enabled sets after every step.
    backend:
        ``"auto"`` (default), ``"dict"`` or ``"kernel"``.  ``"kernel"``
        requires the algorithm to declare a rule set (see
        ``Algorithm.kernel_program``); ``"auto"`` falls back to ``"dict"``
        when it does not (logging one warning per algorithm so silent
        slowdowns stay visible).
    trace:
        Optional :class:`~repro.core.trace.Trace` to record into.
    probes:
        :class:`repro.probes.Probe` instances observing the execution.
        On the kernel backend, probes whose ``wants_decode()`` is false
        are served their ``on_columns`` hook inside the driver, so
        measurement does not cost the fast path; probes wanting decoded
        records get ``on_step`` through a per-step decode hook.
    faults:
        Optional mid-run fault schedule: a
        :class:`repro.faults.schedule.FaultSchedule`, an already-bound
        schedule, or a spec string (see :mod:`repro.faults.schedule`).
        Unbound schedules without an explicit seed bind to this
        simulator's ``seed`` (0 when constructed from ``rng``), so dict
        and kernel executions with equal seeds inject byte-identical
        corruption.  Occurrences fire between steps (in :meth:`run` and
        :meth:`step`), add no steps/moves, rebase the round counter, and
        notify probes via ``on_fault``.
    churn:
        Optional mid-run topology churn (:mod:`repro.faults.churn`),
        bound like ``faults``.  Occurrences drop/add links, crash
        processes (frozen, unlinked, kept out of guards, daemon and
        accounting via :attr:`dead`) and rejoin them with domain-random
        state, identically across backends, and notify probes via
        ``on_churn``.  The :class:`~repro.core.graph.Network` is mutated
        in place, so construct churn trials on a fresh network.

    Notes
    -----
    Daemons observe the enabled map in ascending process order on both
    backends — relying on that order is safe and keeps executions
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
        trace: Trace | None = None,
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
        self.trace = trace
        self.probes = list(probes)
        self.faults = self._bind(faults, seed, "faults")
        self.churn = self._bind(churn, seed, "churn")
        #: Bound disturbance schedules in polling order.
        self._schedules = tuple(
            sched for sched in (self.faults, self.churn) if sched is not None
        )
        #: Crashed-and-not-rejoined process ids under topology churn
        #: (kept out of the enabled set on every backend).
        self.dead: set[int] = set()
        #: Ex-neighbors from links churn dropped: a pointer set before a
        #: drop still names one, so a guard may read past the current graph.
        self._former: dict[int, set[int]] = {}

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
            #: The drives' array round counter, and the pending set it
            #: last mirrored into :attr:`rounds`.
            self._array_rounds = None
            self._rounds_mirror = None
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
            if self._shadow is not None:
                self._compare_shadow()
        else:
            self._recompute_all_enabled()
        self._enabled_snapshot = tuple(self._enabled)
        self.rounds.start(self._enabled)

        if self.trace is not None:
            self.trace.start(self.cfg)
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
            return "kernel"
        if requested == "kernel":
            raise AlgorithmError(
                f"{self.algorithm.name}: backend='kernel' requires a kernel "
                "program: a rule set (Algorithm.rule_set) whose tile_check "
                "accepts the network's values; use backend='auto' to fall "
                "back gracefully"
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
                nxt.update(self._former.get(u, ()))
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
        """Land fired occurrences on the dict configuration, no step.

        A churn occurrence's links are already in the shared
        :class:`Network`, edited at draw time.  This applies each
        occurrence to the configuration, the dead set and the
        ex-neighbors, refreshes the enabled set (from scratch when links
        or liveness changed: a topology change can flip guards
        anywhere), rebases the round counter, and notifies probes.
        """
        victims: set[int] = set()
        for occ in due:
            self.dead.update(occ.crashed)
            self.dead.difference_update(occ.joined)
            victims.update(occ.victims)
            for u, v in occ.drops:
                self._former.setdefault(u, set()).add(v)
                self._former.setdefault(v, set()).add(u)
            for u, var, value in occ.assignments:
                self.cfg.set(u, var, value)
        if any(occ.drops or occ.adds or occ.crashed or occ.joined for occ in due):
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

        The array driver's pull-forward rule
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
        """Execute one atomic step; returns ``None`` at a terminal config.

        A one-step :meth:`run` that ignores stop requests: due
        disturbances land before the step (and those due right after
        it, exactly as a run's budget stop would), and every probe
        observes the step through ``on_step``.  On the kernel backend
        the daemon selects itself (no array twin), so external
        ``step()`` loops replay :meth:`run` step for step.
        """
        if self.backend == "kernel":
            return self._drive(1, step=True)[1]
        while not self._poll():
            pass
        if not self._enabled:
            return None
        record = self._step_dict()
        while not self._poll():
            pass
        return record

    def _step_dict(self) -> StepRecord:
        """One dict-engine step, recorded and shown to trace and probes."""
        selection, enabled_before, enabled_after = self._advance()
        record = StepRecord(
            index=self.step_count - 1,
            selection=dict(selection),
            enabled_before=enabled_before,
            enabled_after=enabled_after,
            rounds_completed=self.rounds.completed,
        )
        # Same stride-sampled phase timing as the array driver; the
        # index matches _advance's so one step's phases share a sample.
        stats = telemetry.collector()
        sampling = (
            stats is not None and ((self.step_count - 1) & stats.mask) == 0
        )
        if sampling:
            t_mark = telemetry.timer()
        if self.trace is not None:
            self.trace.append(record, self.cfg)
        for probe in self.probes:
            probe.on_step(self, record)
        if sampling:
            stats.times[telemetry.PROBE] += telemetry.timer() - t_mark
            stats.counts[telemetry.PROBE] += 1
        return record

    def _advance(self) -> tuple[dict[int, str], tuple[int, ...], tuple[int, ...]]:
        """The dict step relation: select, apply, account."""
        # Stride-sampled phase timing, shared with the array driver (see
        # repro.telemetry.phases); when telemetry is off this costs one
        # None check per step.
        stats = telemetry.collector()
        sampling = stats is not None and (self.step_count & stats.mask) == 0
        if sampling:
            ttimes, tcounts = stats.times, stats.counts
            t_mark = telemetry.timer()

        enabled_before = self._enabled_snapshot
        selection = self.daemon.select(self.cfg, self._enabled, self.rng, self.step_count)
        if self.strict:
            self._check_selection(selection, self._enabled)
        if sampling:
            t_now = telemetry.timer()
            ttimes[telemetry.DAEMON] += t_now - t_mark
            tcounts[telemetry.DAEMON] += 1
            t_mark = t_now

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
        self._compare_shadow()

    def _compare_shadow(self) -> None:
        """Compare the kernel with the dict reference: states, enabled set."""
        shadow = self._shadow
        decoded = self.cfg
        for u in self.network.processes():
            if not state_equal(decoded[u], shadow[u]):
                raise ModelViolation(
                    f"kernel backend diverged from the dict reference at process "
                    f"{u} after step {self.step_count}: kernel={decoded[u]} "
                    f"reference={shadow[u]}"
                )
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

    def _check_selection(self, selection: dict[int, str], enabled) -> None:
        if not selection:
            raise DaemonError("daemon selected an empty set at a non-terminal configuration")
        for u, rule in selection.items():
            if u not in enabled:
                raise DaemonError(f"daemon activated disabled process {u}")
            if rule not in enabled[u]:
                raise DaemonError(f"daemon picked disabled rule {rule!r} at process {u}")

    # ------------------------------------------------------------------
    # The kernel backend: one lane of the array driver
    # ------------------------------------------------------------------
    @property
    def fusion_available(self) -> bool:
        """Whether :meth:`run` needs no per-step Python callback.

        Requires the kernel backend, a vectorizable daemon, no trace, no
        paranoid lockstep, and every attached probe advertising the
        array-native tier (``wants_decode()`` false — such probes are
        served *inside* the driver).  A predicate stop keeps the fast
        path when its :class:`repro.probes.StopProbe` names a predicate
        the rule set declares (``mask=``); with only a decode-tier
        predicate it decodes per step.  Results are identical either way.
        """
        if self.backend != "kernel" or self.paranoid or self.trace is not None:
            return False
        from .kernel.daemons import vectorize

        return (all(not probe.wants_decode() for probe in self.probes)
                and vectorize(self.daemon, self.network) is not None)

    def _drive(self, max_steps: int, *, step: bool = False):
        """One lane of the array driver: ``(stop_reason, last_record)``
        (see :func:`repro.core.kernel.adapters.drive`)."""
        from .kernel.adapters import drive

        return drive(self, max_steps, step=step)

    # ------------------------------------------------------------------
    # Driving loops
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 1_000_000) -> RunResult:
        """Run until terminal, a probe stop, or budget.

        Every attached probe's ``done()`` is asked on the initial
        configuration too, so a condition already satisfied stops
        immediately with zero steps (``stop_reason="probe"``); stopping
        on a predicate means attaching a :class:`repro.probes.StopProbe`.

        On the kernel backend the run is one lane of the array driver;
        when nothing needs individual *decoded* steps (see
        :attr:`fusion_available`) no per-step Python callback runs, and
        results and rng consumption are identical either way.
        """
        if self.backend == "kernel":
            return self._finish(self._drive(max_steps)[0])
        return self._finish(self._run_dict(max_steps))

    def _run_dict(self, max_steps: int) -> str:
        """The dict engine's driving loop; returns the stop reason."""
        probes = self.probes
        if probes and any(probe.done() for probe in probes):
            return "probe"
        # Nothing observes a step without a trace or probes: no record.
        stepper = (
            self._advance if self.trace is None and not probes else self._step_dict
        )
        executed = 0
        # The array driver's loop order: poll (re-polled while a finite
        # schedule's pull leaves the configuration terminal), terminal
        # check, budget check, step, stop checks.
        while True:
            if not self._poll():
                continue
            if not self._enabled:
                return "terminal"
            if executed >= max_steps:
                return "budget"
            stepper()
            executed += 1
            if probes and any(probe.done() for probe in probes):
                return "probe"

    def _finish(self, stop_reason: str) -> RunResult:
        for probe in self.probes:
            probe.on_finish(self)
        return RunResult(
            steps=self.step_count,
            moves=self.move_count,
            rounds=self.rounds.completed,
            terminal=not self._enabled,
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
