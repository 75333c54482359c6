"""Struct-of-arrays execution runtime driven by the simulator.

:class:`KernelRuntime` owns the flat per-variable columns of one
execution and advances them step by step: guard masks are recomputed
vectorized after every step (full recomputation is cheap in array form —
no incremental bookkeeping needed), and actions mutate a double buffer
(write columns rebased from the read columns, then swapped) so every
activated process reads the same frozen pre-step configuration —
composite atomicity by construction.

The runtime speaks the simulator's language at the boundary: it produces
the enabled map as a ``{process: (rules…)}`` dict in ascending process
order (the order contract daemons observe on both backends) and decodes
columns back into a :class:`~repro.core.configuration.Configuration` on
demand (for observers, traces, daemon callbacks, and the paranoid
lockstep cross-check).
"""

from __future__ import annotations

from random import Random
from typing import Callable, Mapping

import numpy as np

from ...telemetry import phases as telemetry
from ..configuration import Configuration
from ..exceptions import ModelViolation
from .daemons import VectorDaemon, open_stream
from .programs import KernelProgram

__all__ = ["KernelRuntime", "KernelSnapshot", "FusedResult"]

#: Deferred per-process move accounting flushes into a bincount once this
#: many buffered moves accumulate — keeps fused-loop memory O(n) on
#: multi-million-step budget runs while amortizing the flush cost away.
FLUSH_MOVES = 1 << 16


class FusedResult:
    """Accounting delta of one :meth:`KernelRuntime.run` invocation.

    Counters are *deltas* over the fused stretch, not execution totals —
    the simulator merges them into its own cumulative accounting.
    """

    __slots__ = ("steps", "moves", "moves_per_process", "moves_per_rule",
                 "stop_reason", "hit")

    def __init__(self, steps, moves, moves_per_process, moves_per_rule,
                 stop_reason, hit):
        self.steps = steps
        self.moves = moves
        self.moves_per_process = moves_per_process
        self.moves_per_rule = moves_per_rule
        self.stop_reason = stop_reason
        self.hit = hit

    def __repr__(self) -> str:
        return (
            f"FusedResult(steps={self.steps}, moves={self.moves}, "
            f"stop_reason={self.stop_reason!r}, hit={self.hit})"
        )


class MoveAccumulator:
    """Deferred per-process move accounting shared by the fused drivers.

    Selection vectors buffer and flush into one ``bincount`` per
    :data:`FLUSH_MOVES` buffered moves — cheaper than a per-step scatter,
    O(size) memory on multi-million-step budget runs.  ``counts`` holds
    the totals after a final :meth:`flush`.
    """

    __slots__ = ("counts", "_selections", "_buffered")

    def __init__(self, size: int):
        self.counts = np.zeros(size, dtype=np.int64)
        self._selections: list[np.ndarray] = []
        self._buffered = 0

    def add(self, chosen: np.ndarray) -> None:
        self._selections.append(chosen)
        self._buffered += chosen.shape[0]
        if self._buffered >= FLUSH_MOVES:
            self.flush()

    def flush(self) -> None:
        if self._selections:
            self.counts[:] += np.bincount(
                np.concatenate(self._selections),
                minlength=self.counts.shape[0],
            )
            self._selections.clear()
            self._buffered = 0


def dispatch_rules(masks, rules, rule_idx, rule_counts):
    """Shared guard-mask → enabled-mask dispatch for the fused drivers.

    Both fused loops (:meth:`KernelRuntime.run` and
    :func:`repro.core.kernel.batch.run_batch`) turn the guard-mask dict
    into an enabled mask plus dispatch state through this one routine so
    the ``rule_choice="first"`` semantics cannot diverge between them.

    Returns ``(enabled_mask, only_rule, total)``: ``only_rule`` is the
    index of the single rule with enabled processes (its mask *is* the
    enabled mask — the common case), ``-1`` when nothing is enabled, or
    ``-2`` when several rules are active and per-process dispatch was
    written into ``rule_idx`` (descending writes, so the lowest enabled
    rule index wins a slot).  ``total`` is the summed per-rule guard
    count (left 0 in the single-rule fast path, where it is unused);
    ``rule_counts`` is filled in place.  An omitted mask means everywhere
    false.
    """
    size = rule_idx.shape[0]
    nrules = len(rules)
    if nrules == 1:
        mask = masks.get(rules[0])
        if mask is None:
            return np.zeros(size, dtype=np.bool_), 0, 0
        return mask, 0, 0
    total = 0
    active = -1
    for k in range(nrules):
        mask = masks.get(rules[k])
        count = 0 if mask is None else int(np.count_nonzero(mask))
        rule_counts[k] = count
        if count:
            active = k if total == 0 else -2
            total += count
    if active != -2:
        if active >= 0:
            return masks[rules[active]], active, total
        return np.zeros(size, dtype=np.bool_), -1, total
    rule_idx.fill(-1)
    for k in range(nrules - 1, -1, -1):
        if rule_counts[k]:
            rule_idx[masks[rules[k]]] = k
    return rule_idx >= 0, -2, total


def exclusion_offender(masks, rules, size):
    """Locate one process where declared-exclusive rules overlap.

    Mutual exclusion is verified by counting — with pairwise exclusive
    rules the per-rule guard counts must sum to the enabled-process
    count; any overlap makes the sum larger — and this reports a concrete
    offender for the error message.  Returns ``(index, offending_rules)``.
    """
    count = np.zeros(size, dtype=np.int64)
    for rule in rules:
        mask = masks.get(rule)
        if mask is not None:
            count += mask
    u = int(np.argmax(count))
    offending = tuple(
        r for r in rules if (mask := masks.get(r)) is not None and mask[u]
    )
    return u, offending


class KernelSnapshot:
    """Frozen copy of a :class:`KernelRuntime`'s mutable state.

    Captures both buffer parities (read *and* write column contents),
    the liveness column, and — when the caller passes them to
    :meth:`KernelRuntime.snapshot` — the round-counter state and the
    daemon RNG state, so a restore rewinds everything an adversarial
    rollout could have disturbed.  Snapshots are plain value objects:
    they never alias the runtime's buffers and survive any number of
    interleaved ``apply``/``restore`` calls.
    """

    __slots__ = ("read", "write", "live", "max_enabled_rules", "rng_state",
                 "rounds_state")

    def __init__(self, read, write, live, max_enabled_rules, rng_state,
                 rounds_state):
        self.read = read
        self.write = write
        self.live = live
        self.max_enabled_rules = max_enabled_rules
        self.rng_state = rng_state
        self.rounds_state = rounds_state


class KernelRuntime:
    """Columnar state + transition function for one execution."""

    __slots__ = (
        "program",
        "rules",
        "read",
        "write",
        "live",
        "max_enabled_rules",
        "_masks",
        "_singles",
        "_rule_idx",
        "_rule_idx_prev",
        "_prev_valid",
        "_prev_map",
    )

    def __init__(self, program: KernelProgram, cfg: Configuration):
        self.program = program
        self.rules = program.rules
        self.read: dict[str, np.ndarray] = program.schema.encode(cfg)
        self.write: dict[str, np.ndarray] = {
            name: col.copy() for name, col in self.read.items()
        }
        n = len(cfg)
        #: Liveness column — ``None`` until topology churn crashes a
        #: process (the common no-churn case pays nothing), then a bool
        #: vector ANDed into every guard mask: a crashed process is never
        #: enabled, never selected, never counted.
        self.live: np.ndarray | None = None
        self._masks: dict[str, np.ndarray] | None = None
        self._singles = [(rule,) for rule in self.rules]
        #: Per process: index of its single enabled rule, -1 if disabled
        #: (-2 marks the multi-rule case, resolved in the slow path).
        self._rule_idx = np.full(n, -1, dtype=np.int8)
        self._rule_idx_prev = np.full(n, -1, dtype=np.int8)
        self._prev_valid = False
        self._prev_map: dict[int, tuple[str, ...]] = {}
        #: Max number of simultaneously enabled rules at one process in the
        #: last computed enabled set (the simulator's exclusion check).
        self.max_enabled_rules = 0

    # ------------------------------------------------------------------
    # Enabled set
    # ------------------------------------------------------------------
    def guard_masks(self) -> dict[str, np.ndarray]:
        if self._masks is None:
            masks = self.program.guard_masks(self.read)
            if self.live is not None:
                masks = {
                    rule: mask & self.live
                    for rule, mask in masks.items()
                    if mask is not None
                }
            self._masks = masks
        return self._masks

    def enabled_map(self) -> dict[int, tuple[str, ...]]:
        """``{u: enabled rules}`` in ascending process order.

        The returned dict is cached and *reused* while the enabled set
        stays unchanged between steps (steady-state executions), so
        callers must honor the simulator's do-not-mutate contract.
        """
        masks = self.guard_masks()
        rules = self.rules
        rule_idx = self._rule_idx
        if len(rules) == 1:
            mask = masks.get(rules[0])
            rule_idx.fill(-1)
            if mask is None:  # omitted = everywhere false
                self.max_enabled_rules = 0
            else:
                rule_idx[mask] = 0
                self.max_enabled_rules = 1 if mask.any() else 0
        else:
            # Descending write order: the lowest enabled rule index wins a
            # slot, matching rule declaration order.
            rule_idx.fill(-1)
            count = np.zeros(rule_idx.shape[0], dtype=np.int8)
            for k in range(len(rules) - 1, -1, -1):
                mask = masks.get(rules[k])
                if mask is None:  # omitted = everywhere false
                    continue
                rule_idx[mask] = k
                count += mask
            self.max_enabled_rules = int(count.max()) if count.size else 0
            if self.max_enabled_rules > 1:
                rule_idx[count > 1] = -2

        # The -2 sentinel erases *which* rules are enabled, so the
        # unchanged-state cache is only sound without multi-rule slots.
        if (
            self._prev_valid
            and self.max_enabled_rules <= 1
            and np.array_equal(rule_idx, self._rule_idx_prev)
        ):
            return self._prev_map

        if self.max_enabled_rules > 1:
            enabled: dict[int, tuple[str, ...]] = {}
            for u, k in enumerate(rule_idx.tolist()):
                if k == -1:
                    continue
                if k == -2:
                    enabled[u] = tuple(
                        rule
                        for rule in rules
                        if (mask := masks.get(rule)) is not None and mask[u]
                    )
                else:
                    enabled[u] = self._singles[k]
        else:
            idx = np.nonzero(rule_idx >= 0)[0]
            singles = self._singles
            enabled = {
                u: singles[k]
                for u, k in zip(idx.tolist(), rule_idx[idx].tolist())
            }
        self._rule_idx, self._rule_idx_prev = self._rule_idx_prev, rule_idx
        self._prev_valid = True
        self._prev_map = enabled
        return enabled

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def apply(self, selection: Mapping[int, str]) -> None:
        """One atomic step: execute ``selection`` against the read buffer."""
        by_rule: dict[str, list[int]] = {}
        for u, rule in selection.items():
            by_rule.setdefault(rule, []).append(u)
        read, write = self.read, self.write
        for name, col in read.items():
            write[name][:] = col
        for rule, processes in by_rule.items():
            processes.sort()
            idx = np.asarray(processes, dtype=np.int64)
            self.program.apply(rule, idx, read, write)
        self.read, self.write = write, read
        self._masks = None

    def snapshot(self, rng: Random | None = None, rounds=None) -> KernelSnapshot:
        """Copy the runtime's mutable state into a :class:`KernelSnapshot`.

        ``rng`` (a :class:`random.Random`) and ``rounds`` (a started
        :class:`~repro.core.rounds.RoundCounter`) are optional: when
        given, their state is captured too and :meth:`restore` rewinds
        them alongside the columns.  Used by the adversarial beam search
        (:mod:`repro.adversary.search`) to branch rollouts off the live
        runtime without cloning it.
        """
        return KernelSnapshot(
            {name: col.copy() for name, col in self.read.items()},
            {name: col.copy() for name, col in self.write.items()},
            None if self.live is None else self.live.copy(),
            self.max_enabled_rules,
            None if rng is None else rng.getstate(),
            None if rounds is None else (rounds.completed, rounds.pending),
        )

    def restore(self, snap: KernelSnapshot, rng: Random | None = None,
                rounds=None) -> None:
        """Rewind the runtime to ``snap`` (inverse of :meth:`snapshot`).

        Column contents are copied back *in place* into whichever buffer
        currently holds each parity — buffer identity is irrelevant, only
        contents matter — and the guard-mask/enabled-map caches are
        invalidated so the next query sees the restored configuration.
        """
        for name, col in snap.read.items():
            self.read[name][:] = col
        for name, col in snap.write.items():
            self.write[name][:] = col
        if snap.live is None:
            self.live = None
        elif self.live is None:
            self.live = snap.live.copy()
        else:
            self.live[:] = snap.live
        self.max_enabled_rules = snap.max_enabled_rules
        self._masks = None
        self._prev_valid = False
        self._prev_map = {}
        if rng is not None and snap.rng_state is not None:
            rng.setstate(snap.rng_state)
        if rounds is not None and snap.rounds_state is not None:
            rounds.resume(*snap.rounds_state)

    def inject(self, assignments) -> None:
        """Corrupt registers in place: ``(process, variable, value)`` triples.

        Values are *decoded* (the same plain-Python values the dict
        backend writes via ``Configuration.set``); each is encoded
        through the schema's declared domain, so a fault can never
        smuggle an out-of-domain value into a column.  Invalidates the
        guard-mask and enabled-map caches — the next ``enabled_map`` /
        ``guard_masks`` call sees the corrupted configuration.
        """
        schema_vars = {var.name: var for var in self.program.schema.vars}
        for u, name, value in assignments:
            self.read[name][u] = schema_vars[name].encode_value(value)
        self._masks = None
        self._prev_valid = False

    def apply_churn(self, occ) -> None:
        """Mirror one churn occurrence into the columnar engine.

        Patches the program's CSR adjacency in place
        (:meth:`~repro.core.kernel.csr.CSRAdjacency.apply_delta`),
        maintains the liveness column, and injects join state through
        :meth:`inject` (schema encoding, same as faults).  A crashed
        process's registers stay frozen in the columns — neighbors can
        no longer read them because its edges are gone, and the
        liveness mask keeps it out of every enabled set.
        """
        if occ.drops or occ.adds:
            self.program.csr.apply_delta(occ.drops, occ.adds)
        if occ.victims:
            if occ.action == "crash":
                if self.live is None:
                    self.live = np.ones(self._rule_idx.shape[0], dtype=np.bool_)
                self.live[list(occ.victims)] = False
            elif occ.action == "join" and self.live is not None:
                self.live[list(occ.victims)] = True
        if occ.assignments:
            self.inject(occ.assignments)
        self._masks = None
        self._prev_valid = False

    # ------------------------------------------------------------------
    # Fused driving loop
    # ------------------------------------------------------------------
    def run(
        self,
        daemon: VectorDaemon,
        rng: Random,
        max_steps: int,
        *,
        until: Callable[[Mapping[str, np.ndarray]], np.ndarray] | None = None,
        rounds=None,
        exclusion_name: str | None = None,
        probes=(),
        view=None,
        faults=None,
        churn=None,
    ) -> FusedResult:
        """Drive guard-eval → daemon-mask → apply entirely over columns.

        One iteration never leaves numpy: guards become rule-index
        vectors, the vectorized ``daemon`` picks the activated index
        vector (consuming ``rng``'s stream exactly like its dict twin),
        actions mutate the double buffer, and accounting lands in flat
        counters.  Stops at a terminal configuration, when the optional
        ``until`` mask (a per-process predicate over the read columns)
        holds everywhere — checked on the initial configuration too, like
        the simulator's ``stop_when`` — when an attached probe requests
        it, or when ``max_steps`` runs out.

        ``rounds`` is an optional
        :class:`~repro.core.rounds.ArrayRoundCounter`, already started,
        updated in place.  ``exclusion_name`` enables the per-step
        mutual-exclusion check (the value names the algorithm in the
        error).  ``probes`` are vector-tier
        :class:`repro.probes.Probe` instances served inline: their
        ``on_columns`` hook sees ``view`` (a
        :class:`repro.probes.ColumnView` prepared by the caller, with
        ``steps``/``moves`` preset to the execution's running totals)
        once on the initial configuration and once per step, and any
        probe whose ``done()`` turns true stops the run with
        ``stop_reason="probe"``.  The caller decodes at the boundary;
        nothing here builds a dict or a
        :class:`~repro.core.configuration.Configuration`.

        ``faults`` is an optional bound
        :class:`~repro.faults.schedule.BoundFaultSchedule`: at the top of
        every iteration, due occurrences corrupt the read columns in
        place (no step, no move), guards are recomputed, the round
        counter is rebased, and probes get ``on_fault``.  A terminal
        configuration with occurrences still pending pulls the next one
        forward (self-stabilization is recovery from faults striking
        legitimate configurations); if even that enables nothing, the
        run ends terminal.

        ``churn`` is an optional bound
        :class:`~repro.faults.churn.BoundChurnSchedule`, handled with
        the same hoisted one-int-comparison hot path as ``faults``
        (checked right after them, both at the loop top and in the
        terminal pull-forward): due occurrences patch the CSR adjacency
        and the liveness column via :meth:`apply_churn`, refresh the
        vectorized daemon's topology snapshot, recompute guards, rebase
        the round counter, and hand probes ``on_churn``.
        """
        program, rules = self.program, self.rules
        nrules = len(rules)
        check_exclusion = exclusion_name is not None and nrules > 1
        n = self._rule_idx.shape[0]
        rule_idx = np.empty(n, dtype=np.int8)
        rule_counts: list[int] = [0] * nrules
        acc = MoveAccumulator(n)
        moves_per_rule = [0] * nrules
        steps = moves = 0
        stop_reason = "budget"
        hit = False

        # When every enabled process has the same single rule enabled,
        # rule dispatch is trivial; ``only_rule[0]`` holds its index then.
        only_rule = [0 if nrules == 1 else -1]

        def compute_enabled() -> np.ndarray:
            """Refresh rule dispatch state and return the enabled mask."""
            masks = self.guard_masks()
            enabled, only, total = dispatch_rules(
                masks, rules, rule_idx, rule_counts
            )
            only_rule[0] = only
            if (
                check_exclusion
                and only == -2
                and total != int(np.count_nonzero(enabled))
            ):
                u, offending = exclusion_offender(masks, rules, n)
                raise ModelViolation(
                    f"{exclusion_name}: rules {offending} simultaneously "
                    f"enabled at process {u}, but the algorithm declares "
                    "mutual exclusion"
                )
            return enabled

        steps0 = view.steps if view is not None else 0
        moves0 = view.moves if view is not None else 0

        def observe(phase: str, chosen, mask, chosen_kinds=None) -> bool:
            """Show the current configuration to every probe; True = stop."""
            view.phase = phase
            view.cols = self.read
            view.chosen = chosen
            view.enabled_mask = mask
            view.chosen_rules = chosen_kinds
            # dispatch_rules only materializes rule_idx in the multi-rule
            # case; the single-rule fast path leaves it stale.
            view.rule_idx = rule_idx if only_rule[0] == -2 else None
            view.live = self.live
            view.steps = steps0 + steps
            view.moves = moves0 + moves
            view.rounds = rounds.completed if rounds is not None else 0
            stop = False
            for probe in probes:
                probe.on_columns(view)
                stop = probe.done() or stop
            return stop

        stream = (
            open_stream(rng, scalar=daemon.scalar_stream)
            if daemon.uses_rng
            else None
        )
        # Read→write column copies for both buffer parities, precomputed
        # so the per-step copy loop touches no dicts.
        column_pairs = (
            [(self.read[name], self.write[name]) for name in self.read],
            [(self.write[name], self.read[name]) for name in self.read],
        )
        flip = 0
        # Telemetry: resolved once per run, never per step.  Disabled
        # costs one boolean test per iteration (no timer calls at all);
        # enabled, one step in every ``stats.stride`` is timed phase by
        # phase into flat slots (see repro.telemetry.phases).
        stats = telemetry.collector()
        tel = stats is not None
        if tel:
            smask, ttimes, tcounts = stats.mask, stats.times, stats.counts
            T_DAEMON, T_APPLY, T_GUARD, T_ROUNDS, T_PROBE = (
                telemetry.DAEMON, telemetry.APPLY, telemetry.GUARD,
                telemetry.ROUNDS, telemetry.PROBE,
            )
        try:
            enabled_mask = compute_enabled()
            if probes and observe("start", None, enabled_mask):
                return FusedResult(0, 0, acc.counts,
                                   self._rule_totals(moves_per_rule),
                                   "probe", False)
            if until is not None and bool(until(self.read).all()):
                return FusedResult(0, 0, acc.counts,
                                   self._rule_totals(moves_per_rule),
                                   "predicate", True)
            fault_sched = faults if faults is not None and not faults.exhausted else None
            # The hot loop compares the step counter against the next
            # pending nominal step — one int comparison per iteration —
            # and only calls into the schedule when something is due (or
            # the configuration went terminal with occurrences pending).
            fault_next = (
                fault_sched.peek_next() if fault_sched is not None else None
            )
            churn_sched = churn if churn is not None and not churn.exhausted else None
            churn_next = (
                churn_sched.peek_next() if churn_sched is not None else None
            )

            def inject_due(due) -> "np.ndarray":
                """Apply popped occurrences; return the new enabled mask."""
                for occ in due:
                    self.inject(occ.assignments)
                mask = compute_enabled()
                if rounds is not None:
                    rounds.rebase(mask)
                if probes:
                    for occ in due:
                        info = fault_sched.info(
                            occ, step=steps0 + steps,
                            moves=moves0 + moves,
                            rounds=rounds.completed if rounds is not None else 0,
                        )
                        for probe in probes:
                            probe.on_fault(info)
                return mask

            def churn_due(due) -> "np.ndarray":
                """Apply popped churn occurrences; return the enabled mask."""
                for occ in due:
                    self.apply_churn(occ)
                    daemon.refresh_topology(self.program.csr)
                mask = compute_enabled()
                if rounds is not None:
                    rounds.rebase(mask)
                if probes:
                    for occ in due:
                        info = churn_sched.info(
                            occ, step=steps0 + steps,
                            moves=moves0 + moves,
                            rounds=rounds.completed if rounds is not None else 0,
                        )
                        for probe in probes:
                            probe.on_churn(info)
                return mask

            while True:
                if fault_next is not None and steps0 + steps >= fault_next:
                    due = fault_sched.pop_due(steps0 + steps)
                    if due:
                        enabled_mask = inject_due(due)
                    fault_next = fault_sched.peek_next()
                    if fault_next is None:
                        fault_sched = None
                if churn_next is not None and steps0 + steps >= churn_next:
                    due = churn_sched.pop_due(steps0 + steps)
                    if due:
                        enabled_mask = churn_due(due)
                    churn_next = churn_sched.peek_next()
                    if churn_next is None:
                        churn_sched = None
                enabled_idx = enabled_mask.nonzero()[0]
                if enabled_idx.shape[0] == 0:
                    if fault_sched is not None:
                        # Terminal with occurrences pending: pop anything
                        # due, else pull exactly one forward — recovery
                        # from faults is the workload, so the run only
                        # ends when the schedule cannot disturb it again.
                        # A finite schedule re-polls even when the pull
                        # woke nobody (it must play out in full); an
                        # infinite one falls through and the run ends.
                        due = fault_sched.pop_due(steps0 + steps, idle=True)
                        if due:
                            enabled_mask = inject_due(due)
                        finite = fault_sched.schedule.finite
                        fault_next = fault_sched.peek_next()
                        if fault_next is None:
                            fault_sched = None
                        if due and (enabled_mask.any() or finite):
                            continue
                    if churn_sched is not None:
                        # Same pull-forward contract for churn: a silent
                        # system still experiences its topology events
                        # (an add_edge at a silent fixpoint commonly
                        # wakes nobody but must not strand later ones).
                        due = churn_sched.pop_due(steps0 + steps, idle=True)
                        if due:
                            enabled_mask = churn_due(due)
                        finite = churn_sched.schedule.finite
                        churn_next = churn_sched.peek_next()
                        if churn_next is None:
                            churn_sched = None
                        if due and (enabled_mask.any() or finite):
                            continue
                    stop_reason = "terminal"
                    break
                if steps >= max_steps:
                    stop_reason = "budget"
                    break
                sampling = tel and (steps & smask) == 0
                if sampling:
                    t_mark = telemetry.timer()
                chosen = daemon.select(enabled_idx, stream)
                if sampling:
                    t_now = telemetry.timer()
                    ttimes[T_DAEMON] += t_now - t_mark
                    tcounts[T_DAEMON] += 1
                    t_mark = t_now

                read, write = self.read, self.write
                for src, dst in column_pairs[flip]:
                    dst[:] = src
                k0 = only_rule[0]
                chosen_kinds = None
                if k0 >= 0:
                    program.apply(rules[k0], chosen, read, write)
                    moves_per_rule[k0] += chosen.shape[0]
                    if probes:
                        chosen_kinds = np.full(
                            chosen.shape[0], k0, dtype=np.int8
                        )
                else:
                    # Fancy indexing copies, so ``chosen_kinds`` survives
                    # the post-step guard recomputation overwriting
                    # ``rule_idx`` below.
                    kinds = rule_idx[chosen]
                    for k in range(nrules):
                        if rule_counts[k] == 0:
                            continue  # no process had this rule enabled
                        idx = chosen[kinds == k]
                        if idx.shape[0]:
                            program.apply(rules[k], idx, read, write)
                            moves_per_rule[k] += idx.shape[0]
                    chosen_kinds = kinds
                self.read, self.write = write, read
                self._masks = None
                self._prev_valid = False
                flip ^= 1

                steps += 1
                moves += chosen.shape[0]
                acc.add(chosen)
                if sampling:
                    t_now = telemetry.timer()
                    ttimes[T_APPLY] += t_now - t_mark
                    tcounts[T_APPLY] += 1
                    t_mark = t_now
                prev_mask = enabled_mask
                enabled_mask = compute_enabled()
                if sampling:
                    t_now = telemetry.timer()
                    ttimes[T_GUARD] += t_now - t_mark
                    tcounts[T_GUARD] += 1
                    t_mark = t_now
                if rounds is not None:
                    rounds.observe_step(chosen, prev_mask, enabled_mask)
                    if sampling:
                        t_now = telemetry.timer()
                        ttimes[T_ROUNDS] += t_now - t_mark
                        tcounts[T_ROUNDS] += 1
                        t_mark = t_now
                if probes:
                    stop = observe("step", chosen, enabled_mask, chosen_kinds)
                    if sampling:
                        ttimes[T_PROBE] += telemetry.timer() - t_mark
                        tcounts[T_PROBE] += 1
                    if stop:
                        stop_reason = "probe"
                        break
                if until is not None and bool(until(self.read).all()):
                    stop_reason = "predicate"
                    hit = True
                    break
        finally:
            if stream is not None:
                stream.close()
        acc.flush()
        return FusedResult(steps, moves, acc.counts,
                           self._rule_totals(moves_per_rule), stop_reason, hit)

    def _rule_totals(self, counts: list[int]) -> dict[str, int]:
        """Executed-rule counters as ``{label: count}`` (zeros omitted)."""
        return {
            rule: count for rule, count in zip(self.rules, counts) if count
        }

    # ------------------------------------------------------------------
    # Boundary conversions
    # ------------------------------------------------------------------
    def decode(self) -> Configuration:
        """Current columns as a plain-value :class:`Configuration`."""
        return self.program.schema.decode(self.read)
