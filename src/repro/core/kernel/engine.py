"""Struct-of-arrays execution runtime and the one array driver.

:class:`KernelRuntime` owns the flat per-variable columns of one
execution — or of a batch's trials side by side (:meth:`KernelRuntime.tiled`)
— and advances them step by step: guard masks are re-evaluated
vectorized after every step, in the same generated function as the
program's declared predicates, so measurement reads the predicate masks
the guard pass already produced.  The evaluation is incremental at
column granularity: the runtime owns the program's guard memo
(:class:`~repro.ir.kernelc.Memo`), marks on it the columns whose values
each step's rules changed at the moved processes (each ``apply`` returns
them) and those each disturbance's assignments changed, and the
generated ``evaluate`` recomputes only the blocks of terms whose columns
changed.  Actions mutate a double buffer
(write columns rebased from the read columns, then swapped) so every
activated process reads the same frozen pre-step configuration —
composite atomicity by construction.

:meth:`KernelRuntime.drive` is the only loop that advances columns,
written once over :class:`Lane` objects — one per execution sharing the
buffers: every kernel-backend :class:`~repro.core.simulator.Simulator`
execution is one lane (:meth:`KernelRuntime.run`; daemons without an
array twin and decode-tier consumers plug in through
:mod:`repro.core.kernel.adapters`), a batched cell
(:func:`repro.core.kernel.batch.run_batch`) one lane per trial.  Only
the driver and :meth:`KernelRuntime.disturb` write a runtime's buffers:
lookahead (the adversarial searches) rolls out on its own column dicts,
through the program's actions and the module-level :func:`live_masks`
and :func:`enabled_map`.

At the boundary the runtime produces the enabled map as a
``{process: (rules…)}`` dict in ascending process order (the order
contract daemons observe on both backends) and decodes columns back into
a :class:`~repro.core.configuration.Configuration` on demand.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING

import numpy as np

from ...telemetry import phases as telemetry
from ..configuration import Configuration
from ..exceptions import ModelViolation
from .daemons import VectorDaemon, open_stream

if TYPE_CHECKING:
    from ...ir.kernelc import IRKernelProgram

__all__ = ["KernelRuntime", "FusedResult", "Frame", "Lane", "check_predicate",
           "enabled_map", "live_masks"]

#: Deferred per-process move accounting flushes into a bincount once this
#: many buffered moves accumulate — keeps fused-loop memory O(n) on
#: multi-million-step budget runs while amortizing the flush cost away.
FLUSH_MOVES = 1 << 16


class FusedResult:
    """Accounting delta of one :meth:`KernelRuntime.run` invocation.

    Counters are *deltas* over the fused stretch, not execution totals —
    the simulator merges them into its own cumulative accounting.  The
    per-process and per-rule counts are flushed on first read.
    """

    __slots__ = ("steps", "moves", "stop_reason", "_acc", "_rules")

    def __init__(self, steps, moves, acc, rules, stop_reason):
        self.steps = steps
        self.moves = moves
        self._acc = acc
        self._rules = rules
        self.stop_reason = stop_reason

    @property
    def moves_per_process(self) -> np.ndarray:
        self._acc.flush()
        return self._acc.counts

    @property
    def moves_per_rule(self) -> dict[str, int]:
        self._acc.flush()
        per_rule = self._acc.per_rule.tolist()
        return {rule: count for rule, count in zip(self._rules, per_rule) if count}

    def __repr__(self) -> str:
        return (
            f"FusedResult(steps={self.steps}, moves={self.moves}, "
            f"stop_reason={self.stop_reason!r})"
        )


class MoveAccumulator:
    """Deferred move accounting of the fused driver.

    Every step's activated index vector is buffered with the rule it
    executed and flushed once per :data:`FLUSH_MOVES` buffered moves —
    cheaper than a per-step scatter, O(size) memory on multi-million-step
    budget runs.  After a final :meth:`flush`, ``counts`` holds the moves
    per process and ``per_rule`` the moves per ``(lane, rule)``
    (flattened lane-major) — one ``bincount`` each per flush.
    """

    __slots__ = ("counts", "per_rule", "_n", "_nrules", "_parts", "_rules",
                 "_buffered")

    def __init__(self, size: int, n: int, nrules: int):
        self.counts = np.zeros(size, dtype=np.int64)
        self.per_rule = np.zeros(size // n * nrules, dtype=np.int64)
        self._n = n
        self._nrules = nrules
        self._parts: list[np.ndarray] = []
        self._rules: list[int] = []
        self._buffered = 0

    def add(self, chosen: np.ndarray, rule: int) -> None:
        self._parts.append(chosen)
        self._rules.append(rule)
        self._buffered += chosen.shape[0]
        if self._buffered >= FLUSH_MOVES:
            self.flush()

    def flush(self) -> None:
        parts = self._parts
        if not parts:
            return
        chosen = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.counts += np.bincount(chosen, minlength=self.counts.shape[0])
        lengths = [part.shape[0] for part in parts]
        per_rule = self.per_rule
        if per_rule.shape[0] == self._nrules:
            # One lane owns every move: add each part's size to its rule.
            np.add.at(per_rule, self._rules, lengths)
        else:
            keys = chosen // self._n * self._nrules + np.repeat(self._rules, lengths)
            per_rule += np.bincount(keys, minlength=per_rule.shape[0])
        parts.clear()
        self._rules.clear()
        self._buffered = 0


def dispatch_rules(masks, rules, rule_idx, rule_counts):
    """Guard-mask → enabled-mask dispatch of the fused driver.

    Turns the guard-mask dict into an enabled mask plus dispatch state,
    with ``rule_choice="first"`` semantics.

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


def check_predicate(program, name: str) -> str:
    """``name``, checked to be a predicate ``program`` declares (a key of
    the second dict ``program.evaluate`` returns) — the one vector-tier
    legitimacy test.  Raises ``ValueError`` naming the rule set and its
    declared predicates otherwise."""
    declared = tuple(program.predicates)
    if name not in declared:
        owner = getattr(getattr(program, "rule_set", None), "name",
                        type(program).__name__)
        raise ValueError(
            f"{owner} declares no predicate {name!r} "
            f"(declared: {', '.join(declared) or 'none'})"
        )
    return name


def live_masks(masks, live):
    """Guard ``masks`` restricted to live processes (``live`` a bool
    column, or ``None`` while nothing crashed): a crashed process is
    never enabled, never selected, never counted."""
    if live is None:
        return masks
    return {
        rule: mask & live for rule, mask in masks.items() if mask is not None
    }


def enabled_map(masks, rules, size, *, dispatch=None) -> dict[int, tuple[str, ...]]:
    """``{u: enabled rules}`` of guard ``masks`` in ascending process order.

    ``size`` is the process count.  ``dispatch`` is an already made
    :func:`dispatch_rules` of these masks, ``(enabled_mask, only_rule,
    total, rule_idx)``; without one the dispatch runs on scratch buffers.
    """
    if dispatch is None:
        rule_idx = np.empty(size, dtype=np.int8)
        enabled_mask, only, total = dispatch_rules(
            masks, rules, rule_idx, [0] * len(rules)
        )
    else:
        enabled_mask, only, total, rule_idx = dispatch
    idx = np.flatnonzero(enabled_mask)
    if only >= 0:
        return dict.fromkeys(idx.tolist(), (rules[only],))
    singles = [(rule,) for rule in rules]
    enabled = dict(zip(
        idx.tolist(), map(singles.__getitem__, rule_idx[idx].tolist())
    ))
    if total > idx.shape[0]:  # some process has several rules enabled
        for u in idx.tolist():
            several = tuple(
                rule for rule in rules
                if (mask := masks.get(rule)) is not None and mask[u]
            )
            if len(several) > 1:
                enabled[u] = several
    return enabled


class Frame:
    """The current step as every lane's :class:`repro.probes.ColumnView`
    reads it.

    :meth:`KernelRuntime.drive` refreshes it after every guard
    evaluation (columns, enabled mask, liveness, predicate masks) and
    every step (the moves and their rule indices, ``kinds is None`` when
    all executed ``step_rule``).  A lane's share is derived on first
    read; predicate bits and rule counts for all lanes at once, so one
    ``reduceat`` per predicate and one ``bincount`` per step serve a
    whole batch.
    """

    __slots__ = ("n", "nrules", "starts", "opt_index_cols", "read",
                 "enabled", "live", "preds", "chosen", "kinds", "step_rule",
                 "bits", "counts")

    def __init__(self, n: int, nrules: int, starts, opt_index_cols):
        self.n, self.nrules = n, nrules
        self.starts, self.opt_index_cols = starts, opt_index_cols
        self.read = self.enabled = self.live = self.preds = None
        self.chosen = self.kinds = self.counts = None
        self.step_rule = 0
        self.bits: dict = {}

    def column(self, index: int, name: str):
        """Lane ``index``'s block of column ``name`` (``opt_index``
        values re-localized to the block)."""
        lo = index * self.n
        col = self.read[name][lo : lo + self.n]
        if lo and name in self.opt_index_cols:
            col = np.where(col >= 0, col - lo, col)
        return col

    def holds(self, name: str, live: bool) -> list[bool]:
        """Per lane, whether predicate ``name`` holds on its whole block
        (on its live processes with ``live``)."""
        got = self.bits.get((name, live))
        if got is None:
            mask = self.preds[name]
            if live and self.live is not None:
                mask = mask | ~self.live
            lanes = self.starts.shape[0]
            mask = mask[: lanes * self.n]  # compaction may have cut lanes
            if lanes == 1:
                got = [bool(mask.all())]
            else:
                got = np.logical_and.reduceat(mask, self.starts).tolist()
            self.bits[name, live] = got
        return got

    def chosen_rules(self, index: int, chosen):
        """Rule indices of lane ``index``'s moves ``chosen``."""
        if self.kinds is None:
            return np.full(chosen.shape[0], self.step_rule, dtype=np.int8)
        # The step's moves ascend, so a lane's are the run at its block.
        at = int(np.searchsorted(self.chosen, index * self.n))
        return self.kinds[at : at + chosen.shape[0]]

    def rule_counts(self, index: int, chosen) -> list[int]:
        """Lane ``index``'s moves per rule index this step."""
        if self.kinds is None:
            counts = [0] * self.nrules
            counts[self.step_rule] = chosen.shape[0]
            return counts
        if self.counts is None:
            lanes, nrules = self.starts.shape[0], self.nrules
            keys = self.chosen // self.n * nrules + self.kinds
            self.counts = np.bincount(keys, minlength=lanes * nrules).reshape(
                lanes, nrules).tolist()
        return self.counts[index]


class Lane:
    """One execution inside the fused driver: a block of the columns.

    A lane owns the process block ``[index·n, (index+1)·n)`` of the
    runtime's buffers (the whole buffer in a single run), its vectorized
    daemon and random stream, the accounting offsets of a resumed
    execution (``steps0``/``moves0``, the absolute totals its schedules
    and probes count from), its probes and their view, and its
    disturbance schedules in polling order (faults, then churn).
    :meth:`KernelRuntime.drive` fills ``steps``/``moves`` (deltas) and
    ``stop_reason``.
    """

    __slots__ = ("index", "lo", "daemon", "stream", "steps0", "moves0",
                 "steps", "moves", "chosen", "probes", "view", "schedules",
                 "due", "stop_reason")

    def __init__(self, index: int, daemon: VectorDaemon, rng: Random, *,
                 probes=(), view=None, schedules=()):
        self.index = index
        self.lo = 0
        self.daemon = daemon
        self.stream = (
            open_stream(rng, scalar=daemon.scalar_stream)
            if daemon.uses_rng
            else None
        )
        self.probes = tuple(probes)
        self.view = view
        self.steps0 = view.steps if view is not None else 0
        self.moves0 = view.moves if view is not None else 0
        self.steps = self.moves = 0
        #: The lane's last selection (lane-local indices).
        self.chosen = None
        self.schedules = tuple(
            sched for sched in schedules
            if sched is not None and not sched.exhausted
        )
        #: Absolute step of the lane's next nominal occurrence, or None.
        self.due = self._next_due()
        self.stop_reason = ""

    def _next_due(self) -> int | None:
        pending = [
            step for sched in self.schedules
            if (step := sched.peek_next()) is not None
        ]
        return min(pending) if pending else None


class KernelRuntime:
    """Columnar state + transition function for one execution."""

    __slots__ = (
        "program",
        "base",
        "rules",
        "read",
        "write",
        "live",
        "_masks",
        "_preds",
        "_memo",
        "rule_index",
        "_rule_idx",
        "_rule_counts",
        "_dispatch",
        "_map",
    )

    def __init__(self, program: IRKernelProgram, cfg: Configuration):
        self._bind(program, program.schema.encode(cfg))

    @classmethod
    def tiled(cls, program: IRKernelProgram, cfgs) -> "KernelRuntime | None":
        """One runtime over ``len(cfgs)`` executions of ``program``, side
        by side (:meth:`Schema.encode_tiled`), or ``None`` when the
        program cannot be tiled."""
        prog = program.tiled(len(cfgs))
        if prog is None:
            return None
        runtime = cls.__new__(cls)
        runtime._bind(prog, program.schema.encode_tiled(cfgs), base=program)
        return runtime

    def _bind(self, program: IRKernelProgram, columns: dict[str, np.ndarray],
              base: IRKernelProgram | None = None) -> None:
        self.program = program
        #: The untiled program (compaction re-tiles it to fewer blocks).
        self.base = base if base is not None else program
        self.rules = program.rules
        self.read: dict[str, np.ndarray] = columns
        self.write: dict[str, np.ndarray] = {
            name: col.copy() for name, col in columns.items()
        }
        size = len(next(iter(columns.values())))
        #: Liveness column — ``None`` until topology churn crashes a
        #: process (the common no-churn case pays nothing), then a bool
        #: vector ANDed into every guard mask: a crashed process is never
        #: enabled, never selected, never counted.
        self.live: np.ndarray | None = None
        #: The current configuration's guard masks (liveness applied)
        #: and predicate masks, evaluated together (``program.evaluate``).
        self._masks: dict[str, np.ndarray] | None = None
        self._preds: dict[str, np.ndarray] = {}
        #: The program's guard memo (:meth:`IRKernelProgram.memo`): every
        #: column whose values a step or a disturbance changed is marked
        #: on it, so an evaluation recomputes only the terms those changes
        #: reach.
        self._memo = program.memo()
        #: Rule name → index into :attr:`rules`.
        self.rule_index = {rule: k for k, rule in enumerate(self.rules)}
        #: The driver's rule dispatch buffers (see :func:`dispatch_rules`)
        #: and its last dispatch, ``(masks, enabled_mask, only_rule,
        #: total)``: a drive starting on the masks the last one ended on,
        #: and :meth:`enabled_map`, reuse it.
        self._rule_idx = np.full(size, -1, dtype=np.int8)
        self._rule_counts = [0] * len(self.rules)
        self._dispatch: tuple | None = None
        #: :meth:`enabled_map`'s memo: ``(masks, map)``.
        self._map: tuple = (None, {})

    # ------------------------------------------------------------------
    # Enabled set
    # ------------------------------------------------------------------
    def guard_masks(self) -> dict[str, np.ndarray]:
        if self._masks is None:
            masks, self._preds = self.program.evaluate(self.read, self._memo)
            self._masks = live_masks(masks, self.live)
        return self._masks

    def holds(self, name: str, live: bool = False) -> bool:
        """Whether the declared predicate ``name`` holds at every process
        (every live one with ``live``), read off the cached guard
        evaluation."""
        self.guard_masks()
        vals = self._preds[name]
        if live and self.live is not None:
            vals = vals[self.live]
        return bool(vals.all())

    def enabled_map(self) -> dict[int, tuple[str, ...]]:
        """``{u: enabled rules}`` in ascending process order
        (:func:`enabled_map`).

        Built once per guard evaluation, from the rule dispatch the
        driver already made when it evaluated these guards: repeated
        calls on one configuration return the same dict, so callers must
        honor the simulator's do-not-mutate contract.
        """
        masks = self.guard_masks()
        if self._map[0] is masks:
            return self._map[1]
        dispatch = self._dispatch
        enabled = enabled_map(
            masks, self.rules, self._rule_idx.shape[0],
            dispatch=(*dispatch[1:], self._rule_idx)
            if dispatch is not None and dispatch[0] is masks else None,
        )
        self._map = (masks, enabled)
        return enabled

    # ------------------------------------------------------------------
    # Disturbances
    # ------------------------------------------------------------------
    def disturb(self, occ, offset: int = 0) -> bool:
        """Land one fault or churn occurrence on the block at ``offset``.

        Rewires the program's CSR adjacency in place
        (:meth:`~repro.core.kernel.csr.CSRAdjacency.apply_delta`),
        maintains the liveness column, and corrupts the registers of the
        occurrence's ``(process, variable, value)`` assignments.  A
        crashed process's registers stay frozen in the columns —
        neighbors can no longer read them because its edges are gone,
        and the liveness mask keeps it out of every enabled set.

        Values are *decoded* (the same plain-Python values the dict
        backend writes via ``Configuration.set``); each is encoded
        through the schema's declared domain, so a fault can never
        smuggle an out-of-domain value into a column.  ``offset`` is the
        first process of the target block in a tiled runtime: processes
        shift by it, and so do ``opt_index`` values (globalized exactly
        like :meth:`Schema.encode_tiled`).  Returns whether links
        changed (topology-aware daemons must follow).

        The guard memo forgets everything on a rewiring (every
        neighbourhood term may change) and otherwise marks the columns
        whose values an assignment changed (a register assigned its
        current value marks nothing).
        """
        memo = self._memo
        rewired = bool(occ.drops or occ.adds)
        if rewired:
            self.program.csr.apply_delta(
                [(u + offset, v + offset) for u, v in occ.drops],
                [(u + offset, v + offset) for u, v in occ.adds],
            )
            memo.reset()
        if occ.crashed:
            if self.live is None:
                self.live = np.ones(self._rule_idx.shape[0], dtype=np.bool_)
            self.live[[u + offset for u in occ.crashed]] = False
        if occ.joined and self.live is not None:
            self.live[[u + offset for u in occ.joined]] = True
        if occ.assignments:
            schema_vars = {var.name: var for var in self.program.schema.vars}
            changed = 0
            for u, name, value in occ.assignments:
                var = schema_vars[name]
                code = var.encode_value(value)
                if offset and var.kind == "opt_index" and code >= 0:
                    code += offset
                column = self.read[name]
                if column[u + offset] != code:
                    column[u + offset] = code
                    changed |= self.program.bits[name]
            memo.mark(changed)
        self._masks = None
        return rewired

    # ------------------------------------------------------------------
    # Fused driving loop
    # ------------------------------------------------------------------
    def run(
        self,
        daemon: VectorDaemon,
        rng: Random,
        max_steps: int,
        *,
        rounds=None,
        exclusion_name: str | None = None,
        probes=(),
        view=None,
        faults=None,
        churn=None,
    ) -> FusedResult:
        """Run this runtime's one execution through :meth:`drive`.

        The single lane covers the runtime's own buffers.  ``rounds`` is
        an optional, already started :class:`~repro.core.rounds.ArrayRoundCounter`,
        updated in place; ``exclusion_name`` enables the per-step
        mutual-exclusion check (the value names the algorithm in the
        error).  ``probes`` are vector-tier :class:`repro.probes.Probe`
        instances served inline through ``view`` (a
        :class:`repro.probes.ColumnView` prepared by the caller, with
        ``steps``/``moves`` preset to the execution's running totals —
        also the clock of the bound ``faults`` and ``churn`` schedules
        on resumed executions).  Returns the accounting *delta* of this
        stretch; the caller decodes at the boundary.
        """
        lane = Lane(0, daemon, rng, probes=probes, view=view,
                    schedules=(faults, churn))
        acc = self.drive(
            [lane],
            max_steps=max_steps,
            rounds=rounds,
            exclusion_name=exclusion_name,
        )
        return FusedResult(
            lane.steps, lane.moves, acc, self.rules, lane.stop_reason
        )

    def drive(
        self,
        lanes: list[Lane],
        *,
        max_steps: int,
        rounds=None,
        exclusion_name: str | None = None,
    ) -> MoveAccumulator:
        """The driver: guard → daemon → apply → rounds → probes, per lane.

        One iteration never leaves numpy for the columns: guards become
        one enabled mask over every block, each lane's vectorized daemon
        picks from its block's enabled indices (consuming the lane's
        stream exactly like its dict twin), one application serves every
        lane, and accounting lands in flat counters.  Lanes stop
        independently and freeze — a frozen block receives no further
        selections, so its columns and accounting stay exactly at its
        stopping configuration: at a terminal configuration, when one
        of the lane's probes is ``done()`` — asked on the initial
        configuration too — or after ``max_steps`` steps.  A predicate
        stop is a probe reading a declared predicate (e.g.
        :class:`repro.probes.StopProbe`).

        A single lane's daemon may pick rules itself
        (:attr:`VectorDaemon.picks_rules`), overriding the lowest-rule
        dispatch; the runtime's ``read``/``write`` always name the
        current buffer parity, so a daemon or probe may read the
        runtime's own columns mid-drive.

        Probes see their lane's block as a
        :class:`repro.probes.ColumnView` once at the start and after
        every step the lane executes.  One :class:`Frame` backs every
        view: each step's ``program.evaluate`` yields the guard masks
        and the predicate masks at once, and a predicate bit or per-rule
        move count any probe reads is reduced once for
        all lanes.  ``rounds`` (an
        :class:`~repro.core.rounds.ArrayRoundCounter` with one block per
        lane, started here unless it already is) counts rounds per lane.

        Before every step, a lane's due disturbances land through
        :meth:`disturb` (no step, no move): guards are recomputed, the
        lane's rounds rebased, and its probes notified through the
        schedule's own hook.  One pull-forward rule serves every
        schedule: a lane's schedules are polled in order; at a terminal
        lane a schedule with nothing due pulls its next occurrence
        forward; when a *finite* schedule's pull leaves the lane
        terminal, the lane is polled again, so it only ends terminal
        once no schedule can disturb it again (an infinite schedule
        whose pull wakes nobody ends it).

        Heavy-tailed batches are *compacted*: once the trailing lanes
        have all frozen, their blocks are dropped from the working
        buffers (the program is re-tiled to the surviving prefix), so
        guard evaluation stops paying for finished lanes.  Returns the
        :class:`MoveAccumulator`, not yet flushed.
        """
        program, rules = self.program, self.rules
        nrules = len(rules)
        memo = self._memo
        total = self._rule_idx.shape[0]
        blocks = len(lanes)
        single = blocks == 1
        n = total // blocks
        for lane in lanes:
            lane.lo = lane.index * n
        check_exclusion = exclusion_name is not None and nrules > 1
        # ``full`` holds the complete buffers (what the runtime keeps),
        # ``full[flip]`` being the current read parity; ``read``/``write``
        # are the *working* buffers — the same dicts until compaction,
        # prefix views afterwards.
        full = (self.read, self.write)
        read, write = full
        column_pairs = (
            [(read[name], write[name]) for name in read],
            [(write[name], read[name]) for name in read],
        )
        flip = 0
        size = total
        block_bounds = np.arange(0, total + 1, n)
        rule_idx, rule_counts = self._rule_idx, self._rule_counts
        # When every enabled process has the same single rule enabled,
        # rule dispatch is trivial; ``only_rule[0]`` holds its index then.
        only_rule = [0 if nrules == 1 else -1]
        acc = MoveAccumulator(total, n, nrules)
        opt_index_cols = tuple(
            var.name for var in self.base.schema.vars if var.kind == "opt_index"
        )
        frame = Frame(n, nrules, block_bounds[:-1], opt_index_cols)

        def compute_enabled(masks=None) -> np.ndarray:
            """Refresh rule dispatch state and return the enabled mask
            (of ``masks``, or of freshly evaluated guards)."""
            dispatch = self._dispatch
            live = self.live
            if live is not None:
                live = live[:size]
            if masks is None:
                masks, self._preds = program.evaluate(read, memo)
                masks = self._masks = live_masks(masks, live)
            frame.read, frame.live, frame.preds = read, live, self._preds
            frame.bits.clear()
            if dispatch is not None and dispatch[0] is masks:
                _, enabled, only, grand = dispatch
            else:
                enabled, only, grand = dispatch_rules(
                    masks, rules, rule_idx, rule_counts
                )
                self._dispatch = (masks, enabled, only, grand)
            only_rule[0] = only
            frame.enabled = enabled
            if (
                check_exclusion
                and only == -2
                and grand != int(np.count_nonzero(enabled))
            ):
                u, offending = exclusion_offender(masks, rules, size)
                where = f"process {u}" if single else (
                    f"process {u % n} (trial {u // n})"
                )
                raise ModelViolation(
                    f"{exclusion_name}: rules {offending} simultaneously "
                    f"enabled at {where}, but the algorithm declares "
                    "mutual exclusion"
                )
            return enabled

        def observe(lane: Lane, phase: str, chosen=None) -> bool:
            """Show the lane's block to its probes; ``True`` = freeze it.

            Phase ``"stop"`` hands the final configuration to
            ``Probe.on_stop`` instead.
            """
            view = lane.view
            view.phase = phase
            view._cols = view._chosen_rules = None
            view.chosen = chosen
            view.steps = lane.steps0 + steps
            view.moves = lane.moves0 + lane.moves
            view.rounds = rounds.completed[lane.index] if rounds is not None else 0
            if phase == "stop":
                for probe in lane.probes:
                    probe.on_stop(view)
                return False
            stop = False
            for probe in lane.probes:
                probe.on_columns(view)
                stop = probe.done() or stop
            return stop

        def idle(lane: Lane, mask: np.ndarray) -> bool:
            lo = lane.lo
            return not (mask.any() if single else mask[lo : lo + n].any())

        def poll(todo: list[Lane]) -> np.ndarray:
            """Land the due occurrences of ``todo``'s schedules; returns
            the enabled mask after them (the pull-forward rule above)."""
            mask = enabled_mask
            while todo:
                again = []
                pending = todo
                for pos in range(max(len(lane.schedules) for lane in todo)):
                    landed = []
                    for lane in pending:
                        if pos >= len(lane.schedules):
                            continue
                        sched = lane.schedules[pos]
                        if sched.exhausted:
                            continue
                        was_idle = idle(lane, mask)
                        due = sched.pop_due(lane.steps0 + steps, idle=was_idle)
                        if not due:
                            continue
                        for occ in due:
                            if self.disturb(occ, lane.lo):
                                lane.daemon.refresh_topology(program.csr)
                        landed.append((lane, sched, due, was_idle))
                    if not landed:
                        continue
                    mask = compute_enabled()
                    for lane, sched, due, was_idle in landed:
                        if rounds is not None:
                            rounds.rebase(mask, lane.index)
                        if lane.probes:
                            sched.notify(
                                lane.probes, due,
                                step=lane.steps0 + steps,
                                moves=lane.moves0 + lane.moves,
                                rounds=(rounds.completed[lane.index]
                                        if rounds is not None else 0),
                            )
                        if was_idle and sched.schedule.finite and idle(lane, mask):
                            again.append(lane)
                    if again:
                        pending = [lane for lane in pending if lane not in again]
                todo = again
            return mask

        def next_poll(scheduled: list[Lane]) -> int | None:
            """Step count at which the earliest scheduled lane is due."""
            if not scheduled:
                return None
            return min(lane.due - lane.steps0 for lane in scheduled)

        def freeze(lane: Lane, reason: str) -> None:
            lane.stop_reason = reason
            lane.steps = steps
            if lane.probes:
                observe(lane, "stop")

        # Telemetry: resolved once per drive, never per step.  Disabled
        # costs one boolean test per iteration (no timer calls at all);
        # enabled, one step in every ``stats.stride`` is timed phase by
        # phase into flat slots (see repro.telemetry.phases).  Compaction
        # is rare, so it is timed exactly on every occurrence.
        stats = telemetry.collector()
        tel = stats is not None
        if tel:
            smask, ttimes, tcounts = stats.mask, stats.times, stats.counts
            T_DAEMON, T_APPLY, T_GUARD, T_ROUNDS, T_PROBE, T_COMPACT = (
                telemetry.DAEMON, telemetry.APPLY, telemetry.GUARD,
                telemetry.ROUNDS, telemetry.PROBE, telemetry.COMPACT,
            )
        steps = 0
        active = lanes
        picker = lanes[0].daemon if single and lanes[0].daemon.picks_rules else None
        watching = False
        for lane in lanes:
            if lane.probes:
                watching = True
                lane.view.frame, lane.view.index = frame, lane.index
        parts: list[np.ndarray] = []
        try:
            # The runtime's cached masks when the caller already asked.
            enabled_mask = compute_enabled(self.guard_masks())
            if rounds is not None and not rounds.started:
                rounds.start(enabled_mask)
            for lane in lanes:
                if lane.probes and observe(lane, "start"):
                    freeze(lane, "probe")
            froze = True
            while True:
                if froze:
                    froze = False
                    active = [lane for lane in active if not lane.stop_reason]
                    if not active:
                        break
                    scheduled = [lane for lane in active if lane.due is not None]
                    poll_at = next_poll(scheduled)
                    lim = active[-1].index + 1
                    if lim <= blocks - max(1, blocks >> 2):
                        # The trailing quarter (at least) of the working
                        # blocks is frozen: drop those blocks.
                        if tel:
                            t_compact = telemetry.timer()
                        cut = lim * n
                        # Land the dropped blocks' frozen state in *both*
                        # buffer parities: neither is ever written beyond
                        # ``cut`` again, so the final decode is
                        # parity-independent.
                        full = (full[flip], full[flip ^ 1])
                        for name, col in full[0].items():
                            full[1][name][cut:] = col[cut:]
                        read = {name: col[:cut] for name, col in full[0].items()}
                        write = {name: col[:cut] for name, col in full[1].items()}
                        column_pairs = (
                            [(read[name], write[name]) for name in read],
                            [(write[name], read[name]) for name in read],
                        )
                        flip = 0
                        blocks = lim
                        size = cut
                        block_bounds = block_bounds[: blocks + 1]
                        program = self.base.tiled(blocks)
                        memo.reset()
                        rule_idx = rule_idx[:cut]
                        enabled_mask = enabled_mask[:cut]
                        frame.starts = block_bounds[:-1]
                        if rounds is not None:
                            rounds.truncate(blocks)
                        if tel:
                            ttimes[T_COMPACT] += telemetry.timer() - t_compact
                            tcounts[T_COMPACT] += 1

                enabled_idx = enabled_mask.nonzero()[0]
                if not single:
                    bounds = np.searchsorted(enabled_idx, block_bounds).tolist()
                # One int comparison per iteration while nothing is due
                # and no scheduled lane went terminal.
                if scheduled and (
                    steps >= poll_at
                    or (
                        enabled_idx.shape[0] == 0 if single
                        else any(bounds[lane.index] == bounds[lane.index + 1]
                                 for lane in scheduled)
                    )
                ):
                    todo = [
                        lane for lane in scheduled
                        if lane.steps0 + steps >= lane.due
                        or idle(lane, enabled_mask)
                    ]
                    enabled_mask = poll(todo)
                    enabled_idx = enabled_mask.nonzero()[0]
                    if not single:
                        bounds = np.searchsorted(enabled_idx, block_bounds).tolist()
                    for lane in todo:
                        lane.due = lane._next_due()
                    scheduled = [lane for lane in scheduled if lane.due is not None]
                    poll_at = next_poll(scheduled)

                sampling = tel and (steps & smask) == 0
                if sampling:
                    t_mark = telemetry.timer()
                if not single:
                    parts.clear()
                for lane in active:
                    if single:
                        local = enabled_idx
                    else:
                        local = enabled_idx[bounds[lane.index] : bounds[lane.index + 1]]
                        if lane.lo:
                            local = local - lane.lo
                    if local.shape[0] == 0:
                        freeze(lane, "terminal")
                        froze = True
                        continue
                    if steps >= max_steps:
                        freeze(lane, "budget")
                        froze = True
                        continue
                    chosen = lane.daemon.select(local, lane.stream)
                    lane.moves += chosen.shape[0]
                    lane.chosen = chosen
                    if not single:
                        parts.append(chosen + lane.lo if lane.lo else chosen)
                if not single:
                    if not parts:
                        continue
                    chosen = np.concatenate(parts)
                elif froze:
                    continue
                if sampling:
                    t_now = telemetry.timer()
                    ttimes[T_DAEMON] += t_now - t_mark
                    tcounts[T_DAEMON] += 1
                    t_mark = t_now

                for src, dst in column_pairs[flip]:
                    dst[:] = src
                k0 = only_rule[0]
                if k0 >= 0:
                    changed = program.apply(rules[k0], chosen, read, write)
                    acc.add(chosen, k0)
                    kinds = None
                else:
                    # Fancy indexing copies, so ``kinds`` survives the
                    # post-step guard recomputation overwriting
                    # ``rule_idx`` below.  A daemon that picks rules
                    # itself overrides the lowest-rule dispatch.
                    kinds = picker.kinds if picker is not None else rule_idx[chosen]
                    changed = 0
                    for k in range(nrules):
                        if rule_counts[k] == 0:
                            continue  # no process had this rule enabled
                        idx = chosen[kinds == k]
                        if idx.shape[0]:
                            changed |= program.apply(rules[k], idx, read, write)
                            acc.add(idx, k)
                memo.mark(changed)
                read, write = write, read
                flip ^= 1
                # Publish the current parity: scalar daemons, decode
                # hooks and disturbances read the runtime's own buffers.
                self.read, self.write = full[flip], full[flip ^ 1]
                steps += 1
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
                if watching:
                    frame.chosen, frame.kinds, frame.step_rule = chosen, kinds, k0
                    frame.counts = None
                    for lane in active:
                        if not lane.probes or lane.stop_reason:
                            continue
                        if observe(lane, "step", lane.chosen):
                            freeze(lane, "probe")
                            froze = True
                    if sampling:
                        ttimes[T_PROBE] += telemetry.timer() - t_mark
                        tcounts[T_PROBE] += 1
        finally:
            for lane in lanes:
                if lane.stream is not None:
                    lane.stream.close()
            if size != total:
                self._masks = None
                memo.reset()
        return acc

    # ------------------------------------------------------------------
    # Boundary conversions
    # ------------------------------------------------------------------
    def decode(self) -> Configuration:
        """Current columns as a plain-value :class:`Configuration`."""
        return self.program.schema.decode(self.read)
