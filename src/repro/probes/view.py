"""The column view the fused driver exposes to vectorized probes.

A :class:`ColumnView` is the window a probe's ``on_columns`` hook sees:
the frozen read columns after one atomic step, the activated index
vector, the post-step enabled mask, the lane's predicate bits and
per-rule move counts, and the execution's accounting totals —
everything the per-step decoded path would offer, but in array form and
without leaving the fused loop.  The driver owns one view per lane (one
per trial in batched runs) and updates it in place before each probe
call; probes must treat every field as read-only and must not retain
references across steps (arrays are reused buffers).

Everything derived from the lane's block is computed on first read, from
the driver's per-step frame (:class:`repro.core.kernel.engine.Frame`):
a probe that only reads a predicate bit never pays for slicing the
lane's columns, and a bit or a rule count one lane reads is computed for
every lane at once.
"""

from __future__ import annotations

__all__ = ["ColumnView"]


class ColumnView:
    """Per-step window into a fused execution.

    Attributes
    ----------
    program:
        The :class:`~repro.ir.kernelc.IRKernelProgram` whose columns are
        being observed.  In batched runs this is the *base*
        (untiled) program: the view's columns are one trial's block, so
        base-program masks evaluate per trial exactly as in a single
        run.  ``opt_index`` columns are re-localized by the batch driver
        (the tiled layout's globalized indices have ``trial * n``
        subtracted), so pointer values compare directly against local
        process ids.
    trial:
        Trial index in a batched run, ``None`` in a single execution.
    phase:
        ``"start"`` — the initial configuration, before any step
        (``chosen`` is ``None``); ``"step"`` — after one atomic step;
        ``"stop"`` — the final configuration, handed to
        :meth:`Probe.on_stop` (``chosen`` is ``None``).
    cols:
        The current read columns (mapping variable name → ndarray; block
        views in batched runs), built on first read each step.
    chosen:
        Activated process indices of this step (ascending, trial-local),
        or ``None`` at phases ``"start"`` and ``"stop"``.
    enabled_mask:
        Per-process boolean enabled mask of the *current* configuration.
    chosen_rules:
        Rule-index vector aligned with ``chosen``: ``chosen_rules[i]`` is
        the index (into ``program.rules``) of the rule process
        ``chosen[i]`` executed this step.  ``None`` outside phase
        ``"step"``.  This is the executed dispatch — captured before the
        post-step guard recomputation — so probes counting per-rule
        moves by process can vectorize (``np.isin(view.chosen_rules,
        ...)``) instead of decoding per step.
    rule_counts:
        This step's moves per rule index (a list aligned with
        ``program.rules``), ``None`` outside phase ``"step"``.  The
        driver counts every lane's moves with one ``bincount``.
    live:
        Per-process liveness column under topology churn: ``False``
        where a process has crashed and not rejoined.  ``None`` in the
        (overwhelmingly common) executions where no process has ever
        crashed — probes must treat ``None`` as everybody-live.
    steps / moves / rounds:
        Accounting totals at the current configuration (absolute, so a
        probe's measurements agree with ``sim.step_count`` etc. even
        when a run resumes mid-execution).
    frame / index:
        The driver's per-step :class:`~repro.core.kernel.engine.Frame`
        and the lane's block in it, set by the driver; every
        block-derived field above is read through them.
    """

    __slots__ = ("program", "trial", "phase", "chosen", "steps", "moves",
                 "rounds", "frame", "index", "_cols", "_chosen_rules")

    def __init__(self, program, trial: int | None = None):
        self.program = program
        self.trial = trial
        self.phase = "start"
        self.chosen = self.frame = self._cols = self._chosen_rules = None
        self.steps = self.moves = self.rounds = self.index = 0

    @property
    def cols(self):
        if self._cols is None:
            self._cols = {
                name: self.frame.column(self.index, name)
                for name in self.frame.read
            }
        return self._cols

    @property
    def enabled_mask(self):
        lo = self.index * self.frame.n
        return self.frame.enabled[lo : lo + self.frame.n]

    @property
    def live(self):
        live = self.frame.live
        lo = self.index * self.frame.n
        return None if live is None else live[lo : lo + self.frame.n]

    @property
    def chosen_rules(self):
        if self._chosen_rules is None and self.chosen is not None:
            self._chosen_rules = self.frame.chosen_rules(self.index, self.chosen)
        return self._chosen_rules

    @property
    def rule_counts(self):
        if self.chosen is None:
            return None
        return self.frame.rule_counts(self.index, self.chosen)

    def holds(self, name: str, live: bool = False) -> bool:
        """Whether the declared predicate ``name`` holds at every process
        of the lane's block (every *live* one with ``live=True``): the
        bit the driver reduced from its guard evaluation."""
        return self.frame.holds(name, live)[self.index]

    def __repr__(self) -> str:
        return (
            f"ColumnView(phase={self.phase!r}, trial={self.trial}, "
            f"steps={self.steps}, moves={self.moves}, rounds={self.rounds})"
        )
