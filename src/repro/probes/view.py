"""The column view the fused driver exposes to vectorized probes.

A :class:`ColumnView` is the window a probe's ``on_columns`` hook sees:
the frozen read columns after one atomic step, the activated index
vector, the post-step enabled mask, and the execution's accounting
totals — everything the per-step decoded path would offer, but in array
form and without leaving the fused loop.  The driver owns one view per
lane (one per trial in batched runs) and mutates its fields in
place before each probe call; probes must treat every field as
read-only and must not retain references across steps (arrays are
reused buffers).
"""

from __future__ import annotations

__all__ = ["ColumnView"]


class ColumnView:
    """Per-step window into a fused execution.

    Attributes
    ----------
    program:
        The :class:`~repro.core.kernel.programs.KernelProgram` whose
        columns are being observed.  In batched runs this is the *base*
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
        views in batched runs).
    chosen:
        Activated process indices of this step (ascending, trial-local),
        or ``None`` at phase ``"start"``.
    enabled_mask:
        Per-process boolean enabled mask of the *current* configuration.
    chosen_rules:
        Rule-index vector aligned with ``chosen``: ``chosen_rules[i]`` is
        the index (into ``program.rules``) of the rule process
        ``chosen[i]`` executed this step.  ``None`` at phase ``"start"``.
        This is the executed dispatch — captured before the post-step
        guard recomputation — so probes counting per-rule moves can
        vectorize (``np.isin(view.chosen_rules, ...)``) instead of
        decoding per step.
    rule_idx:
        Per-process dispatch vector of the *current* (post-step) enabled
        set: ``rule_idx[u]`` is the index of the lowest-indexed rule
        enabled at ``u``, ``-1`` where disabled.  Only populated when
        several rules are simultaneously active (the drivers' single-rule
        fast path never materializes it) — ``None`` otherwise, so probes
        must fall back to ``enabled_mask`` + ``program`` guard knowledge
        when it is absent.  A reused buffer like every other array here.
    live:
        Per-process liveness column under topology churn: ``False``
        where a process has crashed and not rejoined.  ``None`` in the
        (overwhelmingly common) executions where no process has ever
        crashed — probes must treat ``None`` as everybody-live.
    steps / moves / rounds:
        Accounting totals at the current configuration (absolute, so a
        probe's measurements agree with ``sim.step_count`` etc. even
        when a run resumes mid-execution).
    """

    __slots__ = (
        "program", "trial", "phase", "cols", "chosen", "enabled_mask",
        "chosen_rules", "rule_idx", "live", "steps", "moves", "rounds",
    )

    def __init__(self, program, trial: int | None = None):
        self.program = program
        self.trial = trial
        self.phase = "start"
        self.cols = None
        self.chosen = None
        self.enabled_mask = None
        self.chosen_rules = None
        self.rule_idx = None
        self.live = None
        self.steps = 0
        self.moves = 0
        self.rounds = 0

    def __repr__(self) -> str:
        return (
            f"ColumnView(phase={self.phase!r}, trial={self.trial}, "
            f"steps={self.steps}, moves={self.moves}, rounds={self.rounds})"
        )
