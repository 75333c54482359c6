"""Aggregation of trial sweeps into grouped summaries.

The experiment harness produces flat :class:`~repro.harness.runner.Trial`
records; :func:`summarize_trials` groups them by any attribute combination
and summarizes any metric, which is what custom analyses outside the
built-in experiments usually need::

    trials = [run_network_trial("unison", net, seed=seed, scenario="gradient")
              for net in nets for seed in range(10)]
    for key, summary in summarize_trials(trials, "moves", by=("n",)).items():
        print(key, summary)
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .stats import Summary, summarize

__all__ = ["group_trials", "summarize_trials", "bound_margin"]


def _key_of(trial, by: Sequence[str]) -> tuple:
    parts = []
    for attr in by:
        if hasattr(trial, attr):
            parts.append(getattr(trial, attr))
        else:
            parts.append(trial.extra.get(attr))
    return tuple(parts)


def group_trials(trials: Iterable, by: Sequence[str]) -> dict[tuple, list]:
    """Group trials by attribute names (falls back to ``extra`` keys)."""
    groups: dict[tuple, list] = {}
    for trial in trials:
        groups.setdefault(_key_of(trial, by), []).append(trial)
    return groups


def summarize_trials(
    trials: Iterable,
    metric: str,
    by: Sequence[str] = ("n",),
) -> dict[tuple, Summary]:
    """Per-group order statistics of one metric over a sweep."""
    summaries = {}
    for key, group in sorted(group_trials(trials, by).items()):
        values = [getattr(t, metric) for t in group]
        summaries[key] = summarize(values)
    return summaries


def bound_margin(
    trials: Iterable,
    metric: str,
    bound_fn: Callable,
    args: Sequence[str] = ("n",),
) -> float:
    """Worst measured/bound ratio over a sweep (must stay ≤ 1.0).

    ``bound_fn`` receives the trial attributes named in ``args`` — e.g.
    ``bound_margin(trials, "rounds", bounds.unison_rounds_bound)`` or
    ``bound_margin(trials, "moves", bounds.unison_move_bound,
    args=("n", "diameter"))``.
    """
    worst = 0.0
    for trial in trials:
        bound = bound_fn(*(getattr(trial, a) for a in args))
        if bound <= 0:
            raise ValueError(f"bound evaluated non-positive for {trial}")
        worst = max(worst, getattr(trial, metric) / bound)
    return worst
