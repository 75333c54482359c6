"""Tests for sweep aggregation and bound-margin helpers."""

import pytest

from repro.analysis import bound_margin, bounds, group_trials, summarize_trials
from repro.harness import run_network_trial
from repro.topology import ring


@pytest.fixture(scope="module")
def trials():
    return [run_network_trial("unison", net, seed=seed, scenario="gradient")
            for net in (ring(5), ring(7)) for seed in range(3)]


class TestGrouping:
    def test_group_by_n(self, trials):
        groups = group_trials(trials, by=("n",))
        assert set(groups) == {(5,), (7,)}
        assert all(len(g) == 3 for g in groups.values())

    def test_group_by_extra_key_missing_gives_none(self, trials):
        groups = group_trials(trials, by=("nonexistent",))
        assert set(groups) == {(None,)}

    def test_summarize_trials(self, trials):
        summaries = summarize_trials(trials, "moves", by=("n",))
        assert summaries[(5,)].count == 3
        assert summaries[(7,)].mean >= summaries[(5,)].minimum


class TestBoundMargin:
    def test_rounds_margin_below_one(self, trials):
        margin = bound_margin(trials, "rounds", bounds.unison_rounds_bound)
        assert 0 < margin <= 1.0

    def test_moves_margin_with_two_args(self, trials):
        margin = bound_margin(
            trials, "moves", bounds.unison_move_bound, args=("n", "diameter")
        )
        assert 0 < margin <= 1.0

    def test_nonpositive_bound_rejected(self, trials):
        with pytest.raises(ValueError):
            bound_margin(trials, "moves", lambda n: 0)
