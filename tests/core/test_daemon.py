"""Unit tests for the daemon zoo."""

from random import Random

import pytest

from repro.adversary import AdversarialDaemon
from repro.core import (
    CentralDaemon,
    Configuration,
    DaemonError,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    Network,
    ScriptedDaemon,
    Simulator,
    SynchronousDaemon,
    WeaklyFairDaemon,
    make_daemon,
)
from tests.toys import Countdown

NET = Network([(0, 1), (1, 2), (2, 3), (3, 4)])


def enabled_map(processes, rules=("rule_dec",)):
    return {u: tuple(rules) for u in processes}


CFG = Configuration([{"k": 1}] * 5)


class TestSynchronous:
    def test_selects_everyone(self):
        sel = SynchronousDaemon().select(CFG, enabled_map([0, 2, 4]), Random(0), 0)
        assert set(sel) == {0, 2, 4}

    def test_rule_is_enabled_one(self):
        sel = SynchronousDaemon().select(CFG, enabled_map([1]), Random(0), 0)
        assert sel == {1: "rule_dec"}


class TestCentral:
    def test_selects_exactly_one(self):
        for seed in range(10):
            sel = CentralDaemon().select(CFG, enabled_map([0, 1, 2]), Random(seed), 0)
            assert len(sel) == 1
            assert next(iter(sel)) in {0, 1, 2}

    def test_priority_function(self):
        daemon = CentralDaemon(priority=lambda cfg, u, rules: u)
        sel = daemon.select(CFG, enabled_map([0, 3, 2]), Random(0), 0)
        assert set(sel) == {3}


class TestLocallyCentral:
    def test_no_two_neighbors_selected(self):
        daemon = LocallyCentralDaemon(NET)
        for seed in range(20):
            sel = daemon.select(CFG, enabled_map([0, 1, 2, 3, 4]), Random(seed), 0)
            chosen = sorted(sel)
            for i, u in enumerate(chosen):
                for v in chosen[i + 1 :]:
                    assert not NET.are_neighbors(u, v)

    def test_maximality(self):
        daemon = LocallyCentralDaemon(NET)
        sel = daemon.select(CFG, enabled_map([0, 4]), Random(0), 0)
        # 0 and 4 are not neighbors: both must be picked.
        assert set(sel) == {0, 4}


class TestDistributedRandom:
    def test_never_empty(self):
        daemon = DistributedRandomDaemon(0.01)
        for seed in range(30):
            sel = daemon.select(CFG, enabled_map([0, 1]), Random(seed), 0)
            assert len(sel) >= 1

    def test_p_one_selects_all(self):
        sel = DistributedRandomDaemon(1.0).select(CFG, enabled_map([0, 1, 2]), Random(0), 0)
        assert set(sel) == {0, 1, 2}

    def test_invalid_probability(self):
        with pytest.raises(DaemonError):
            DistributedRandomDaemon(0.0)
        with pytest.raises(DaemonError):
            DistributedRandomDaemon(1.5)


class TestWeaklyFair:
    def test_overdue_process_is_forced(self):
        daemon = WeaklyFairDaemon(p=0.0, patience=3)
        rng = Random(0)
        # With p=0 nothing is picked voluntarily; the fallback picks one,
        # and by 3 consecutive steps every enabled process must have moved.
        picked: set[int] = set()
        for step in range(3):
            sel = daemon.select(CFG, enabled_map([0, 1, 2]), rng, step)
            picked |= set(sel)
        assert picked == {0, 1, 2}

    def test_invalid_patience(self):
        with pytest.raises(DaemonError):
            WeaklyFairDaemon(patience=0)

    def test_reset_clears_counters(self):
        daemon = WeaklyFairDaemon(p=0.0, patience=2)
        daemon.select(CFG, enabled_map([0]), Random(0), 0)
        daemon.reset()
        assert daemon._waiting == {}


class TestAdversarial:
    def test_picks_max_score(self):
        daemon = AdversarialDaemon(lambda cfg, u, rule, step: -u)
        sel = daemon.select(CFG, enabled_map([2, 0, 1]), Random(0), 0)
        assert set(sel) == {0}

    def test_single_selection_always(self):
        daemon = AdversarialDaemon(lambda cfg, u, rule, step: 0.0)
        sel = daemon.select(CFG, enabled_map([3, 4]), Random(0), 0)
        assert len(sel) == 1


class TestScripted:
    def test_replays_script(self):
        daemon = ScriptedDaemon([[0], {1: "rule_dec"}])
        assert daemon.select(CFG, enabled_map([0, 1]), Random(0), 0) == {0: "rule_dec"}
        assert daemon.select(CFG, enabled_map([0, 1]), Random(0), 1) == {1: "rule_dec"}

    def test_rejects_disabled_process(self):
        daemon = ScriptedDaemon([[2]])
        with pytest.raises(DaemonError):
            daemon.select(CFG, enabled_map([0, 1]), Random(0), 0)

    def test_exhausted_script(self):
        daemon = ScriptedDaemon([])
        with pytest.raises(DaemonError, match="exhausted"):
            daemon.select(CFG, enabled_map([0]), Random(0), 0)

    def test_empty_selection_rejected(self):
        daemon = ScriptedDaemon([[]])
        with pytest.raises(DaemonError):
            daemon.select(CFG, enabled_map([0]), Random(0), 0)


class TestFactory:
    @pytest.mark.parametrize(
        "kind", ["synchronous", "central", "locally-central", "distributed-random", "weakly-fair"]
    )
    def test_make_daemon(self, kind):
        daemon = make_daemon(kind, NET)
        assert daemon.name == kind

    def test_unknown_kind(self):
        with pytest.raises(DaemonError, match="unknown daemon"):
            make_daemon("quantum", NET)


class TestDaemonsDriveExecutions:
    @pytest.mark.parametrize(
        "kind", ["synchronous", "central", "locally-central", "distributed-random", "weakly-fair"]
    )
    def test_countdown_terminates_under_every_daemon(self, kind):
        algo = Countdown(NET, start=2)
        sim = Simulator(algo, make_daemon(kind, NET), seed=3)
        result = sim.run_to_termination(max_steps=10_000)
        assert result.terminal
        assert sim.cfg.variable("k") == [0] * 5
        assert result.moves == 2 * 5  # each process decrements exactly twice
