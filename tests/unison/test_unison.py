"""Unit and behavioral tests for Algorithm U (standalone)."""

from random import Random

import pytest

from repro.core import (
    AlgorithmError,
    Configuration,
    DistributedRandomDaemon,
    Network,
    Simulator,
    SynchronousDaemon,
    Trace,
)
from repro.topology import ring
from repro.unison import Unison, liveness_holds, safety_holds

PATH = Network([(0, 1), (1, 2)])


def clocks(*values):
    return Configuration([{"c": v} for v in values])


class TestParameters:
    def test_default_period_is_n_plus_one(self):
        assert Unison(PATH).period == 4

    def test_period_must_exceed_n(self):
        with pytest.raises(AlgorithmError, match="K > n"):
            Unison(PATH, period=3)
        Unison(PATH, period=4)  # boundary accepted


class TestPredicates:
    def test_p_ok_is_circular(self):
        u = Unison(PATH, period=5)
        assert u.p_ok(clocks(0, 4, 0), 0, 1)  # 4 ≡ -1 mod 5
        assert u.p_ok(clocks(0, 1, 0), 0, 1)
        assert not u.p_ok(clocks(0, 2, 0), 0, 1)

    def test_p_icorrect_checks_all_neighbors(self):
        u = Unison(PATH, period=5)
        assert u.p_icorrect(clocks(1, 1, 2), 1)
        assert not u.p_icorrect(clocks(1, 3, 2), 1)

    def test_p_up_requires_on_time_or_one_ahead(self):
        u = Unison(PATH, period=5)
        assert u.p_up(clocks(1, 1, 0), 0)
        assert u.p_up(clocks(1, 2, 0), 0)
        assert not u.p_up(clocks(1, 0, 0), 0)  # neighbor one behind

    def test_p_reset_and_reset_updates(self):
        u = Unison(PATH, period=5)
        assert u.p_reset(clocks(0, 1, 2), 0)
        assert not u.p_reset(clocks(3, 1, 2), 0)
        assert u.reset_updates(clocks(3, 1, 2), 0) == {"c": 0}

    def test_increment_wraps(self):
        u = Unison(PATH, period=4)
        assert u.execute("rule_U", clocks(3, 3, 3), 0) == {"c": 0}


class TestStandaloneExecution:
    def test_gamma_init_all_zero(self):
        cfg = Unison(PATH).initial_configuration()
        assert cfg.variable("c") == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_safety_invariant_from_gamma_init(self, seed):
        """Corollary 7: safety holds along any execution from γ_init."""
        net = ring(6)
        u = Unison(net)
        sim = Simulator(u, DistributedRandomDaemon(0.5), seed=seed)
        for _ in range(300):
            sim.step()
            assert safety_holds(net, sim.cfg, u.period)

    @pytest.mark.parametrize("seed", range(3))
    def test_liveness_from_gamma_init(self, seed):
        """Lemma 19: every process increments forever (bounded check)."""
        net = ring(6)
        u = Unison(net)
        trace = Trace()
        sim = Simulator(u, DistributedRandomDaemon(0.5), seed=seed, probes=[trace])
        sim.run(max_steps=400)
        assert liveness_holds(trace, net.n, min_increments=5)

    def test_never_terminates_from_gamma_init(self):
        """Lemma 18: no terminal configuration is reachable from γ_init."""
        net = ring(5)
        u = Unison(net)
        sim = Simulator(u, SynchronousDaemon(), seed=0)
        result = sim.run(max_steps=200)
        assert result.stop_reason == "budget"
        assert not result.terminal

    def test_k_greater_than_n_is_necessary(self):
        """With K = n a ring can deadlock (the Lemma 18 counterexample):
        clocks 0,1,…,n−1 make every process one behind some neighbor."""
        net = ring(4)

        class TooSmall(Unison):
            def __init__(self, network):
                super().__init__(network, period=network.n + 1)
                self.period = network.n  # bypass the constructor guard

        u = TooSmall(net)
        cfg = clocks(0, 1, 2, 3)
        assert u.is_terminal(cfg)

    def test_gradient_wave_catches_up(self):
        """A gradient within the safety envelope lets late processes run."""
        net = Network([(0, 1), (1, 2), (2, 3)])
        u = Unison(net, period=6)
        cfg = Configuration([{"c": 2}, {"c": 1}, {"c": 1}, {"c": 0}])
        sim = Simulator(u, SynchronousDaemon(), config=cfg, seed=0)
        sim.run(max_steps=50)
        assert safety_holds(net, sim.cfg, 6)


class TestDisabledWhenDirty:
    def test_requirement_2c_shape(self):
        """With an incoherent neighbor, a process cannot tick (its own
        P_Up fails), matching Requirement 2c without SDR present."""
        u = Unison(PATH, period=5)
        cfg = clocks(0, 2, 2)
        assert not u.guard("rule_U", cfg, 0)
        assert not u.guard("rule_U", cfg, 1)
        assert u.guard("rule_U", cfg, 2)  # its own neighborhood is coherent

    def test_lemma20_move_bound_standalone(self):
        """Lemma 20: from a non-clean configuration, each process moves at
        most 3D times in standalone U."""
        net = ring(8)
        u = Unison(net, period=9)
        cfg = Configuration([{"c": 0 if i < 4 else 4} for i in range(8)])
        sim = Simulator(u, DistributedRandomDaemon(0.7), config=cfg, seed=2)
        sim.run(max_steps=5_000)
        assert max(sim.moves_per_process) <= 3 * net.diameter
