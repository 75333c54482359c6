"""Scenario coverage for FGA: identifier relabeling, pointer staleness,
heterogeneous (f,g), and determinism."""

from random import Random

import pytest

from repro.alliance import FGA, is_alliance, is_one_minimal
from repro.core import (
    Configuration,
    DistributedRandomDaemon,
    Network,
    ScriptedDaemon,
    Simulator,
    SynchronousDaemon,
)
from repro.reset import SDR
from repro.topology import by_name, line, ring


class TestIdentifierSensitivity:
    def test_relabeled_ids_yield_valid_but_possibly_different_alliances(self):
        """FGA's output may depend on identifiers (who wins approvals),
        but is always a correct 1-minimal alliance."""
        base = by_name("random", 9, seed=1)
        f = [1] * 9
        g = [0] * 9
        outcomes = set()
        for perm_seed in range(4):
            ids = list(range(9))
            Random(perm_seed).shuffle(ids)
            net = base.with_ids(ids)
            fga = FGA(net, f, g)
            sim = Simulator(
                fga, DistributedRandomDaemon(0.5),
                config=fga.initial_configuration(), seed=0,
            )
            sim.run_to_termination(max_steps=200_000)
            members = frozenset(fga.alliance(sim.cfg))
            assert is_one_minimal(net, members, f, g)
            outcomes.add(members)
        assert len(outcomes) >= 2  # identifiers really do steer the result

    def test_smallest_id_quits_first_on_complete_graph(self):
        net = Network([(0, 1), (1, 2), (0, 2)], ids={0: 30, 1: 10, 2: 20})
        fga = FGA(net, 1, 0)
        sim = Simulator(
            fga, SynchronousDaemon(), config=fga.initial_configuration(), seed=0
        )
        from repro.core import Trace

        trace = Trace()
        sim.add_probe(trace)
        sim.run_to_termination(max_steps=1_000)
        first_quit = next(
            u for r in trace for u, rule in r.selection.items() if rule == "rule_Clr"
        )
        assert net.id_of(first_quit) == 10  # process with the smallest id


class TestHeterogeneousFunctions:
    def test_mixed_f_g_per_process(self):
        net = ring(6)
        f = [1, 2, 1, 2, 1, 2]
        g = [0, 1, 0, 1, 0, 1]
        sdr = SDR(FGA(net, f, g))
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5),
            config=sdr.random_configuration(Random(3)), seed=3,
        )
        sim.run_to_termination(max_steps=500_000)
        members = sdr.input.alliance(sim.cfg)
        assert is_alliance(net, members, f, g)
        assert is_one_minimal(net, members, f, g)

    def test_zero_zero_alliance_shrinks_to_stable_residue(self):
        """(0,0): the empty set is an alliance, but f = g = 0 sits on the
        Theorem 8 boundary (see DESIGN.md §6): once a member's last member
        neighbor leaves, its score drops to 0 and it can no longer
        self-approve.  The result is FGA-stable, not necessarily empty."""
        from repro.alliance import is_fga_stable

        net = line(4)
        fga = FGA(net, 0, 0)
        sim = Simulator(
            fga, DistributedRandomDaemon(0.5),
            config=fga.initial_configuration(), seed=0,
        )
        sim.run_to_termination(max_steps=100_000)
        members = fga.alliance(sim.cfg)
        assert len(members) < 4  # it did shrink
        assert is_fga_stable(net, members, [0] * 4, [0] * 4)

    def test_degree_saturated_g_keeps_everyone(self):
        """g = δ: members need *all* neighbors in; nobody can ever leave."""
        net = ring(5)
        fga = FGA(net, [1] * 5, [2] * 5)  # δ = 2 = g
        sim = Simulator(
            fga, DistributedRandomDaemon(0.5),
            config=fga.initial_configuration(), seed=1,
        )
        sim.run_to_termination(max_steps=100_000)
        assert fga.alliance(sim.cfg) == set(range(5))


class TestPointerStaleness:
    def test_stale_pointer_to_absent_candidate_is_cleared(self):
        net = line(3)
        fga = FGA(net, 1, 0)
        # ptr_0 = 1 but canQ_1 is false: bestPtr(0) ≠ ptr_0 → P1 clears it.
        cfg = Configuration(
            [
                {"col": True, "scr": 1, "canQ": False, "ptr": 1},
                {"col": True, "scr": 1, "canQ": False, "ptr": None},
                {"col": True, "scr": 1, "canQ": False, "ptr": None},
            ]
        )
        assert fga.guard("rule_P1", cfg, 0)
        updates = fga.execute("rule_P1", cfg, 0)
        assert updates["ptr"] is None

    def test_two_step_pointer_switch(self):
        """Approval switching is two atomic steps: ⊥ first, then the new
        target (the paper's liveness mechanism)."""
        net = line(3)
        fga = FGA(net, 1, 0)
        cfg = Configuration(
            [
                {"col": True, "scr": 1, "canQ": True, "ptr": None},
                {"col": True, "scr": 1, "canQ": True, "ptr": 2},
                {"col": True, "scr": 1, "canQ": True, "ptr": None},
            ]
        )
        # bestPtr(1) = 0 (smaller id, canQ) ≠ ptr_1 = 2 → must go through ⊥.
        assert fga.guard("rule_P1", cfg, 1)
        cfg.apply({1: fga.execute("rule_P1", cfg, 1)})
        assert cfg[1]["ptr"] is None
        assert fga.guard("rule_P2", cfg, 1)
        cfg.apply({1: fga.execute("rule_P2", cfg, 1)})
        assert cfg[1]["ptr"] == 0


class TestDeterminism:
    def test_same_seed_same_alliance(self):
        net = by_name("random", 10, seed=5)
        f = [1] * 10
        g = [0] * 10

        def run_once():
            sdr = SDR(FGA(net, f, g))
            sim = Simulator(
                sdr, DistributedRandomDaemon(0.5),
                config=sdr.random_configuration(Random(7)), seed=7,
            )
            sim.run_to_termination(max_steps=500_000)
            return frozenset(sdr.input.alliance(sim.cfg)), sim.move_count

        assert run_once() == run_once()
