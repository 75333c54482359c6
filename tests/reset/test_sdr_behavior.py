"""Behavioral tests of SDR: typical execution, terminal characterization,
stabilization bounds (Corollaries 4 and 5) on concrete runs."""

from random import Random

import pytest

from repro.analysis import bounds
from repro.core import (
    Configuration,
    DistributedRandomDaemon,
    Network,
    ScriptedDaemon,
    Simulator,
    SynchronousDaemon,
    measure_stabilization,
)
from repro.harness.experiments import SdrMoveCounter
from repro.reset import C, RB, RF, SDR
from repro.topology import by_name, ring
from repro.unison import Unison

PATH = Network([(0, 1), (1, 2)])


def cfg_of(*triples):
    return Configuration([{"st": st, "d": d, "c": c} for st, d, c in triples])


class TestTypicalExecution:
    def test_full_reset_wave_on_a_path(self):
        """Drive the Section 3.3 'typical execution' by hand: initiation,
        broadcast joins, feedback up the DAG, completion down."""
        sdr = SDR(Unison(PATH, period=5))
        # One inconsistency: process 0's clock is far from its neighbor's.
        start = cfg_of((C, 0, 3), (C, 0, 0), (C, 0, 0))
        script = [
            {0: "rule_R"},    # 0 initiates: (RB, 0), c := 0
            {1: "rule_RB"},   # 1 joins: (RB, 1)
            {2: "rule_RB"},   # 2 joins: (RB, 2)
            {2: "rule_RF"},   # deepest feeds back
            {1: "rule_RF"},
            {0: "rule_RF"},   # root becomes a dead root
            {0: "rule_C"},    # completion propagates down
            {1: "rule_C"},
            {2: "rule_C"},
        ]
        sim = Simulator(sdr, ScriptedDaemon(script), config=start, seed=0)
        for _ in script:
            sim.step()
        assert sdr.is_normal(sim.cfg)
        assert sim.cfg.variable("c") == [0, 0, 0]

    def test_terminal_iff_clean_and_icorrect(self):
        """Theorem 1: terminal configurations of the SDR layer are exactly
        the normal configurations."""
        sdr = SDR(Unison(PATH, period=5))
        normal = cfg_of((C, 0, 1), (C, 0, 1), (C, 0, 2))
        assert sdr.is_normal(normal)
        # Only U's rule may be enabled there, never an SDR rule.
        for u in range(3):
            for rule in ("rule_RB", "rule_RF", "rule_C", "rule_R"):
                assert not sdr.guard(rule, normal, u)

        broken = cfg_of((C, 0, 1), (C, 0, 3), (C, 0, 2))
        assert not sdr.is_normal(broken)
        assert any(
            sdr.guard(rule, broken, u)
            for u in range(3)
            for rule in ("rule_RB", "rule_RF", "rule_C", "rule_R")
        )

    def test_join_preferred_over_initiation(self):
        sdr = SDR(Unison(PATH, period=5))
        cfg = cfg_of((RB, 0, 0), (C, 0, 3), (C, 0, 3))
        assert sdr.guard("rule_RB", cfg, 1)
        assert not sdr.guard("rule_R", cfg, 1)


class TestStabilizationBounds:
    @pytest.mark.parametrize("topo", ["ring", "random", "tree"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rounds_bound_cor5(self, topo, seed):
        net = by_name(topo, 10, seed=seed)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(seed))
        sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=seed)
        detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=500_000)
        assert detector.rounds <= bounds.sdr_rounds_bound(net.n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sdr_moves_per_process_cor4(self, seed):
        net = ring(8)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(seed))
        counter = SdrMoveCounter(net.n)
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5), config=cfg, seed=seed,
            probes=[counter],
        )
        measure_stabilization(sim, sdr.is_normal, max_steps=500_000)
        sim.run(max_steps=200)  # whole-execution bound: keep going
        assert max(counter.counts) <= bounds.sdr_moves_per_process_bound(net.n)

    def test_synchronous_daemon_respects_bounds(self):
        net = ring(9)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(3))
        sim = Simulator(sdr, SynchronousDaemon(), config=cfg, seed=3)
        detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=100_000)
        assert detector.rounds <= bounds.sdr_rounds_bound(net.n)


class TestMutualExclusion:
    @pytest.mark.parametrize("seed", range(5))
    def test_lemma5_no_two_sdr_rules_enabled(self, seed):
        """Lemma 5 + Remark 2, checked on random configurations: at most one
        rule of the whole composition is enabled per process."""
        net = by_name("random", 8, seed=seed)
        sdr = SDR(Unison(net))
        rng = Random(seed)
        for _ in range(50):
            cfg = sdr.random_configuration(rng)
            for u in net.processes():
                assert len(sdr.enabled_rules(cfg, u)) <= 1

    def test_strict_simulator_accepts_whole_runs(self):
        # The simulator's strict mode would raise on any violation.
        net = ring(7)
        sdr = SDR(Unison(net))
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5),
            config=sdr.random_configuration(Random(11)), seed=11, strict=True,
        )
        measure_stabilization(sim, sdr.is_normal, max_steps=500_000)


class TestDistanceDag:
    def test_broadcast_distances_increase_away_from_root(self):
        """After a scripted wave on a path, distances form the reset DAG."""
        sdr = SDR(Unison(PATH, period=5))
        start = cfg_of((C, 0, 3), (C, 0, 0), (C, 0, 0))
        sim = Simulator(
            sdr,
            ScriptedDaemon([{0: "rule_R"}, {1: "rule_RB"}, {2: "rule_RB"}]),
            config=start,
            seed=0,
        )
        for _ in range(3):
            sim.step()
        assert sim.cfg.variable("st") == [RB, RB, RB]
        assert sim.cfg.variable("d") == [0, 1, 2]
