"""Integration tests for the self-stabilizing composition ``U ∘ SDR``
(Theorems 6 and 7)."""

from random import Random

import pytest

from repro.analysis import bounds
from repro.core import (
    DistributedRandomDaemon,
    Simulator,
    SynchronousDaemon,
    Trace,
    measure_stabilization,
)
from repro.faults import clock_gradient, clock_split, fake_reset_wave
from repro.reset import SDR
from repro.topology import by_name, grid, ring
from repro.unison import Unison, increment_counts, safety_holds


def stabilize(net, cfg, seed, daemon=None, max_steps=500_000):
    sdr = SDR(Unison(net))
    daemon = daemon or DistributedRandomDaemon(0.5)
    sim = Simulator(sdr, daemon, config=cfg, seed=seed)
    detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=max_steps)
    return sdr, sim, detector


class TestConvergence:
    @pytest.mark.parametrize("topo", ["ring", "grid", "random", "star", "tree"])
    def test_converges_from_random_configuration(self, topo):
        net = by_name(topo, 9, seed=0)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(1))
        _, sim, detector = stabilize(net, cfg, seed=1)
        assert detector.hit
        assert detector.rounds <= bounds.unison_rounds_bound(net.n)
        assert detector.moves <= bounds.unison_move_bound(net.n, net.diameter)

    @pytest.mark.parametrize("scenario", [clock_gradient, clock_split])
    def test_converges_from_adversarial_clocks(self, scenario):
        net = ring(10)
        sdr = SDR(Unison(net))
        cfg = scenario(sdr)
        _, sim, detector = stabilize(net, cfg, seed=2)
        assert detector.rounds <= bounds.unison_rounds_bound(net.n)

    def test_converges_from_fake_reset_wave(self):
        net = grid(3, 3)
        sdr = SDR(Unison(net))
        cfg = fake_reset_wave(sdr, Random(3))
        _, sim, detector = stabilize(net, cfg, seed=3)
        assert detector.rounds <= bounds.unison_rounds_bound(net.n)

    def test_synchronous_daemon(self):
        net = ring(8)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(4))
        _, sim, detector = stabilize(net, cfg, seed=4, daemon=SynchronousDaemon())
        assert detector.rounds <= bounds.unison_rounds_bound(net.n)


class TestAfterStabilization:
    def test_safety_and_liveness_hold_after_stabilization(self):
        net = ring(8)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(5))
        sdr, sim, detector = stabilize(net, cfg, seed=5)
        trace = Trace()
        sim.add_probe(trace)
        for _ in range(400):
            sim.step()
            assert safety_holds(net, sim.cfg, sdr.input.period)
        counts = increment_counts(trace)
        assert all(counts.get(u, 0) >= 3 for u in net.processes())

    def test_composition_is_not_silent(self):
        """Unison is a dynamic specification: the composition keeps moving
        forever after stabilization (unlike FGA ∘ SDR)."""
        net = ring(6)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(6))
        _, sim, _ = stabilize(net, cfg, seed=6)
        result = sim.run(max_steps=300)
        assert result.stop_reason == "budget"

    def test_no_sdr_rule_fires_after_normality(self):
        net = ring(7)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(7))
        _, sim, _ = stabilize(net, cfg, seed=7)
        before = dict(sim.moves_per_rule)
        sim.run(max_steps=300)
        for rule in ("rule_RB", "rule_RF", "rule_C", "rule_R"):
            assert sim.moves_per_rule.get(rule, 0) == before.get(rule, 0)


class TestLegitimacyClosure:
    def test_normal_configurations_are_closed(self):
        """Normal configurations form an attractor (Corollary 5)."""
        net = ring(6)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(8))
        _, sim, _ = stabilize(net, cfg, seed=8)
        for _ in range(200):
            sim.step()
            assert sdr.is_normal(sim.cfg)

    def test_already_normal_start_stays_normal(self):
        net = ring(6)
        sdr = SDR(Unison(net))
        sim = Simulator(sdr, DistributedRandomDaemon(0.5),
                        config=sdr.initial_configuration(), seed=9)
        detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=10)
        assert detector.step == 0
        assert detector.moves == 0
