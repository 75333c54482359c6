"""End-to-end scenarios exercising the whole stack together."""

from random import Random

import pytest

from repro.alliance import FGA, dominating_set, is_one_minimal
from repro.analysis import bounds, collect_metrics
from repro.core import (
    DistributedRandomDaemon,
    Simulator,
    Trace,
    WeaklyFairDaemon,
    measure_stabilization,
)
from repro.faults import FaultPlan
from repro.reset import SDR, RequirementObserver
from repro.topology import by_name, grid, ring
from repro.unison import Unison, safety_holds


class TestFaultRecoveryLifecycle:
    def test_unison_survives_repeated_fault_bursts(self):
        """Stabilize, inject transient faults, re-stabilize — three times.

        This is the operational story of self-stabilization: every burst is
        recovered within the theorem bounds, from *whatever* state the
        faults leave behind.
        """
        net = grid(3, 3)
        sdr = SDR(Unison(net))
        plan = FaultPlan(3)
        rng = Random(42)
        cfg = sdr.random_configuration(rng)
        for burst in range(3):
            sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=burst)
            detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=500_000)
            assert detector.rounds <= bounds.sdr_rounds_bound(net.n)
            sim.run(max_steps=50)  # normal operation
            assert safety_holds(net, sim.cfg, sdr.input.period)
            cfg, victims = plan.apply(sdr, sim.cfg, rng)
            assert len(victims) == 3

    def test_alliance_survives_membership_corruption(self):
        net = by_name("random", 10, seed=2)
        f, g = dominating_set(net)
        sdr = SDR(FGA(net, f, g))
        rng = Random(7)
        cfg = sdr.random_configuration(rng)
        for burst in range(2):
            sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=burst)
            sim.run_to_termination(max_steps=1_000_000)
            assert is_one_minimal(net, sdr.input.alliance(sim.cfg), f, g)
            cfg, _ = FaultPlan(2, variables=("col", "scr")).apply(sdr, sim.cfg, rng)


class TestFullStackWithObservers:
    def test_everything_wired_together(self):
        """Requirement observer + trace + detector + metrics on one run."""
        net = ring(8)
        sdr = SDR(Unison(net))
        trace = Trace(record_configurations=True)
        observer = RequirementObserver(sdr)
        sim = Simulator(
            sdr,
            WeaklyFairDaemon(p=0.4, patience=6),
            config=sdr.random_configuration(Random(3)),
            seed=3,
            probes=[trace, observer],
            paranoid=True,
        )
        detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=200_000)
        metrics = collect_metrics(sim)
        assert metrics.moves == sum(metrics.moves_per_process)
        assert metrics.sdr_moves + metrics.input_moves == metrics.moves
        assert len(trace) == metrics.steps
        assert detector.rounds <= bounds.sdr_rounds_bound(net.n)

    def test_two_concurrent_resets_cooperate(self):
        """Two fault sites on a ring: concurrent resets must coordinate
        (distance DAG) and still converge within the single-reset bound."""
        net = ring(12)
        sdr = SDR(Unison(net))
        cfg = sdr.initial_configuration()
        cfg.set(0, "c", 5)   # fault site A
        cfg.set(6, "c", 9)   # fault site B (antipodal)
        sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=9)
        detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=200_000)
        assert detector.rounds <= bounds.sdr_rounds_bound(net.n)
        # Both sites initiated: at least two rule_R executions happened.
        assert sim.moves_per_rule.get("rule_R", 0) >= 2


class TestCrossAlgorithmConsistency:
    def test_same_network_same_seed_different_inputs(self):
        """SDR behaves identically as a layer regardless of the input
        algorithm: its rule labels and accounting views stay consistent."""
        net = by_name("random", 8, seed=5)
        f, g = dominating_set(net)
        for make_input in (lambda: Unison(net), lambda: FGA(net, f, g)):
            sdr = SDR(make_input())
            sim = Simulator(
                sdr, DistributedRandomDaemon(0.5),
                config=sdr.random_configuration(Random(11)), seed=11,
            )
            sim.run(max_steps=2_000)
            assert set(sim.moves_per_rule) <= set(sdr.rule_names())

    def test_unison_period_parameter_sweep(self):
        """Stabilization bounds hold across legal periods K > n."""
        net = ring(6)
        for period in (7, 9, 16, 40):
            sdr = SDR(Unison(net, period=period))
            sim = Simulator(
                sdr, DistributedRandomDaemon(0.5),
                config=sdr.random_configuration(Random(period)), seed=period,
            )
            detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=200_000)
            assert detector.rounds <= bounds.sdr_rounds_bound(net.n)
