"""Tests for the mono-initiator (Arora–Gouda style) reset baseline."""

from random import Random

import pytest

from repro.baselines import ACK, IDLE, MODE, MonoReset, REQ, RESET
from repro.core import DistributedRandomDaemon, Simulator, SynchronousDaemon, Trace, measure_stabilization
from repro.faults import corrupt_processes
from repro.topology import by_name, line, ring
from repro.unison import Unison, safety_holds


def recover(net, victims, seed=0, daemon=None):
    algo = MonoReset(Unison(net))
    cfg = corrupt_processes(
        algo, algo.initial_configuration(), victims, Random(seed), variables=("c",)
    )
    sim = Simulator(algo, daemon or DistributedRandomDaemon(0.5), config=cfg, seed=seed)
    detector, _ = measure_stabilization(sim, algo.is_normal, max_steps=500_000)
    return algo, sim, detector


class TestRecovery:
    @pytest.mark.parametrize("topo", ["ring", "random", "tree"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_recovers_from_corrupted_input(self, topo, seed):
        net = by_name(topo, 9, seed=seed)
        algo, sim, detector = recover(net, victims=[3, 5], seed=seed)
        assert detector.hit
        assert algo.is_normal(sim.cfg)

    def test_no_fault_means_no_wave(self):
        net = ring(6)
        algo = MonoReset(Unison(net))
        sim = Simulator(algo, DistributedRandomDaemon(0.5),
                        config=algo.initial_configuration(), seed=0)
        sim.run(max_steps=200)
        # Only unison ticks; the wave layer never left IDLE.
        assert all(rule == "rule_U" for rule in sim.moves_per_rule)

    def test_reset_wave_covers_whole_network(self):
        """The mono-initiator architecture resets everyone, even for a
        single localized fault — the inefficiency SDR avoids."""
        net = line(7)
        algo = MonoReset(Unison(net))
        cfg = corrupt_processes(
            algo, algo.initial_configuration(), [6], Random(1), variables=("c",)
        )
        # Make sure the corruption is visible (c=0 would be a no-op fault).
        cfg.set(6, "c", 3)
        trace = Trace()
        sim = Simulator(algo, SynchronousDaemon(), config=cfg, seed=1, probes=[trace])
        measure_stabilization(sim, algo.is_normal, max_steps=100_000)
        resetters = {
            u
            for record in trace
            for u, rule in record.selection.items()
            if rule in ("rule_reset_root", "rule_reset_down")
        }
        assert resetters == set(net.processes())

    def test_safety_after_recovery(self):
        net = ring(8)
        algo, sim, _ = recover(net, victims=[2], seed=3)
        for _ in range(200):
            sim.step()
        assert safety_holds(net, sim.cfg, algo.input.period)


class TestWaveMechanics:
    def test_request_travels_to_root_then_reset_comes_back(self):
        net = line(4)  # root 0 — 1 — 2 — 3
        algo = MonoReset(Unison(net))
        cfg = algo.initial_configuration()
        cfg.set(3, "c", 2)  # inconsistency at the far end
        sim = Simulator(algo, SynchronousDaemon(), config=cfg, seed=0)
        modes_seen = {u: set() for u in net.processes()}
        for _ in range(60):
            sim.step()
            for u in net.processes():
                modes_seen[u].add(sim.cfg[u][MODE])
            if algo.is_normal(sim.cfg) and sim.cfg[0][MODE] == IDLE:
                break
        # Both endpoints went through the reset mode.
        assert RESET in modes_seen[0]
        assert RESET in modes_seen[3]
        # The far end raised a request; the root never needs REQ.
        assert REQ in modes_seen[3] or RESET in modes_seen[3]

    def test_host_gate_blocks_input_near_wave(self):
        net = line(3)
        algo = MonoReset(Unison(net))
        cfg = algo.initial_configuration()
        cfg.set(0, MODE, RESET)
        assert not algo.input.guard("rule_U", cfg, 0)
        assert not algo.input.guard("rule_U", cfg, 1)  # neighbor of the wave
        assert algo.input.guard("rule_U", cfg, 2)
