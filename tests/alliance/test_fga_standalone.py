"""Behavioral tests for standalone FGA from γ_init (Theorems 8–10)."""

from random import Random

import pytest

from repro.alliance import FGA, dominating_set, global_powerful_alliance, is_one_minimal
from repro.analysis import bounds
from repro.core import (
    DistributedRandomDaemon,
    Simulator,
    SynchronousDaemon,
    Trace,
    make_daemon,
)
from repro.topology import by_name, complete, ring, star


def run_from_init(net, f, g, seed=0, daemon=None, probes=()):
    fga = FGA(net, f, g)
    sim = Simulator(
        fga,
        daemon or DistributedRandomDaemon(0.5),
        config=fga.initial_configuration(),
        seed=seed,
        probes=probes,
    )
    result = sim.run_to_termination(max_steps=1_000_000)
    return fga, sim, result


class TestCorrectness:
    @pytest.mark.parametrize("topo", ["ring", "random", "star", "complete", "tree"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_terminates_with_one_minimal_alliance(self, topo, seed):
        net = by_name(topo, 8, seed=seed)
        f, g = dominating_set(net)
        fga, sim, _ = run_from_init(net, f, g, seed=seed)
        assert is_one_minimal(net, fga.alliance(sim.cfg), f, g)

    def test_star_converges_to_hub(self):
        net = star(6)
        f, g = dominating_set(net)
        fga, sim, _ = run_from_init(net, f, g, seed=3)
        # {hub} is the unique 1-minimal (1,0)-alliance containing the hub;
        # FGA removes greedily by id, so the result must dominate the star.
        assert is_one_minimal(net, fga.alliance(sim.cfg), f, g)

    def test_powerful_alliance_on_complete_graph(self):
        net = complete(6)
        f, g = global_powerful_alliance(net)
        fga, sim, _ = run_from_init(net, f, g, seed=4)
        assert is_one_minimal(net, fga.alliance(sim.cfg), f, g)

    def test_members_only_ever_leave(self):
        """col goes true→false at most once per process (rule_Clr is the
        only writer and no rule sets col back)."""
        net = ring(8)
        f, g = dominating_set(net)
        trace = Trace(record_configurations=True)
        _, sim, _ = run_from_init(net, f, g, seed=5, probes=[trace])
        cols = [[cfg[u]["col"] for cfg in trace.configurations] for u in net.processes()]
        for series in cols:
            # Monotone non-increasing booleans: no False -> True flip.
            assert all(not (not a and b) for a, b in zip(series, series[1:]))

    def test_removals_are_locally_central(self):
        """At most one member of any closed neighborhood quits per step."""
        net = ring(8)
        f, g = dominating_set(net)
        trace = Trace()
        _, sim, _ = run_from_init(net, f, g, seed=6, daemon=SynchronousDaemon(), probes=[trace])
        for record in trace:
            quitters = [u for u, rule in record.selection.items() if rule == "rule_Clr"]
            for i, u in enumerate(quitters):
                for v in quitters[i + 1 :]:
                    assert not net.are_neighbors(u, v)


class TestBounds:
    @pytest.mark.parametrize("topo", ["ring", "random"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_move_bounds_cor11_lemma25(self, topo, seed):
        net = by_name(topo, 9, seed=seed)
        f, g = dominating_set(net)
        _, sim, result = run_from_init(net, f, g, seed=seed)
        assert result.moves <= bounds.fga_standalone_move_bound(net.n, net.m, net.max_degree)
        for u in net.processes():
            assert sim.moves_per_process[u] <= \
                bounds.fga_standalone_moves_per_process_bound(net.degree(u), net.max_degree)

    @pytest.mark.parametrize("daemon_kind", ["synchronous", "central", "distributed-random"])
    def test_rounds_bound_cor12(self, daemon_kind):
        net = ring(8)
        f, g = dominating_set(net)
        _, _, result = run_from_init(net, f, g, seed=2, daemon=make_daemon(daemon_kind, net))
        assert result.rounds <= bounds.fga_standalone_rounds_bound(net.n)

    def test_each_process_quits_at_most_once(self):
        net = by_name("random", 10, seed=3)
        f, g = dominating_set(net)
        trace = Trace()
        _, sim, _ = run_from_init(net, f, g, seed=7, probes=[trace])
        clr_by_process: dict[int, int] = {}
        for record in trace:
            for u, rule in record.selection.items():
                if rule == "rule_Clr":
                    clr_by_process[u] = clr_by_process.get(u, 0) + 1
        assert all(count == 1 for count in clr_by_process.values())
