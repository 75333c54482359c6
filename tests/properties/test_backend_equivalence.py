"""Property-style regression: dict and kernel backends are trace-equal.

For random topologies × daemons × seeds, running the same algorithm with
the same seed on both execution backends must produce *identical*
executions: the same selection at every step, the same enabled sets, the
same move/round accounting, and the same terminal configuration.  This
holds because both backends present the enabled map to daemons in
ascending process order, so daemons consume the rng stream identically —
any guard or action discrepancy between the two implementations breaks
the equality immediately.
"""

from random import Random

import pytest

from repro.alliance.fga import FGA
from repro.alliance.turau import TurauMIS
from repro.core import Simulator, Trace, make_daemon
from repro.reset import SDR
from repro.topology import grid, random_connected, random_tree, ring
from repro.unison import Unison
from repro.unison.boulinier import BoulinierUnison

DAEMONS = (
    "synchronous",
    "central",
    "locally-central",
    "distributed-random",
    "weakly-fair",
)

TOPOLOGIES = {
    "ring": lambda: ring(11),
    "grid": lambda: grid(3, 4),
    "random-tree": lambda: random_tree(13, seed=5),
    "random-connected": lambda: random_connected(12, p=0.35, seed=9),
}

ALGORITHMS = {
    "unison": lambda net: Unison(net),
    "unison-sdr": lambda net: SDR(Unison(net)),
    "fga": lambda net: FGA(net, 1, 1),
    "fga-sdr": lambda net: SDR(FGA(net, 1, 1)),
    "boulinier": lambda net: BoulinierUnison(net),
    "turau": lambda net: TurauMIS(net),
}


def execute(algo_factory, net, daemon_kind, seed, backend, max_steps=300):
    algo = algo_factory(net)
    trace = Trace()
    sim = Simulator(
        algo,
        make_daemon(daemon_kind, net),
        config=algo.random_configuration(Random(seed)),
        seed=seed,
        backend=backend,
        probes=[trace],
    )
    result = sim.run(max_steps=max_steps)
    return {
        "steps": result.steps,
        "moves": result.moves,
        "rounds": result.rounds,
        "terminal": result.terminal,
        "moves_per_rule": dict(sim.moves_per_rule),
        "trace": [
            (rec.selection, rec.enabled_before, rec.enabled_after, rec.rounds_completed)
            for rec in trace
        ],
        "final": sim.cfg.snapshot(),
    }


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_identical_traces(topology, daemon, algorithm):
    net = TOPOLOGIES[topology]()
    factory = ALGORITHMS[algorithm]
    for seed in (0, 1):
        reference = execute(factory, net, daemon, seed, "dict")
        kernel = execute(factory, net, daemon, seed, "kernel")
        assert kernel == reference, (
            f"backend divergence: {algorithm} on {topology} under {daemon}, "
            f"seed {seed}"
        )


def test_terminal_configuration_identical_to_termination():
    """Silent composition: both backends end in the same terminal config."""
    net = grid(3, 3)
    finals = []
    for backend in ("dict", "kernel"):
        sdr = SDR(FGA(net, 1, 1))
        cfg = sdr.random_configuration(Random(23))
        sim = Simulator(
            sdr,
            make_daemon("distributed-random", net),
            config=cfg,
            seed=23,
            backend=backend,
        )
        result = sim.run_to_termination(max_steps=100_000)
        finals.append((result.moves, result.rounds, sim.cfg.snapshot()))
    assert finals[0] == finals[1]
