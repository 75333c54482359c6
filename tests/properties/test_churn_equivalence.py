"""Property regression: topology churn mutates byte-identically everywhere.

A bound :class:`~repro.faults.churn.BoundChurnSchedule` owns the canonical
topology state and pre-commits every occurrence's victims, edges, and
join-state draws to a PRNG stream independent of the daemon and the
backend.  Running the same algorithm, daemon, seed, *and churn schedule*
must therefore produce identical executions on

* the dict engine and the stepping kernel (full trace equality),
* the fused kernel loop (accounting + terminal configuration + final
  topology equality — fusion admits no trace by design),

and a finite schedule must always play out in full: occurrences landing
after the system quiesces are pulled forward, fired, and the run still
ends ``terminal`` — on every backend.

Any backend crashing a different process, reclaiming a different edge,
or drawing a join state from a stale neighborhood breaks these
equalities immediately.
"""

from random import Random

import pytest

from repro.alliance.fga import FGA
from repro.core import Simulator, Trace, make_daemon
from repro.engine.campaign import Campaign
from repro.harness.runner import can_batch
from repro.reset import SDR
from repro.topology import grid, ring
from repro.unison import Unison
from repro.unison.boulinier import BoulinierUnison

DAEMONS = ("synchronous", "central", "locally-central", "distributed-random")

ALGORITHMS = {
    "unison-sdr": lambda net: SDR(Unison(net)),
    "fga-sdr": lambda net: SDR(FGA(net, 1, 1)),
    "boulinier": lambda net: BoulinierUnison(net),
}

#: All four actions, interleaved: periodic crashes, a join storm landing
#: while crashed processes are still down, then one link flap late in the
#: run so edge churn hits an evolved configuration.
CHURN = (
    "every=10,count=4,crash=1;"
    "burst=55,count=3,gap=10,join=1;"
    "at=90,drop_edge=1;"
    "at=95,add_edge=1"
)

MAX_STEPS = 5000


def execute(algorithm, daemon_kind, seed, backend, traced):
    # Churn mutates the Network in place: every execution gets a fresh one.
    net = ring(9) if seed % 2 else grid(3, 3)
    algo = ALGORITHMS[algorithm](net)
    trace = Trace() if traced else None
    sim = Simulator(
        algo,
        make_daemon(daemon_kind, net),
        config=algo.random_configuration(Random(seed)),
        seed=seed,
        backend=backend,
        probes=[trace] if traced else [],
        churn=CHURN,
    )
    result = sim.run(max_steps=MAX_STEPS)
    out = {
        "steps": result.steps,
        "moves": result.moves,
        "rounds": result.rounds,
        "terminal": result.terminal,
        "stop_reason": result.stop_reason,
        "fired": sim.churn.fired,
        "dead": sorted(sim.dead),
        "edges": sim.churn.current_edges(),
        "network_edges": tuple(sorted(tuple(sorted(e)) for e in net.edges())),
        "moves_per_rule": dict(sim.moves_per_rule),
        "moves_per_process": list(sim.moves_per_process),
        "final": sim.cfg.snapshot(),
    }
    if traced:
        out["trace"] = [
            (rec.selection, rec.enabled_before, rec.enabled_after)
            for rec in trace
        ]
    return out


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_dict_and_stepped_kernel_traces_identical(algorithm, daemon):
    for seed in (3, 4):
        reference = execute(algorithm, daemon, seed, "dict", traced=True)
        kernel = execute(algorithm, daemon, seed, "kernel", traced=True)
        assert reference["fired"] == 9  # the full schedule played out
        assert kernel == reference, (algorithm, daemon, seed)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fused_loop_matches_dict(algorithm, daemon):
    for seed in (3, 4):
        reference = execute(algorithm, daemon, seed, "dict", traced=False)
        fused = execute(algorithm, daemon, seed, "kernel", traced=False)
        assert fused == reference, (algorithm, daemon, seed)


@pytest.mark.parametrize("backend", ("dict", "kernel"))
def test_finite_schedule_pulled_forward_at_terminal(backend):
    """Occurrences scheduled past quiescence still fire before the run ends.

    The silent FGA∘SDR stack stabilizes in a few dozen steps; both loops
    must pull the remaining occurrences forward (even when an
    ``add_edge`` at a silent fixpoint wakes nobody) and end ``terminal``
    with the schedule exhausted, not strand them behind an early break.
    """
    net = ring(8)
    algo = SDR(FGA(net, 1, 1))
    sim = Simulator(
        algo,
        make_daemon("distributed-random", net),
        config=algo.random_configuration(Random(7)),
        seed=7,
        backend=backend,
        churn="at=4000,drop_edge=1;at=4500,add_edge=1;at=5000,crash=1",
    )
    result = sim.run(max_steps=MAX_STEPS)
    assert sim.churn.fired == 3
    assert sim.churn.exhausted
    assert result.stop_reason == "terminal"


def test_churn_trials_refuse_batching():
    """Churn mutates per-trial topology: cells with churn never batch."""
    campaign = Campaign(
        name="churn-batch", seed=5, algorithms=("unison",),
        topologies=("ring",), sizes=(8,), scenarios=("random",),
        trials=2, params=(("churn", "every=10,crash=1"),),
    )
    for spec in campaign.specs():
        assert not can_batch(spec)
