"""Property regression: fault schedules inject byte-identically everywhere.

A bound :class:`~repro.faults.FaultSchedule` pre-commits every
occurrence's victims and replacement values to a PRNG stream independent
of the daemon and the backend.  Running the same algorithm, daemon,
seed, *and schedule* must therefore produce identical executions on

* the dict engine and the stepping kernel (full trace equality),
* the fused kernel loop (accounting + terminal configuration equality —
  fusion admits no trace by design),
* batched ``(T, n)`` cells versus T serial trials (whole-record
  byte-identity, recovery/wave summaries included).

Any backend applying a corruption at a different step, to a different
victim, or with a different drawn value breaks these equalities
immediately.
"""

import json
from random import Random

import pytest

from repro.alliance.fga import FGA
from repro.core import Simulator, Trace, make_daemon
from repro.engine.campaign import Campaign
from repro.engine.pool import execute_batch, execute_trial
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

#: Mid-run storms: three bursts, two random victims each, starting well
#: inside the execution so corruptions land on evolved configurations.
FAULTS = "burst=15,count=3,gap=40,k=2"

MAX_STEPS = 3000


def execute(algorithm, daemon_kind, seed, backend, traced):
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
        faults=FAULTS,
    )
    result = sim.run(max_steps=MAX_STEPS)
    out = {
        "steps": result.steps,
        "moves": result.moves,
        "rounds": result.rounds,
        "terminal": result.terminal,
        "stop_reason": result.stop_reason,
        "fired": sim.faults.fired,
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
        assert reference["fired"] == 3  # the schedule actually struck
        assert kernel == reference, (algorithm, daemon, seed)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fused_loop_matches_dict(algorithm, daemon):
    for seed in (3, 4):
        reference = execute(algorithm, daemon, seed, "dict", traced=False)
        fused = execute(algorithm, daemon, seed, "kernel", traced=False)
        assert fused == reference, (algorithm, daemon, seed)


def record_bytes(record):
    return json.dumps(record, sort_keys=True, default=str)


@pytest.mark.parametrize("algorithm,daemon,spec", [
    ("unison", "synchronous", FAULTS + ",scope=input"),
    ("unison", "distributed-random", FAULTS + ",scope=input"),
    ("fga", "central", FAULTS + ",scope=input"),
    ("boulinier", "distributed-random", FAULTS),  # uncomposed: no scopes
    # A pulled-forward occurrence that wakes nobody: the finite schedule
    # must be polled again instead of freezing the trial as terminal.
    ("fga", "central", "burst=400,count=3,gap=1,k=1,procs=0,vars=canQ"),
])
def test_faulted_cells_batch_identically(algorithm, daemon, spec):
    """Batched faulted cells equal serial faulted trials, byte for byte."""
    campaign = Campaign(
        name="fault-batch", seed=19, algorithms=(algorithm,),
        topologies=("ring",), sizes=(8,), scenarios=("random",),
        daemons=(daemon,), trials=3,
        params=(("faults", spec), ("max_steps", 200_000)),
    )
    cells = {}
    for spec in campaign.specs():
        cells.setdefault(spec.cell_key(), []).append(spec)
    for cell in cells.values():
        assert can_batch(cell[0])
        serial = [execute_trial(s, campaign.seed, campaign.name) for s in cell]
        batched, error, fallback = execute_batch(cell, campaign.seed, campaign.name)
        assert error is None and not fallback
        assert len(batched) == len(serial)
        for expected, got in zip(serial, batched):
            assert record_bytes(expected) == record_bytes(got), expected["key"]
            recovery = got["result"]["extra"]["recovery"]
            assert recovery["bursts"] == 3
            assert recovery["recovered"] == 3
