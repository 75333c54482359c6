"""Cross-check the incremental round counter against an independent
reference implementation that replays the inductive definition over a
recorded trace (prefix-minimal rounds, computed from scratch)."""

from random import Random

import pytest

from repro.core import DistributedRandomDaemon, Simulator, Trace
from repro.reset import SDR
from repro.topology import random_connected, ring
from repro.unison import Unison
from tests.toys import Countdown, MaxFlood


def reference_rounds(records) -> int:
    """Recompute completed rounds by literally applying Section 2.4.

    For each round, scan forward for the minimal prefix in which every
    process enabled at the round's start was activated or neutralized.
    Restart the scan after each boundary (quadratic, reference-only).
    """
    completed = 0
    i = 0
    n_records = len(records)
    while i < n_records:
        pending = set(records[i].enabled_before)
        if not pending:
            break
        j = i
        while j < n_records and pending:
            record = records[j]
            before = set(record.enabled_before)
            after = set(record.enabled_after)
            activated = set(record.selection)
            pending -= {
                v for v in pending
                if v in activated or (v in before and v not in after)
            }
            j += 1
        if pending:
            break  # execution prefix ended mid-round
        completed += 1
        i = j
    return completed


@pytest.mark.parametrize("seed", range(6))
def test_reference_agrees_on_sdr_runs(seed):
    net = random_connected(7, p=0.3, seed=seed)
    sdr = SDR(Unison(net))
    trace = Trace()
    sim = Simulator(
        sdr, DistributedRandomDaemon(0.5),
        config=sdr.random_configuration(Random(seed)), seed=seed, probes=[trace],
    )
    sim.run(max_steps=200)
    assert sim.rounds.completed == reference_rounds(trace.records)


@pytest.mark.parametrize("seed", range(4))
def test_reference_agrees_on_silent_runs(seed):
    net = ring(6)
    algo = MaxFlood(net)
    trace = Trace()
    sim = Simulator(
        algo, DistributedRandomDaemon(0.4),
        config=algo.random_configuration(Random(seed)), seed=seed, probes=[trace],
    )
    sim.run_to_termination(max_steps=10_000)
    assert sim.rounds.completed == reference_rounds(trace.records)


def test_reference_agrees_on_countdown():
    net = ring(5)
    algo = Countdown(net, start=4)
    trace = Trace()
    sim = Simulator(algo, DistributedRandomDaemon(0.6), seed=1, probes=[trace])
    sim.run_to_termination(max_steps=10_000)
    assert sim.rounds.completed == reference_rounds(trace.records)
