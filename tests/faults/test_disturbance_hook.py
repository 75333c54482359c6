"""The one disturbance hook: every driver hands probes the same stream.

A probe that overrides nothing but ``Probe.on_disturbance`` records each
payload it hears of — kind, burst, actual and nominal step, victims,
variables or link delta, moves and rounds — for a schedule of faults and
churn together.  A dict ``run``, a kernel ``run`` (the fused loop, and
the decode path when the probe stays on the decode tier) and a kernel
``step()`` loop must hand it equal sequences, in firing order; for
faults alone, so must the lanes of one ``run_batch`` against their
serial runs.
"""

from random import Random

import pytest

from repro.core import Simulator, make_daemon
from repro.core.kernel.batch import run_batch
from repro.faults.schedule import parse_schedule
from repro.harness.runner import ALGORITHMS
from repro.probes import Probe
from repro.topology import by_name

FAULTS = "burst=5,count=3,gap=20,k=2;at=150,procs=1"
CHURN = "at=8,crash=1;burst=14,count=2,gap=11,drop_edge=1;at=40,join=1"
MAX_STEPS = 200


class Recorder(Probe):
    """Hears of every disturbance and nothing else (the decode tier)."""

    def __init__(self):
        self.seen = []

    def on_disturbance(self, info):
        occ = info.occurrence
        delta = (
            (occ.action, occ.drops, occ.adds) if occ.action else occ.variables
        )
        self.seen.append((
            "churn" if occ.action else "fault", occ.burst, info.step,
            occ.step, occ.victims, delta, info.moves, info.rounds,
        ))


class VectorRecorder(Recorder):
    """The same recorder on the vector tier: the lane stays fused."""

    def wants_decode(self):
        return False


def simulator(algorithm, seed, backend, probe, faults=FAULTS, churn=CHURN):
    network = by_name("random", 8, seed=8)
    algo = ALGORITHMS[algorithm].build(network)
    return Simulator(
        algo, make_daemon("distributed-random", network),
        config=algo.random_configuration(Random(seed)), seed=seed,
        backend=backend, faults=faults, churn=churn, probes=[probe],
    )


def ran(algorithm, seed, backend, recorder=Recorder, **schedules):
    probe = recorder()
    sim = simulator(algorithm, seed, backend, probe, **schedules)
    sim.run(max_steps=MAX_STEPS)
    return probe.seen, sim


def stepped(algorithm, seed, backend):
    probe = Recorder()
    sim = simulator(algorithm, seed, backend, probe)
    for _ in range(MAX_STEPS):
        if sim.step() is None:
            break
    return probe.seen


@pytest.mark.parametrize("algorithm", ["unison", "fga"])
@pytest.mark.parametrize("seed", [3, 17])
def test_every_driver_hands_the_same_stream(algorithm, seed):
    reference, sim = ran(algorithm, seed, "dict")
    kinds = [entry[0] for entry in reference]
    assert kinds.count("fault") == sim.faults.fired == 4
    assert kinds.count("churn") == sim.churn.fired == 4
    # Each family numbers its own occurrences in firing order, and the
    # stream interleaves the two families.
    for kind in ("fault", "churn"):
        assert [e[1] for e in reference if e[0] == kind] == [0, 1, 2, 3]
    assert kinds != sorted(kinds)
    assert all(e[5] for e in reference if e[0] == "fault")
    assert any(e[5][1] for e in reference if e[0] == "churn")
    # FGA is silent: its last fault is pulled forward to the step the
    # configuration went terminal, and reports both steps.
    late = reference[-1]
    assert (late[2] < late[3]) == (algorithm == "fga")
    decoded, kernel_sim = ran(algorithm, seed, "kernel")
    assert not kernel_sim.fusion_available
    assert decoded == reference
    fused, kernel_sim = ran(algorithm, seed, "kernel", VectorRecorder)
    assert kernel_sim.fusion_available
    assert fused == reference
    assert stepped(algorithm, seed, "kernel") == reference


@pytest.mark.parametrize("algorithm", ["unison", "fga"])
def test_batch_lanes_hand_their_serial_streams(algorithm):
    seeds = [5, 6, 7]
    serial = [
        ran(algorithm, seed, "kernel", VectorRecorder, churn=None)[0]
        for seed in seeds
    ]
    network = by_name("random", 8, seed=8)
    algo = ALGORITHMS[algorithm].build(network)
    probes = [[VectorRecorder()] for _ in seeds]
    schedule = parse_schedule(FAULTS)
    run_batch(
        algo.kernel_program(),
        [algo.random_configuration(Random(seed)) for seed in seeds],
        [make_daemon("distributed-random", network) for _ in seeds],
        [Random(seed) for seed in seeds],
        network,
        max_steps=MAX_STEPS,
        exclusion_name=algo.name if algo.mutually_exclusive_rules else None,
        probes=probes,
        faults=[schedule.bind(algo, default_seed=seed) for seed in seeds],
    )
    assert [lane[0].seen for lane in probes] == serial
    assert all(len(stream) == 4 for stream in serial)
