"""Differential property: one fused driver behind every array execution.

:meth:`~repro.core.kernel.engine.KernelRuntime.drive` runs a batch of
``T`` trials (:func:`~repro.core.kernel.batch.run_batch`, one lane per
trial) and a single fused :class:`~repro.core.Simulator` run (one lane)
alike; the dict engine is the reference.  For drawn algorithms, daemons,
topologies, fault schedules, batch sizes and seeds, the ``T`` lanes of
one batch must equal ``T`` fused runs, which must equal ``T`` dict runs:
steps, moves, rounds, stop reason, per-process and per-rule moves,
recovery summaries and final configurations.  Churn cells never batch
(their trials share one mutated ``Network``), so the churn property
compares the single fused lane with the dict engine.
"""

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Simulator, make_daemon
from repro.core.kernel.batch import run_batch
from repro.faults.schedule import parse_schedule
from repro.harness.runner import ALGORITHMS
from repro.probes import RecoveryProbe
from repro.topology import by_name

#: The daemons with an exact vector twin.
DAEMONS = ("synchronous", "central", "locally-central", "distributed-random")

#: Composed stacks (``SDR ∘ I``) accept layer scopes; Boulinier does not.
COMPOSED = ("unison", "fga")

MAX_STEPS = 300

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build(algorithm, topology, n):
    network = by_name(topology, n, seed=n)
    return network, ALGORITHMS[algorithm].build(network)


def recovery_probe(algorithm, algo):
    legitimacy = ALGORITHMS[algorithm].legitimacy
    if legitimacy is None:  # silent: recovery means terminal again
        return RecoveryProbe(terminal=True)
    mask, predicate = legitimacy
    return RecoveryProbe(getattr(algo, predicate), mask=mask)


def simulate(cell, seed, backend, faults=None, churn=None):
    algorithm, daemon, topology, n = cell
    network, algo = build(algorithm, topology, n)
    probe = recovery_probe(algorithm, algo)
    sim = Simulator(
        algo,
        make_daemon(daemon, network),
        config=algo.random_configuration(Random(seed)),
        seed=seed,
        backend=backend,
        faults=faults,
        churn=churn,
        probes=[probe],
    )
    assert sim.fusion_available == (backend == "kernel")
    result = sim.run(max_steps=MAX_STEPS)
    return {
        "steps": result.steps,
        "moves": result.moves,
        "rounds": result.rounds,
        "stop_reason": result.stop_reason,
        "moves_per_process": list(sim.moves_per_process),
        "moves_per_rule": dict(sim.moves_per_rule),
        "recovery": probe.summary(),
        "final": sim.cfg.snapshot(),
    }


def batch(cell, seeds, faults):
    algorithm, daemon, topology, n = cell
    network, algo = build(algorithm, topology, n)
    probes = [[recovery_probe(algorithm, algo)] for _ in seeds]
    schedule = parse_schedule(faults)
    result = run_batch(
        algo.kernel_program(),
        [algo.random_configuration(Random(seed)) for seed in seeds],
        [make_daemon(daemon, network) for _ in seeds],
        [Random(seed) for seed in seeds],
        network,
        max_steps=MAX_STEPS,
        exclusion_name=algo.name if algo.mutually_exclusive_rules else None,
        probes=probes,
        faults=[schedule.bind(algo, default_seed=seed) for seed in seeds],
    )
    return [
        {
            "steps": outcome.steps,
            "moves": outcome.moves,
            "rounds": outcome.rounds,
            "stop_reason": outcome.stop_reason,
            "moves_per_process": list(outcome.moves_per_process),
            "moves_per_rule": dict(outcome.moves_per_rule),
            "recovery": trial_probes[0].summary(),
            "final": result.configuration(t).snapshot(),
        }
        for t, (outcome, trial_probes) in enumerate(
            zip(result.outcomes, probes)
        )
    ]


cells = st.tuples(
    st.sampled_from(sorted(ALGORITHMS)),
    st.sampled_from(DAEMONS),
    st.sampled_from(("ring", "random")),
    st.integers(4, 10),
)

timings = st.one_of(
    st.builds("at={}".format, st.integers(0, 80)),
    st.builds("every={},start={}".format, st.integers(5, 60), st.integers(0, 80)),
    st.builds(
        "burst={},count={},gap={}".format,
        st.integers(0, 80), st.integers(1, 4), st.integers(1, 40),
    ),
)


@st.composite
def fault_specs(draw, algorithm, variables):
    """``at``/``every``/``burst`` × (``k`` | ``procs``) × (``vars`` | ``scope``)."""
    clause = [draw(timings)]
    if draw(st.booleans()):
        clause.append(f"k={draw(st.integers(1, 3))}")
    else:
        procs = draw(st.sets(st.integers(0, 3), min_size=1, max_size=2))
        clause.append("procs=" + "|".join(map(str, sorted(procs))))
    if algorithm in COMPOSED and draw(st.booleans()):
        clause.append("scope=" + draw(st.sampled_from(("input", "reset"))))
    else:
        clause.append("vars=" + draw(st.sampled_from(variables)))
    return ",".join(clause)


@SETTINGS
@given(cell=cells, trials=st.integers(1, 4), seed=st.integers(0, 2**16),
       data=st.data())
def test_batch_equals_fused_equals_dict(cell, trials, seed, data):
    _, algo = build(cell[0], cell[2], cell[3])
    faults = data.draw(fault_specs(cell[0], sorted(algo.variables())))
    seeds = [seed + t for t in range(trials)]
    batched = batch(cell, seeds, faults)
    fused = [simulate(cell, s, "kernel", faults=faults) for s in seeds]
    assert batched == fused, (cell, faults, seeds)
    reference = [simulate(cell, s, "dict", faults=faults) for s in seeds]
    assert fused == reference, (cell, faults, seeds)


churn_specs = st.lists(
    st.builds(
        "{},{}=1".format,
        timings,
        st.sampled_from(("crash", "join", "drop_edge", "add_edge")),
    ),
    min_size=1,
    max_size=3,
).map(";".join)


@SETTINGS
@given(cell=cells, churn=churn_specs, seed=st.integers(0, 2**16))
def test_fused_lane_equals_dict_under_churn(cell, churn, seed):
    fused = simulate(cell, seed, "kernel", churn=churn)
    reference = simulate(cell, seed, "dict", churn=churn)
    assert fused == reference, (cell, churn, seed)
