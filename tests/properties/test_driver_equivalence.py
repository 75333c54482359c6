"""Differential property: one array driver behind every array execution.

:meth:`~repro.core.kernel.engine.KernelRuntime.drive` runs a batch of
``T`` trials (:func:`~repro.core.kernel.batch.run_batch`, one lane per
trial) and every kernel-backend :class:`~repro.core.Simulator` execution
(one lane) alike; the dict engine is the reference.  For drawn
algorithms, daemons, topologies, fault schedules, batch sizes and seeds,
the ``T`` lanes of one batch must equal ``T`` single-lane runs, which
must equal ``T`` dict runs: steps, moves, rounds, stop reason,
per-process and per-rule moves, recovery summaries and final
configurations.  Churn cells never batch (their trials share one mutated
``Network``), so the churn property compares the single lane with the
dict engine.  The stepped lanes — daemons with no vector twin selecting
through the daemon itself, and decode-tier consumers (a trace, a decode
probe, the paranoid lockstep) hooked into the lane — must equal the dict
engine too, and an external ``step()`` loop must equal ``run()``.
"""

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CentralDaemon,
    DistributedRandomDaemon,
    ScriptedDaemon,
    Simulator,
    Trace,
    make_daemon,
)
from repro.core.kernel.batch import run_batch
from repro.faults.schedule import parse_schedule
from repro.harness.runner import ALGORITHMS
from repro.probes import RecoveryProbe, StabilizationProbe
from repro.topology import by_name

#: The daemons with an exact vector twin.
DAEMONS = ("synchronous", "central", "locally-central", "distributed-random")

#: Daemons with no vector twin: the lane selects through the daemon.
SCALAR_DAEMONS = ("priority-central", "random-rule", "scripted")

#: Decode-tier consumers hooked into a kernel lane.
CONSUMERS = ("trace", "decode-probe", "paranoid")

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


def make_scalar_daemon(kind, network, script):
    if kind == "priority-central":
        # Reads the configuration: the lane's lazy view must decode.
        return CentralDaemon(priority=lambda cfg, u, rules: (
            sum(v for v in cfg[u].values() if isinstance(v, int)) + u
        ) % 7)
    if kind == "random-rule":
        daemon = DistributedRandomDaemon(0.5)
        daemon.rule_choice = "random"
        return daemon
    return ScriptedDaemon(script)


def legitimacy_predicate(algorithm, algo):
    legitimacy = ALGORITHMS[algorithm].legitimacy
    if legitimacy is None:  # silent: legitimate means terminal
        return algo.is_terminal
    return getattr(algo, legitimacy[1])


def recovery_probe(algorithm, algo):
    legitimacy = ALGORITHMS[algorithm].legitimacy
    if legitimacy is None:  # silent: recovery means terminal again
        return RecoveryProbe(terminal=True)
    mask, predicate = legitimacy
    return RecoveryProbe(getattr(algo, predicate), mask=mask)


def simulate(cell, seed, backend, faults=None, churn=None, consumer=None,
             script=None):
    """One run of ``cell``; ``consumer`` hooks a decode-tier consumer in."""
    algorithm, daemon, topology, n = cell
    network, algo = build(algorithm, topology, n)
    probe = recovery_probe(algorithm, algo)
    probes = [probe]
    trace = Trace() if consumer == "trace" else None
    if trace is not None:
        probes.append(trace)
    if consumer == "decode-probe":
        predicate = legitimacy_predicate(algorithm, algo)
        probes.append(StabilizationProbe(predicate, run_past=20))
    sim = Simulator(
        algo,
        make_scalar_daemon(daemon, network, script)
        if daemon in SCALAR_DAEMONS else make_daemon(daemon, network),
        config=algo.random_configuration(Random(seed)),
        seed=seed,
        backend=backend,
        faults=faults,
        churn=churn,
        probes=probes,
        paranoid=consumer == "paranoid",
    )
    plain = consumer is None and daemon not in SCALAR_DAEMONS
    assert sim.fusion_available == (backend == "kernel" and plain)
    result = sim.run(max_steps=MAX_STEPS)
    out = {
        "steps": result.steps,
        "moves": result.moves,
        "rounds": result.rounds,
        "stop_reason": result.stop_reason,
        "moves_per_process": list(sim.moves_per_process),
        "moves_per_rule": dict(sim.moves_per_rule),
        "recovery": probe.summary(),
        "final": sim.cfg.snapshot(),
    }
    if trace is not None:
        out["trace"] = [
            (r.index, r.selection, r.enabled_before, r.enabled_after,
             r.rounds_completed)
            for r in trace
        ]
    if consumer == "decode-probe":
        hit = probes[1]
        out["hit"] = (hit.step, hit.rounds, hit.moves, hit.violations_after_hit)
    return out


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


disturbances = st.sampled_from(("none", "faults", "churn", "both"))


@st.composite
def disturbance(draw, algorithm, variables):
    """No disturbance, a drawn fault spec, a drawn churn spec, or both.

    With both, fault and churn occurrences interleave in one stream that
    feeds one recovery probe.
    """
    kind = draw(disturbances)
    kwargs = {}
    if kind in ("faults", "both"):
        kwargs["faults"] = draw(fault_specs(algorithm, variables))
    if kind in ("churn", "both"):
        kwargs["churn"] = draw(churn_specs)
    return kwargs


def scripted_selections(cell, seed, kwargs):
    """The selections of the dict run the scripted daemon replays."""
    algorithm, _, topology, n = cell
    network, algo = build(algorithm, topology, n)
    trace = Trace()
    Simulator(
        algo, make_daemon("distributed-random", network),
        config=algo.random_configuration(Random(seed)), seed=seed,
        backend="dict", probes=[trace], **kwargs,
    ).run(max_steps=MAX_STEPS)
    return [dict(record.selection) for record in trace]


stepped_cells = st.tuples(
    st.sampled_from(sorted(ALGORITHMS)),
    st.sampled_from(SCALAR_DAEMONS + DAEMONS),
    st.sampled_from(("ring", "random")),
    st.integers(4, 10),
)


@SETTINGS
@given(cell=stepped_cells,
       consumer=st.sampled_from((None,) + CONSUMERS),
       seed=st.integers(0, 2**16), data=st.data())
def test_stepped_lanes_equal_dict(cell, consumer, seed, data):
    """Scalar daemons and decode consumers ride the lane, equal to dict."""
    _, algo = build(cell[0], cell[2], cell[3])
    kwargs = data.draw(disturbance(cell[0], sorted(algo.variables())))
    script = (scripted_selections(cell, seed, kwargs)
              if cell[1] == "scripted" else None)
    lane = simulate(cell, seed, "kernel", consumer=consumer, script=script,
                    **kwargs)
    reference = simulate(cell, seed, "dict", consumer=consumer, script=script,
                         **kwargs)
    assert lane == reference, (cell, consumer, kwargs, seed)


@SETTINGS
@given(cell=stepped_cells, backend=st.sampled_from(("kernel", "dict")),
       seed=st.integers(0, 2**16), at=st.integers(1, 40), data=st.data())
def test_step_loop_equals_run(cell, backend, seed, at, data):
    """An external ``step()`` loop replays ``run()``, a fault landing mid-loop."""
    _, algo = build(cell[0], cell[2], cell[3])
    variable = data.draw(st.sampled_from(sorted(algo.variables())))
    faults = f"at={at},k=2,vars={variable}"
    script = (scripted_selections(cell, seed, {"faults": faults})
              if cell[1] == "scripted" else None)
    states = []
    for stepping in (False, True):
        network, algo = build(cell[0], cell[2], cell[3])
        daemon = (make_scalar_daemon(cell[1], network, script)
                  if cell[1] in SCALAR_DAEMONS else make_daemon(cell[1], network))
        sim = Simulator(
            algo, daemon, config=algo.random_configuration(Random(seed)),
            seed=seed, backend=backend, faults=faults,
        )
        if stepping:
            for _ in range(MAX_STEPS):
                if sim.step() is None:
                    break
        else:
            sim.run(max_steps=MAX_STEPS)
        states.append((
            sim.step_count, sim.move_count, sim.rounds.completed,
            sim.rounds.pending, list(sim.moves_per_process),
            dict(sim.moves_per_rule), dict(sim.enabled), sim.faults.fired,
            sim.rng.getstate(), sim.cfg.snapshot(),
        ))
    assert states[0] == states[1], (cell, backend, faults, seed)
