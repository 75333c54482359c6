"""Property regression: every kernel lane equals the dict daemon's steps.

``Simulator.run`` on the kernel backend is one lane of
:meth:`KernelRuntime.drive` (vectorized daemons, array round counter,
deferred accounting); a decode-tier consumer adds the per-step decode
hook to that lane, and ``Simulator.step`` drives one step at a time
through the dict daemon itself.  Nothing about the execution may change:
for every topology × daemon × seed × algorithm the plain run, the
decode-hooked run and an external ``step()`` loop must agree *exactly* —
same step and move counts, same per-process/per-rule accounting, same
round counter state, same final configuration, and the same post-run
``Random`` state (the vector daemons consume the rng stream in the dict
daemons' order).
"""

from random import Random

import pytest

from repro.alliance.fga import FGA
from repro.alliance.turau import TurauMIS
from repro.baselines.mono_reset import MonoReset
from repro.core import DistributedRandomDaemon, Simulator, Trace, make_daemon
from repro.core.detectors import measure_stabilization
from repro.probes import Probe, StopProbe
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
    "unison-sdr": lambda net: SDR(Unison(net)),
    "fga-sdr": lambda net: SDR(FGA(net, 1, 1)),
    "boulinier": lambda net: BoulinierUnison(net),
    "turau": lambda net: TurauMIS(net),
}


def execute(factory, net, daemon_kind, seed, lane, max_steps=250):
    """One execution on ``lane``: ``plain``, ``hooked`` or ``stepped``."""
    algo = factory(net)
    sim = Simulator(
        algo,
        make_daemon(daemon_kind, net),
        config=algo.random_configuration(Random(seed)),
        seed=seed,
        backend="kernel",
        probes=[Probe()] if lane == "hooked" else [],
    )
    assert sim.fusion_available is (lane != "hooked")
    if lane == "stepped":
        for _ in range(max_steps):
            if sim.step() is None:
                break
        # No probe ever stops: a run ends terminal, or else on budget.
        stop_reason = "terminal" if sim.is_terminal() else "budget"
    else:
        stop_reason = sim.run(max_steps=max_steps).stop_reason
    return {
        "stop_reason": stop_reason,
        "steps": sim.step_count,
        "moves": sim.move_count,
        "rounds": sim.rounds.completed,
        "terminal": sim.is_terminal(),
        "moves_per_rule": dict(sim.moves_per_rule),
        "moves_per_process": tuple(sim.moves_per_process),
        "enabled": dict(sim.enabled),
        "round_pending": sim.rounds.pending,
        "final": sim.cfg.snapshot(),
        "rng_state": sim.rng.getstate(),
    }


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fused_equals_stepwise(topology, daemon, algorithm):
    net = TOPOLOGIES[topology]()
    factory = ALGORITHMS[algorithm]
    for seed in (0, 1):
        stepwise = execute(factory, net, daemon, seed, "stepped")
        for lane in ("plain", "hooked"):
            fused = execute(factory, net, daemon, seed, lane)
            assert fused == stepwise, (
                f"{lane} lane divergence: {algorithm} on {topology} under "
                f"{daemon}, seed {seed}"
            )


def test_fusion_engages_for_vector_daemons():
    net = ring(8)
    sim = Simulator(
        SDR(Unison(net)), make_daemon("distributed-random", net), seed=0,
        backend="kernel",
    )
    assert sim.fusion_available


def test_fusion_disabled_by_knobs():
    net = ring(8)
    sdr = SDR(Unison(net))
    base = dict(seed=0, backend="kernel")
    assert not Simulator(
        sdr, make_daemon("distributed-random", net), paranoid=True, **base
    ).fusion_available
    assert not Simulator(
        sdr, make_daemon("distributed-random", net), probes=[Trace()], **base
    ).fusion_available
    observed = Simulator(
        sdr, make_daemon("distributed-random", net), probes=[Probe()], **base
    )
    assert not observed.fusion_available


def test_step_then_fused_run_continues_seamlessly():
    """A fused run can pick up mid-execution after manual step() calls."""
    net = grid(3, 4)
    results = []
    for hooked in (True, False):
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(3))
        sim = Simulator(
            sdr, make_daemon("weakly-fair", net), config=cfg, seed=3,
            backend="kernel", probes=[Probe()] if hooked else [],
        )
        for _ in range(17):  # prefix runs step-by-step in both cases
            sim.step()
        result = sim.run(max_steps=100)
        results.append((
            result.steps, result.moves, result.rounds,
            dict(sim.moves_per_rule), sim.cfg.snapshot(),
            sim.rng.getstate(), sim.rounds.pending,
        ))
    assert results[0] == results[1]


def test_fused_then_step_continues_seamlessly():
    """Manual step() after a fused run sees synced enabled/rounds/rng."""
    net = grid(3, 4)
    results = []
    for hooked in (True, False):
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(5))
        sim = Simulator(
            sdr, make_daemon("distributed-random", net), config=cfg, seed=5,
            backend="kernel", probes=[Probe()] if hooked else [],
        )
        sim.run(max_steps=40)
        for _ in range(10):
            sim.step()
        results.append((
            sim.step_count, sim.move_count, sim.rounds.completed,
            sim.cfg.snapshot(), sim.rng.getstate(),
        ))
    assert results[0] == results[1]


@pytest.mark.parametrize("daemon", DAEMONS)
def test_stop_probe_mask_equals_detector(daemon):
    """A vectorized StopProbe mask stops at the detector's step."""
    net = ring(10)
    for seed in (0, 1, 2):
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(seed))
        reference = Simulator(
            sdr, make_daemon(daemon, net), config=cfg.copy(), seed=seed,
            backend="kernel",
        )
        detector, _ = measure_stabilization(
            reference, sdr.is_normal, max_steps=50_000
        )

        fused = Simulator(
            sdr, make_daemon(daemon, net), config=cfg.copy(), seed=seed,
            backend="kernel", probes=[StopProbe(mask="normal")],
        )
        result = fused.run(max_steps=50_000)
        assert result.stop_reason == "probe"
        assert (result.steps, result.rounds, result.moves) == (
            detector.step, detector.rounds, detector.moves
        )
        assert fused.cfg.snapshot() == reference.cfg.snapshot()


def test_stop_probe_mask_initial_hit():
    net = ring(6)
    sdr = SDR(Unison(net))
    sim = Simulator(
        sdr, make_daemon("synchronous", net),
        config=sdr.initial_configuration(), seed=0, backend="kernel",
        probes=[StopProbe(mask="normal")],
    )
    result = sim.run(max_steps=100)
    assert (result.steps, result.stop_reason) == (0, "probe")


def test_fused_budget_and_terminal_stop_reasons():
    net = grid(3, 3)
    sdr = SDR(FGA(net, 1, 1))
    cfg = sdr.random_configuration(Random(2))
    budget = Simulator(
        sdr, make_daemon("distributed-random", net), config=cfg.copy(),
        seed=2, backend="kernel",
    )
    assert budget.run(max_steps=1).stop_reason == "budget"
    terminal = Simulator(
        sdr, make_daemon("distributed-random", net), config=cfg.copy(),
        seed=2, backend="kernel",
    )
    result = terminal.run_to_termination(max_steps=100_000)
    assert result.terminal


def test_random_rule_choice_overrides_lowest_rule_dispatch():
    """``rule_choice="random"`` picks among overlapping rules on the lane.

    MonoReset's tree repair overlaps its wave rules, so processes with
    several enabled rules occur; the daemon's picks (drawn from the rng)
    must reach the kernel's rule dispatch exactly as on the dict engine —
    in a run, under the paranoid lockstep, and in a ``step()`` loop.
    """
    net = grid(3, 4)
    for seed in (1, 2):
        algo = MonoReset(Unison(net))
        cfg = algo.random_configuration(Random(seed))
        outcomes, overlaps = [], 0
        for backend, paranoid, stepping in (
            ("dict", False, False),
            ("kernel", True, False),
            ("kernel", False, True),
        ):
            daemon = DistributedRandomDaemon(0.5)
            daemon.rule_choice = "random"
            sim = Simulator(algo, daemon, config=cfg, seed=seed,
                            backend=backend, paranoid=paranoid)
            if stepping:
                for _ in range(300):
                    overlaps += sum(len(rules) > 1 for rules in sim.enabled.values())
                    if sim.step() is None:
                        break
            else:
                sim.run(max_steps=300)
            outcomes.append((
                sim.step_count, dict(sim.moves_per_rule),
                sim.rng.getstate(), sim.cfg.snapshot(),
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2], seed
        assert overlaps, "scenario should reach overlapping rules"
