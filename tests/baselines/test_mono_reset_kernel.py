"""The mono-initiator reset baseline's kernel port: lockstep + equivalence."""

from random import Random

import pytest

from repro.baselines.mono_reset import MonoReset
from repro.core import Simulator, make_daemon
from repro.faults.injector import corrupt_processes
from repro.ir.kernelc import IRKernelProgram
from repro.probes import StabilizationProbe
from repro.topology import by_name, grid, ring
from repro.unison import Unison


def corrupted(mono, seed, k=2):
    rng = Random(seed)
    return corrupt_processes(
        mono, mono.initial_configuration(),
        rng.sample(range(mono.network.n), k), rng, variables=("c",),
    )


def test_backend_auto_picks_the_kernel():
    mono = MonoReset(Unison(ring(8)))
    assert isinstance(mono.kernel_program(), IRKernelProgram)
    sim = Simulator(mono, make_daemon("distributed-random", mono.network), seed=0)
    assert sim.backend == "kernel"


def test_unported_input_keeps_the_dict_backend():
    from repro.reset.interface import InputAlgorithm

    class Unported(Unison):
        def input_rule_set(self):
            return None

    mono = MonoReset(Unported(ring(8)))
    assert mono.kernel_program() is None


@pytest.mark.parametrize("topo,n", [("ring", 8), ("random", 10), ("tree", 9)])
def test_kernel_lockstep_from_corrupted_configs(topo, n):
    net = by_name(topo, n, seed=5)
    for seed in range(3):
        mono = MonoReset(Unison(net))
        sim = Simulator(
            mono, make_daemon("distributed-random", net),
            config=corrupted(mono, seed), seed=seed,
            backend="kernel", paranoid=True,
        )
        result = sim.run(max_steps=1500)
        assert result.steps > 0


def test_kernel_lockstep_from_random_wave_and_tree_states():
    net = grid(3, 3)
    for seed in range(3):
        mono = MonoReset(Unison(net))
        cfg = mono.random_configuration(Random(seed))
        sim = Simulator(
            mono, make_daemon("distributed-random", net), config=cfg,
            seed=seed, backend="kernel", paranoid=True,
        )
        sim.run(max_steps=800)


def test_fused_recovery_measurement_matches_dict_reference():
    net = ring(12)
    for seed in range(3):
        readings = []
        for backend in ("kernel", "dict"):
            mono = MonoReset(Unison(net))
            sim = Simulator(
                mono, make_daemon("distributed-random", net),
                config=corrupted(mono, seed), seed=seed, backend=backend,
            )
            probe = StabilizationProbe(mono.is_normal, mask="normal")
            sim.add_probe(probe)
            if backend == "kernel":
                assert sim.fusion_available
            sim.run(max_steps=300_000)
            probe.require_hit()
            readings.append(
                (probe.step, probe.rounds, probe.moves,
                 probe.violations_after_hit)
            )
        assert readings[0] == readings[1]


def test_tiled_program_runs_batched_trials_identically():
    from repro.core.kernel.batch import run_batch

    net = ring(10)
    mono = MonoReset(Unison(net))
    program = mono.kernel_program()
    seeds = [0, 1, 2]
    cfgs = [corrupted(MonoReset(Unison(net)), seed) for seed in seeds]
    daemons = [make_daemon("distributed-random", net) for _ in seeds]
    result = run_batch(
        program, cfgs, daemons, [Random(seed) for seed in seeds], net,
        max_steps=300_000,
        until="normal",
    )
    for seed, cfg, outcome in zip(seeds, cfgs, result.outcomes):
        mono = MonoReset(Unison(net))
        sim = Simulator(
            mono, make_daemon("distributed-random", net), config=cfg.copy(),
            seed=seed,
        )
        probe = StabilizationProbe(mono.is_normal, mask="normal")
        sim.add_probe(probe)
        sim.run(max_steps=300_000)
        probe.require_hit()
        assert outcome.hit
        assert (outcome.steps, outcome.rounds, outcome.moves) == (
            probe.step, probe.rounds, probe.moves,
        )
