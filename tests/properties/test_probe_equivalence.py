"""Property regression: probe tiers measure identically.

A :class:`StabilizationProbe` can observe one execution four ways — a
plain kernel lane (vector tier), a decode-hooked kernel lane with the
mask, a kernel lane with the predicate (decode tier), and the dict
backend with the predicate.  For every algorithm × daemon × seed the
four must report *byte-identical* ``(step, rounds, moves,
violations_after_hit)``: measurement must never depend on how the
execution was driven.
"""

from random import Random

import pytest

from repro.baselines.mono_reset import MonoReset
from repro.core import Simulator, make_daemon
from repro.core.detectors import measure_stabilization
from repro.faults.injector import corrupt_processes
from repro.probes import Probe, StabilizationProbe
from repro.reset import SDR
from repro.topology import grid, ring
from repro.unison import Unison
from repro.unison.boulinier import BoulinierUnison

DAEMONS = (
    "synchronous",
    "central",
    "locally-central",
    "distributed-random",
    "weakly-fair",
)

#: name → (algorithm factory, start factory, predicate attr, mask attr)
ALGORITHMS = {
    "unison-sdr": (
        lambda net: SDR(Unison(net)),
        lambda algo, seed: algo.random_configuration(Random(seed)),
        "is_normal",
        "normal_mask",
    ),
    "boulinier": (
        lambda net: BoulinierUnison(net),
        lambda algo, seed: algo.random_configuration(Random(seed)),
        "is_legitimate",
        "legitimate_mask",
    ),
    "mono-reset": (
        lambda net: MonoReset(Unison(net)),
        # Random wave/tree states are outside the baseline's proven
        # scope; measure its documented scenario (corrupted input).
        lambda algo, seed: corrupt_processes(
            algo, algo.initial_configuration(),
            Random(seed).sample(range(algo.network.n), 2), Random(seed),
            variables=("c",),
        ),
        "is_normal",
        "normal_mask",
    ),
}

#: tier → (backend, decode-hooked lane, use mask).  A hooked lane carries
#: a no-op decode-tier probe, so the driver runs its per-step decode hook.
TIERS = {
    "fused": ("kernel", False, True),
    "kernel-mask-hooked": ("kernel", True, True),
    "kernel-decode": ("kernel", False, False),
    "dict-decode": ("dict", False, False),
}


def measure(algo_name, net, daemon_kind, seed, tier, run_past=0):
    factory, start, predicate_attr, mask_attr = ALGORITHMS[algo_name]
    backend, hooked, use_mask = TIERS[tier]
    algo = factory(net)
    cfg = start(algo, seed)
    sim = Simulator(
        algo, make_daemon(daemon_kind, net), config=cfg, seed=seed,
        backend=backend, probes=[Probe()] if hooked else [],
    )
    probe = StabilizationProbe(
        getattr(algo, predicate_attr),
        mask=mask_attr if use_mask else None,
        run_past=run_past,
    )
    sim.add_probe(probe)
    if tier == "fused":
        assert sim.fusion_available, (
            "a vectorized StabilizationProbe must keep the fused path"
        )
    result = sim.run(max_steps=200_000)
    probe.require_hit()
    if tier == "fused":
        assert result.stop_reason == "probe"
    return (probe.step, probe.rounds, probe.moves, probe.violations_after_hit)


@pytest.mark.parametrize("daemon_kind", DAEMONS)
@pytest.mark.parametrize("algo_name", sorted(ALGORITHMS))
def test_probe_tiers_byte_identical(algo_name, daemon_kind):
    net = ring(9)
    for seed in range(2):
        readings = {
            tier: measure(algo_name, net, daemon_kind, seed, tier)
            for tier in TIERS
        }
        assert len(set(readings.values())) == 1, readings


@pytest.mark.parametrize("algo_name", sorted(ALGORITHMS))
def test_probe_tiers_byte_identical_on_grid(algo_name):
    net = grid(3, 4)
    readings = [
        measure(algo_name, net, "distributed-random", 7, tier)
        for tier in TIERS
    ]
    assert len(set(readings)) == 1, readings


@pytest.mark.parametrize("daemon_kind", ("distributed-random", "synchronous"))
def test_run_past_suffix_monitoring_matches_across_tiers(daemon_kind):
    """Closure monitoring (run_past violations) is tier-independent."""
    net = ring(9)
    for seed in range(2):
        readings = {
            tier: measure("unison-sdr", net, daemon_kind, seed, tier,
                          run_past=40)
            for tier in TIERS
        }
        assert len(set(readings.values())) == 1, readings
        # U o SDR's normal predicate is closed: the suffix stays clean.
        assert next(iter(readings.values()))[3] == 0


def test_nonclosed_predicate_violations_match_across_tiers():
    """A predicate that flickers counts the same violations fused/decoded.

    "Every clock even" holds, breaks, and holds again along a unison
    execution — exactly what violations_after_hit must count, on both
    tiers, with a callable mask standing in for a program attribute.
    """
    net = ring(8)
    readings = []
    for tier in ("fused", "dict-decode"):
        backend, hooked, use_mask = TIERS[tier]
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(11))
        sim = Simulator(
            sdr, make_daemon("distributed-random", net), config=cfg, seed=11,
            backend=backend, probes=[Probe()] if hooked else [],
        )
        probe = StabilizationProbe(
            predicate=lambda c: all(c[u]["c"] % 2 == 0 for u in net.processes()),
            mask=(lambda cols: cols["c"] % 2 == 0) if use_mask else None,
            name="all-even",
            stop=False,
        )
        sim.add_probe(probe)
        if tier == "fused":
            assert sim.fusion_available
        sim.run(max_steps=400)
        readings.append(
            (probe.step, probe.rounds, probe.moves, probe.violations_after_hit)
        )
    assert readings[0] == readings[1]
    assert readings[0][3] > 0, "scenario should actually flicker"


def test_probe_agrees_with_legacy_measure_stabilization():
    """The probe path reports exactly what the legacy shim reports."""
    net = grid(3, 3)
    for seed in range(3):
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(seed))
        legacy_sim = Simulator(
            sdr, make_daemon("distributed-random", net), config=cfg.copy(),
            seed=seed, backend="dict",
        )
        detector, _ = measure_stabilization(
            legacy_sim, sdr.is_normal, max_steps=200_000
        )

        sdr2 = SDR(Unison(net))
        fused_sim = Simulator(
            sdr2, make_daemon("distributed-random", net), config=cfg.copy(),
            seed=seed,
        )
        probe = StabilizationProbe(sdr2.is_normal, mask="normal_mask")
        fused_sim.add_probe(probe)
        assert fused_sim.fusion_available
        fused_sim.run(max_steps=200_000)
        assert (probe.step, probe.rounds, probe.moves) == (
            detector.step, detector.rounds, detector.moves,
        )
