"""Property-based tests (hypothesis) for SDR's structural theorems.

Each property quantifies over random graphs, random configurations, and
random daemon schedules — the same universes the paper's theorems quantify
over (at test scale).
"""

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import bounds
from repro.core import DistributedRandomDaemon, Simulator, Trace, measure_stabilization
from repro.reset import SDR, check_configuration, check_reset_establishes
from repro.reset.analysis import (
    alive_roots,
    reset_branches,
    segment_rule_sequences_ok,
    split_segments,
)
from repro.topology import random_connected
from repro.unison import Unison

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def sdr_instances(draw):
    """A random (SDR over U, random configuration, rng seed) triple."""
    n = draw(st.integers(min_value=4, max_value=9))
    graph_seed = draw(st.integers(min_value=0, max_value=10_000))
    cfg_seed = draw(st.integers(min_value=0, max_value=10_000))
    net = random_connected(n, p=0.3, seed=graph_seed)
    sdr = SDR(Unison(net))
    cfg = sdr.random_configuration(Random(cfg_seed))
    return sdr, cfg, cfg_seed


@given(sdr_instances())
@SETTINGS
def test_lemma5_rules_pairwise_mutually_exclusive(instance):
    """Lemma 5 + Remark 2: at most one rule enabled per process."""
    sdr, cfg, _ = instance
    for u in sdr.network.processes():
        assert len(sdr.enabled_rules(cfg, u)) <= 1


@given(sdr_instances())
@SETTINGS
def test_theorem1_terminal_iff_normal(instance):
    """Theorem 1: a configuration is terminal for the SDR layer iff
    P_Clean ∧ P_ICorrect holds everywhere."""
    sdr, cfg, _ = instance
    sdr_rules = ("rule_RB", "rule_RF", "rule_C", "rule_R")
    sdr_terminal = not any(
        sdr.guard(rule, cfg, u)
        for u in sdr.network.processes()
        for rule in sdr_rules
    )
    assert sdr_terminal == sdr.is_normal(cfg)


@given(sdr_instances())
@SETTINGS
def test_theorem3_alive_roots_never_created(instance):
    """Theorem 3 / Remark 4: AR(γ_{i+1}) ⊆ AR(γ_i) along executions."""
    sdr, cfg, seed = instance
    sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=seed)
    previous = alive_roots(sdr, sim.cfg)
    for _ in range(60):
        if sim.step() is None:
            break
        current = alive_roots(sdr, sim.cfg)
        assert current <= previous
        previous = current


@given(sdr_instances())
@SETTINGS
def test_remark5_and_theorem4_segment_structure(instance):
    """Remark 5: ≤ n+1 segments; Theorem 4: per-segment rule language."""
    sdr, cfg, seed = instance
    trace = Trace(record_configurations=True)
    sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=seed,
                    probes=[trace])
    measure_stabilization(sim, sdr.is_normal, max_steps=100_000)
    assert len(split_segments(sdr, trace)) <= bounds.segments_bound(sdr.network.n)
    assert segment_rule_sequences_ok(sdr, trace)


@given(sdr_instances())
@SETTINGS
def test_corollary5_convergence_bound(instance):
    """Corollary 5: a normal configuration within 3n rounds."""
    sdr, cfg, seed = instance
    sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=seed)
    detector, _ = measure_stabilization(sim, sdr.is_normal, max_steps=100_000)
    assert detector.rounds <= bounds.sdr_rounds_bound(sdr.network.n)


@given(sdr_instances())
@SETTINGS
def test_lemma7_branches_are_short_and_acyclic(instance):
    """Lemma 7.1: every reset branch has at most n distinct processes."""
    sdr, cfg, _ = instance
    for branch in reset_branches(sdr, cfg, limit=5_000):
        assert len(branch) <= sdr.network.n
        assert len(set(branch)) == len(branch)


@given(sdr_instances())
@SETTINGS
def test_requirements_hold_on_arbitrary_configurations(instance):
    """Requirements 2c/2d/2e hold for U on any configuration."""
    sdr, cfg, seed = instance
    check_configuration(sdr, cfg)
    for u in sdr.network.processes():
        check_reset_establishes(sdr, cfg, u)
