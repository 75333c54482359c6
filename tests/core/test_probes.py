"""Unit tests for repro.probes: protocol, sampling, stop semantics."""

from random import Random

import pytest

from repro.core import Simulator, make_daemon
from repro.core.configuration import state_equal
from repro.probes import (
    AccountingProbe,
    Probe,
    StabilizationProbe,
    StopProbe,
    TraceProbe,
)
from repro.reset import SDR
from repro.topology import ring
from repro.unison import Unison


def make_sim(seed=0, n=9, **kwargs):
    net = ring(n)
    sdr = SDR(Unison(net))
    cfg = sdr.random_configuration(Random(seed))
    sim = Simulator(
        sdr, make_daemon("distributed-random", net), config=cfg, seed=seed,
        **kwargs,
    )
    return sim, sdr


# ======================================================================
# The decode tier
# ======================================================================
class RecordingProbe(Probe):
    """A decode-tier probe recording both of its hooks."""

    def __init__(self):
        self.started = 0
        self.steps = []

    def on_start(self, sim):
        self.started += 1

    def on_step(self, sim, record):
        self.steps.append(record.index)


@pytest.mark.parametrize("backend", ["kernel", "dict"])
def test_decode_probe_sees_start_and_every_step(backend):
    probe = RecordingProbe()
    sim, _ = make_sim(probes=[probe], backend=backend)
    assert probe.started == 1
    sim.step()
    sim.step()
    sim.run(max_steps=3)
    assert probe.steps == [0, 1, 2, 3, 4]


def test_vector_probe_sees_steps_through_its_decode_hook():
    """step() shows every probe the decoded step, as the dict engine does."""
    probe = AccountingProbe()
    sim, _ = make_sim(probes=[probe])
    sim.step()
    assert probe.samples[-1][0] == 1


# ======================================================================
# Capability gating
# ======================================================================
def test_vector_probes_keep_fusion_available():
    sim, sdr = make_sim(probes=[AccountingProbe(every=5), TraceProbe(every=50)])
    assert sim.fusion_available


def test_decode_probe_forces_step_loop():
    class DecodeProbe(Probe):
        pass  # wants_decode() defaults to True

    sim, _ = make_sim(probes=[DecodeProbe()])
    assert not sim.fusion_available


def test_stabilization_probe_without_mask_is_decode_tier():
    sim, sdr = make_sim()
    probe = StabilizationProbe(sdr.is_normal)
    sim.add_probe(probe)
    assert probe.wants_decode()
    assert not sim.fusion_available


def test_undeclared_predicate_name_raises_naming_the_rule_set():
    """A mask naming no declared predicate is an error wherever it is
    read: a serial kernel run, a batched cell and a search's stop test."""
    from repro.adversary.search import make_search_daemon
    from repro.core.kernel.batch import run_batch

    match = (r"sdr\(unison\) declares no predicate 'normal_mask' "
             r"\(declared: normal, status_c\)")
    sim, sdr = make_sim()
    with pytest.raises(ValueError, match=match):
        sim.add_probe(StabilizationProbe(sdr.is_normal, mask="normal_mask"))

    net = sim.network
    with pytest.raises(ValueError, match=match):
        run_batch(
            sdr.kernel_program(), [sdr.random_configuration(Random(0))] * 2,
            [make_daemon("distributed-random", net) for _ in range(2)],
            [Random(0), Random(1)], net, max_steps=10, until="normal_mask",
        )

    search = make_search_daemon("greedy")
    search.strategy.stop_mask = "normal_mask"
    sim = Simulator(sdr, search, config=sdr.random_configuration(Random(0)),
                    seed=0, backend="kernel")
    with pytest.raises(ValueError, match=match):
        sim.run(max_steps=5)


# ======================================================================
# Sampling probes: fused == decode
# ======================================================================
#: Lane variants: plain, hooked (a no-op decode-tier probe puts the
#: per-step decode hook on the lane), and the dict engine, where the
#: sampling probes run their decode tier.
VARIANTS = {
    "plain": dict(),
    "hooked": dict(probes=[Probe()]),
    "dict": dict(backend="dict"),
}


def test_accounting_probe_samples_identical_fused_and_decoded():
    runs = []
    for variant, kwargs in VARIANTS.items():
        sim, _ = make_sim(seed=4, **kwargs)
        probe = AccountingProbe(every=7)
        sim.add_probe(probe)
        assert sim.fusion_available is (variant == "plain")
        sim.run(max_steps=140)
        runs.append(probe.samples)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == (0, 0, 0)
    assert len(runs[0]) == 1 + 140 // 7


def test_trace_probe_samples_identical_fused_and_decoded():
    runs = []
    for kwargs in VARIANTS.values():
        sim, _ = make_sim(seed=4, **kwargs)
        probe = TraceProbe(every=20)
        sim.add_probe(probe)
        sim.run(max_steps=100)
        runs.append(probe.samples)
    for other in runs[1:]:
        assert [step for step, _ in runs[0]] == [step for step, _ in other]
        for (_, fused_cfg), (_, decoded_cfg) in zip(runs[0], other):
            for u in range(len(fused_cfg)):
                assert state_equal(fused_cfg[u], decoded_cfg[u])


@pytest.mark.parametrize("cls", [AccountingProbe, TraceProbe])
def test_sampling_probes_reject_bad_interval(cls):
    with pytest.raises(ValueError):
        cls(every=0)


# ======================================================================
# Stop semantics
# ======================================================================
def test_stop_probe_equals_stop_when_and_reports_probe_reason():
    predicate = lambda c: all(c[u]["st"] == "C" for u in range(9))

    sim, sdr = make_sim(seed=6)
    probe = StopProbe(predicate, mask="status_c")
    sim.add_probe(probe)
    assert sim.fusion_available
    fused = sim.run(max_steps=50_000)
    assert fused.stop_reason == "probe"

    ref, _ = make_sim(seed=6, backend="dict")
    reference = ref.run(max_steps=50_000, stop_when=lambda s: predicate(s.cfg))
    assert reference.stop_reason == "predicate"
    assert (fused.steps, fused.moves, fused.rounds) == (
        reference.steps, reference.moves, reference.rounds,
    )


def test_initial_hit_stops_with_zero_steps_on_both_tiers():
    for hooked in (False, True):
        net = ring(9)
        sdr = SDR(Unison(net))
        sim = Simulator(
            sdr, make_daemon("distributed-random", net),
            config=sdr.initial_configuration(), seed=0,
            probes=[Probe()] if hooked else [],
        )
        probe = StabilizationProbe(sdr.is_normal, mask="normal")
        sim.add_probe(probe)
        result = sim.run(max_steps=1000)
        assert result.stop_reason == "probe"
        assert result.steps == 0
        assert (probe.step, probe.rounds, probe.moves) == (0, 0, 0)


def test_run_past_runs_exactly_that_many_extra_steps():
    sim, sdr = make_sim(seed=2)
    probe = StabilizationProbe(sdr.is_normal, mask="normal", run_past=30)
    sim.add_probe(probe)
    assert sim.fusion_available
    result = sim.run(max_steps=100_000)
    probe.require_hit()
    assert result.stop_reason == "probe"
    assert result.steps == probe.step + 30  # unison never terminates
    assert probe.violations_after_hit == 0  # the predicate is closed


def test_require_hit_raises_not_stabilized():
    from repro.core.exceptions import NotStabilized

    probe = StabilizationProbe(lambda c: False)
    with pytest.raises(NotStabilized):
        probe.require_hit()


def test_probe_without_predicate_needs_resolvable_mask():
    sim, _ = make_sim(backend="dict")
    probe = StabilizationProbe(mask="normal")
    with pytest.raises(ValueError):
        sim.add_probe(probe)
