"""Unit tests for measure_stabilization and its decode-tier probe."""

import pytest

from repro.core import (
    Network,
    NotStabilized,
    Simulator,
    SynchronousDaemon,
    measure_stabilization,
)
from repro.probes import StabilizationProbe
from tests.toys import Countdown, MaxFlood

PATH = Network([(0, 1), (1, 2)])


class TestMeasureStabilization:
    def test_detects_on_initial_configuration(self):
        algo = Countdown(PATH, start=0)
        probe = StabilizationProbe(lambda cfg: True, stop=False)
        Simulator(algo, SynchronousDaemon(), seed=0, probes=[probe]).run(max_steps=1)
        assert probe.hit
        assert probe.step == 0

    def test_records_first_hit_counts(self):
        algo = Countdown(PATH, start=3)
        predicate = lambda cfg: all(s["k"] <= 1 for s in cfg)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        probe, result = measure_stabilization(sim, predicate)
        assert isinstance(probe, StabilizationProbe) and probe.stop
        assert (result.steps, result.stop_reason) == (2, "probe")
        assert sim.probes == []  # detached: later runs go on
        assert probe.hit
        assert probe.step == 2
        assert probe.rounds == 2
        assert probe.moves == 6

    def test_violations_after_hit_for_closed_predicate(self):
        algo = Countdown(PATH, start=4)
        predicate = lambda cfg: all(s["k"] <= 2 for s in cfg)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        probe, _ = measure_stabilization(sim, predicate, run_past=10)
        assert probe.violations_after_hit == 0

    def test_non_closed_predicate_counts_violations(self):
        algo = Countdown(PATH, start=4)
        predicate = lambda cfg: cfg[0]["k"] == 2  # holds once, then breaks
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        probe, _ = measure_stabilization(sim, predicate, run_past=10)
        assert probe.violations_after_hit > 0

    def test_stop_false_probe_never_stops_the_run(self):
        algo = Countdown(PATH, start=5)
        probe = StabilizationProbe(lambda cfg: True, stop=False)
        sim = Simulator(algo, SynchronousDaemon(), seed=0, probes=[probe])
        result = sim.run(max_steps=3)
        assert probe.hit and probe.step == 0
        assert (result.steps, result.stop_reason) == (3, "budget")

    def test_require_hit(self):
        probe = StabilizationProbe(lambda cfg: False, name="never")
        with pytest.raises(NotStabilized):
            probe.require_hit()

    def test_measure_raises_when_budget_exhausted(self):
        algo = Countdown(PATH, start=100)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        with pytest.raises(NotStabilized):
            measure_stabilization(sim, lambda cfg: False, max_steps=5)

    def test_repr(self):
        probe = StabilizationProbe(lambda cfg: True, name="legit")
        assert "legit" in repr(probe)

    def test_named_mask_measures_on_the_fused_loop(self):
        from random import Random

        from repro.core import make_daemon
        from repro.reset import SDR
        from repro.topology import ring
        from repro.unison import Unison

        readings = []
        for mask in (None, "normal"):
            net = ring(9)
            sdr = SDR(Unison(net))
            sim = Simulator(sdr, make_daemon("distributed-random", net),
                            config=sdr.random_configuration(Random(3)), seed=3)
            probe, result = measure_stabilization(
                sim, sdr.is_normal, run_past=5, mask=mask
            )
            assert probe.wants_decode() is (mask is None)
            assert result.steps == probe.step + 5
            readings.append((probe.step, probe.rounds, probe.moves,
                             probe.violations_after_hit, result.stop_reason))
        assert readings[0] == readings[1]

    def test_terminal_predicate(self):
        algo = MaxFlood(PATH)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        probe, result = measure_stabilization(sim, algo.is_terminal)
        assert probe.hit
        assert sim.is_terminal()
