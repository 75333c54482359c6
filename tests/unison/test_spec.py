"""Unit tests for the unison specification checkers."""

from repro.core import Configuration, Network, ScriptedDaemon, Simulator, Trace
from repro.unison import (
    SafetyMonitor,
    Unison,
    circularly_close,
    increment_counts,
    liveness_holds,
    safety_holds,
    safety_violations,
)

PATH = Network([(0, 1), (1, 2)])


def clocks(*values):
    return Configuration([{"c": v} for v in values])


class TestCircularlyClose:
    def test_wraparound(self):
        assert circularly_close(0, 4, 5)
        assert circularly_close(4, 0, 5)
        assert not circularly_close(0, 2, 5)

    def test_equal(self):
        assert circularly_close(3, 3, 5)


class TestSafetyChecks:
    def test_violations_lists_bad_edges(self):
        cfg = clocks(0, 2, 2)
        assert safety_violations(PATH, cfg, 5) == [(0, 1)]
        assert not safety_holds(PATH, cfg, 5)

    def test_all_good(self):
        assert safety_holds(PATH, clocks(1, 2, 2), 5)
        assert safety_violations(PATH, clocks(1, 2, 2), 5) == []


class TestSafetyMonitor:
    def test_counts_unsafe_configurations(self):
        net = PATH
        u = Unison(net, period=5)
        cfg = clocks(0, 1, 2)
        monitor = SafetyMonitor(net, 5)
        sim = Simulator(
            u, ScriptedDaemon([[0], [0]]), config=cfg, seed=0, probes=[monitor]
        )
        sim.step()  # 0 ticks to 1: still safe
        sim.step()  # 0 ticks to 2: edge (0,1) = (2,1) safe; stays safe
        assert monitor.violations == 0
        assert monitor.first_safe_step == 0

    def test_detects_unsafe_start(self):
        monitor = SafetyMonitor(PATH, 5)
        u = Unison(PATH, period=5)
        cfg = clocks(0, 2, 2)
        Simulator(u, ScriptedDaemon([[2]]), config=cfg, seed=0, probes=[monitor])
        assert monitor.first_safe_step is None
        assert monitor.violations == 1


class TestLiveness:
    def test_increment_counts_and_liveness(self):
        u = Unison(PATH, period=5)
        trace = Trace()
        sim = Simulator(u, ScriptedDaemon([[0, 1, 2], [0, 1, 2]]), seed=0, probes=[trace])
        sim.step()
        sim.step()
        assert increment_counts(trace) == {0: 2, 1: 2, 2: 2}
        assert liveness_holds(trace, 3, min_increments=2)
        assert not liveness_holds(trace, 3, min_increments=3)

    def test_liveness_fails_for_starved_process(self):
        u = Unison(PATH, period=5)
        trace = Trace()
        sim = Simulator(u, ScriptedDaemon([[0]]), seed=0, probes=[trace])
        sim.step()
        assert not liveness_holds(trace, 3, min_increments=1)
