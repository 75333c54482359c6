"""Unit tests for the execution engine (composite atomicity, accounting)."""

from random import Random

import pytest

from repro.core import (
    Configuration,
    DaemonError,
    ModelViolation,
    Network,
    NotStabilized,
    ScriptedDaemon,
    Simulator,
    SynchronousDaemon,
    Trace,
    make_daemon,
)
from repro.core.daemon import DistributedRandomDaemon
from repro.harness.runner import ALGORITHMS
from repro.probes import Probe, StopProbe
from repro.topology import ring
from tests.toys import CopyNeighbor, Countdown, MaxFlood

PATH = Network([(0, 1), (1, 2), (2, 3)])
PAIR = Network([(0, 1)])


class TestCompositeAtomicity:
    def test_simultaneous_neighbors_read_prestep_values(self):
        # CopyNeighbor on a pair: simultaneous activation swaps the values.
        algo = CopyNeighbor(PAIR)
        sim = Simulator(algo, ScriptedDaemon([[0, 1]]), seed=0)
        assert sim.cfg.variable("y") == [0, 1]
        sim.step()
        assert sim.cfg.variable("y") == [1, 0]

    def test_sequential_activation_converges_instead(self):
        algo = CopyNeighbor(PAIR)
        sim = Simulator(algo, ScriptedDaemon([[0]]), seed=0)
        sim.step()
        assert sim.cfg.variable("y") == [1, 1]
        assert sim.is_terminal()


class TestStepping:
    def test_step_returns_none_at_terminal(self):
        algo = Countdown(PAIR, start=0)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        assert sim.is_terminal()
        assert sim.step() is None

    def test_move_accounting(self):
        algo = Countdown(PATH, start=2)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        sim.run_to_termination()
        assert sim.move_count == 8
        assert sim.moves_per_process == [2, 2, 2, 2]
        assert sim.moves_per_rule == {"rule_dec": 8}

    def test_round_accounting_synchronous(self):
        # Under the synchronous daemon, each step is one full round.
        algo = Countdown(PATH, start=3)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        result = sim.run_to_termination()
        assert result.rounds == 3
        assert result.steps == 3

    def test_custom_initial_configuration(self):
        algo = MaxFlood(PATH)
        cfg = Configuration([{"x": 9}, {"x": 0}, {"x": 0}, {"x": 0}])
        sim = Simulator(algo, SynchronousDaemon(), config=cfg, seed=0)
        sim.run_to_termination()
        assert sim.cfg.variable("x") == [9, 9, 9, 9]

    def test_config_size_mismatch_rejected(self):
        algo = MaxFlood(PATH)
        with pytest.raises(ValueError, match="states for"):
            Simulator(algo, SynchronousDaemon(), config=Configuration([{"x": 0}]))

    def test_initial_config_copied_not_aliased(self):
        algo = MaxFlood(PATH)
        cfg = algo.initial_configuration()
        sim = Simulator(algo, SynchronousDaemon(), config=cfg, seed=0)
        sim.run_to_termination()
        assert cfg.variable("x") == [0, 1, 2, 3]  # caller's copy untouched


class TestEnabledMaintenance:
    def test_incremental_matches_paranoid(self):
        algo = MaxFlood(PATH)
        sim = Simulator(algo, DistributedRandomDaemon(0.5), seed=5, paranoid=True)
        sim.run_to_termination()  # ModelViolation would fire on divergence
        assert sim.cfg.variable("x") == [3, 3, 3, 3]

    def test_incremental_follows_a_pointer_past_a_dropped_link(self):
        """The drop takes out link (0, 1) while ``ptr_0 = 1``; FGA's guard
        at 0 keeps reading ``col_1`` through that pointer, so when 1 moves
        the incremental enabled set must re-evaluate 0 even though they
        are no longer neighbors."""
        runs = {}
        for backend in ("dict", "kernel"):
            net = ring(4)
            algo = ALGORITHMS["fga"].build(net)
            sim = Simulator(
                algo, make_daemon("central", net),
                config=algo.random_configuration(Random(309)), seed=309,
                backend=backend, churn="at=19,drop_edge=1",
                paranoid=backend == "dict",  # a stale entry raises ModelViolation
            )
            result = sim.run(max_steps=300)
            runs[backend] = (result.steps, result.moves, sim.cfg.states())
        assert sim.churn.fired == 1 and not net.are_neighbors(0, 1)
        assert runs["dict"] == runs["kernel"]

    def test_enabled_map_is_current(self):
        algo = MaxFlood(PATH)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        assert set(sim.enabled) == {0, 1, 2}
        sim.run_to_termination()
        assert sim.enabled == {}


class TestStrictChecks:
    def test_daemon_selecting_disabled_process_rejected(self):
        algo = Countdown(PAIR, start=1)

        class BadDaemon(SynchronousDaemon):
            def select(self, cfg, enabled, rng, step):
                return {0: "rule_dec", 1: "rule_dec", }  # fine

        class WorseDaemon(SynchronousDaemon):
            def select(self, cfg, enabled, rng, step):
                return {7: "rule_dec"}

        Simulator(algo, BadDaemon(), seed=0).step()
        sim = Simulator(algo, WorseDaemon(), seed=0)
        with pytest.raises(DaemonError, match="disabled process"):
            sim.step()

    def test_daemon_empty_selection_rejected(self):
        algo = Countdown(PAIR, start=1)

        class LazyDaemon(SynchronousDaemon):
            def select(self, cfg, enabled, rng, step):
                return {}

        sim = Simulator(algo, LazyDaemon(), seed=0)
        with pytest.raises(DaemonError, match="empty"):
            sim.step()

    def test_mutual_exclusion_violation_detected(self):
        class TwoRules(Countdown):
            mutually_exclusive_rules = True

            def rule_names(self):
                return ("rule_dec", "rule_also")

            def guard(self, rule, cfg, u):
                return cfg[u]["k"] > 0  # both enabled together: violation

        algo = TwoRules(PAIR, start=1)
        with pytest.raises(ModelViolation, match="mutual exclusion"):
            Simulator(algo, SynchronousDaemon(), seed=0)

    def test_seed_and_rng_exclusive(self):
        from random import Random

        algo = Countdown(PAIR, start=1)
        with pytest.raises(ValueError):
            Simulator(algo, SynchronousDaemon(), seed=1, rng=Random(1))


class TestRunLoops:
    def test_run_stops_on_predicate(self):
        algo = Countdown(PATH, start=5)
        sim = Simulator(algo, SynchronousDaemon(), seed=0,
                        probes=[StopProbe(lambda cfg: cfg[0]["k"] == 2)])
        result = sim.run()
        assert result.stop_reason == "probe"
        assert sim.cfg[0]["k"] == 2

    def test_run_predicate_checked_on_initial_config(self):
        algo = Countdown(PATH, start=5)
        sim = Simulator(algo, SynchronousDaemon(), seed=0,
                        probes=[StopProbe(lambda cfg: True)])
        result = sim.run()
        assert result.steps == 0
        assert result.stop_reason == "probe"

    def test_run_budget(self):
        algo = Countdown(PATH, start=100)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        result = sim.run(max_steps=3)
        assert result.steps == 3
        assert result.stop_reason == "budget"

    def test_run_to_termination_raises_on_budget(self):
        algo = Countdown(PATH, start=100)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        with pytest.raises(NotStabilized):
            sim.run_to_termination(max_steps=3)

    def test_result_repr(self):
        algo = Countdown(PAIR, start=1)
        sim = Simulator(algo, SynchronousDaemon(), seed=0)
        result = sim.run_to_termination()
        assert "terminal=True" in repr(result)


class TestObserversAndTrace:
    def test_trace_records_steps_and_configs(self):
        algo = Countdown(PAIR, start=2)
        trace = Trace(record_configurations=True)
        sim = Simulator(algo, SynchronousDaemon(), seed=0, probes=[trace])
        sim.run_to_termination()
        assert len(trace) == 2
        assert len(trace.configurations) == 3
        assert trace.configurations[0].variable("k") == [2, 2]
        assert trace.configurations[-1].variable("k") == [0, 0]

    def test_observer_called_each_step(self):
        calls = []

        class Observer(Probe):
            def on_step(self, sim, record):
                calls.append(record.index)

        algo = Countdown(PAIR, start=3)
        sim = Simulator(algo, SynchronousDaemon(), seed=0, probes=[Observer()])
        sim.run_to_termination()
        assert calls == [0, 1, 2]

    def test_on_start_hook(self):
        seen = []

        class Obs(Probe):
            def on_start(self, sim):
                seen.append("start")

            def on_step(self, sim, record):
                seen.append(record.index)

        algo = Countdown(PAIR, start=1)
        sim = Simulator(algo, SynchronousDaemon(), seed=0, probes=[Obs()])
        sim.run_to_termination()
        assert seen == ["start", 0]
