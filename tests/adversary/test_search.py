"""Search strategies and their daemon adapter."""

from random import Random

import pytest

from repro.adversary.search import (
    STRATEGY_KINDS,
    AdversarialDaemon,
    BeamAdversary,
    GreedyAdversary,
    ScoredStrategy,
    SearchDaemon,
    delay_strategy,
    known_strategy,
    make_search_daemon,
    successor,
)
from repro.core.daemon import DAEMON_KINDS, make_daemon
from repro.core.exceptions import DaemonError
from repro.core.simulator import Simulator
from repro.faults.scenarios import clock_split
from repro.harness.runner import run_network_trial
from repro.reset import SDR
from repro.topology import by_name, ring
from repro.unison import Unison


class TestAdversarialTieBreak:
    """Satellite regression: one canonical ``(score, -u, rule)`` key."""

    def test_constant_score_prefers_lowest_process(self):
        daemon = AdversarialDaemon(lambda cfg, u, rule, step: 1.0)
        enabled = {4: ("rule_a",), 0: ("rule_a",), 2: ("rule_a",)}
        assert daemon.select(None, enabled, Random(0), 0) == {0: "rule_a"}

    def test_rule_tie_breaks_lexicographically_greatest(self):
        daemon = AdversarialDaemon(lambda cfg, u, rule, step: 1.0)
        enabled = {3: ("rule_a", "rule_c", "rule_b")}
        assert daemon.select(None, enabled, Random(0), 0) == {3: "rule_c"}

    def test_score_dominates_process_order(self):
        daemon = AdversarialDaemon(
            lambda cfg, u, rule, step: 5.0 if u == 7 else 1.0
        )
        enabled = {0: ("rule_a",), 7: ("rule_a",)}
        assert daemon.select(None, enabled, Random(0), 0) == {7: "rule_a"}

    def test_one_canonical_key_not_per_process_max(self):
        # The old implementation maximized per process then across
        # processes with inconsistent tuples; the canonical key must
        # pick (score, -u, rule) across ALL (u, rule) pairs at once.
        daemon = AdversarialDaemon(
            lambda cfg, u, rule, step: {"x": 2.0, "y": 2.0}[rule]
        )
        enabled = {1: ("x", "y"), 0: ("y", "x")}
        assert daemon.select(None, enabled, Random(0), 0) == {0: "y"}


class TestDelayStrategy:
    def test_input_moves_first(self):
        assert delay_strategy(None, 0, "rule_U", 0) == 3.0
        assert delay_strategy(None, 0, "rule_RB", 0) == 2.0
        assert delay_strategy(None, 0, "rule_R", 0) == 2.0
        assert delay_strategy(None, 0, "rule_RF", 0) == 1.0
        assert delay_strategy(None, 0, "rule_C", 0) == 0.0


class TestStrategyParsing:
    def test_kinds(self):
        assert set(STRATEGY_KINDS) == {"greedy", "beam", "delay"}

    def test_default_is_greedy(self):
        daemon = make_search_daemon()
        assert isinstance(daemon.strategy, GreedyAdversary)
        assert daemon.spec == "adversarial:greedy"

    @pytest.mark.parametrize("spec,width,horizon,branch", [
        ("beam", 3, 3, 6),
        ("beam-2", 2, 3, 6),
        ("beam-2x5", 2, 5, 6),
        ("beam-2x5x4", 2, 5, 4),
    ])
    def test_beam_specs(self, spec, width, horizon, branch):
        strategy = make_search_daemon(spec).strategy
        assert isinstance(strategy, BeamAdversary)
        assert (strategy.width, strategy.horizon, strategy.branch) == (
            width, horizon, branch)

    def test_delay_is_scored_only(self):
        strategy = make_search_daemon("delay").strategy
        assert isinstance(strategy, ScoredStrategy)
        assert strategy.column_tier is False

    @pytest.mark.parametrize("bad", [
        "nope", "beam-", "beam-1x2x3x4", "beam-ax2", "beam-0", "beam-2x0",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(DaemonError):
            make_search_daemon(bad)
        assert not known_strategy(bad)

    def test_known_strategy(self):
        assert known_strategy(None)
        assert known_strategy("greedy")
        assert known_strategy("beam-2x2")
        assert known_strategy("delay")


class TestDaemonRegistry:
    """Schedule search has one spelling, ``adversary=``: the zoo has no
    search kind."""

    def test_adversarial_not_a_zoo_kind(self):
        assert not any(kind.startswith("adversarial") for kind in DAEMON_KINDS)

    @pytest.mark.parametrize("kind", [
        "adversarial", "adversarial:greedy", "adversarial:beam-2x2",
    ])
    def test_make_daemon_refuses_search_kinds(self, kind):
        with pytest.raises(DaemonError, match="unknown daemon"):
            make_daemon(kind)

    def test_zoo_kind_rejects_argument(self):
        with pytest.raises(DaemonError):
            make_daemon("central:greedy")


class TestRolloutsLeaveTheRuntime:
    """Searches roll out on their own columns: the runtime is only read."""

    @pytest.mark.parametrize("spec", ["beam-1x1x1", "beam-2x2"])
    def test_choose_columns_keeps_buffers_and_enabled_map(self, spec):
        sdr = SDR(Unison(ring(8)))
        sim = Simulator(sdr, make_daemon("synchronous"),
                        config=clock_split(sdr), seed=0, backend="kernel")
        sim.run(max_steps=2)
        kernel = sim._kernel
        read, write = kernel.read, kernel.write
        before = [{name: col.copy() for name, col in buf.items()}
                  for buf in (read, write)]
        enabled = kernel.enabled_map()
        assert enabled
        strategy = make_search_daemon(spec).strategy
        selection = strategy.choose_columns(kernel, enabled, 2)
        assert selection
        assert kernel.read is read and kernel.write is write
        for buf, copy in zip((read, write), before):
            for name, col in copy.items():
                assert (buf[name] == col).all()
        assert kernel.enabled_map() is enabled

    def test_one_evaluation_per_candidate_successor(self, monkeypatch):
        """The stop test, the potential and the beam's enabled maps read
        one ``evaluate`` of each successor; ``guard_masks`` never runs."""
        from repro.adversary import search
        from repro.ir.kernelc import IRKernelProgram

        made, evaluated, guarded = [], [], []
        make, evaluate = search.successor, IRKernelProgram.evaluate
        guard_masks = IRKernelProgram.guard_masks

        def counted_successor(program, cols, selection):
            made.append(make(program, cols, selection))  # alive: ids unique
            return made[-1]

        def counted_evaluate(self, cols, memo=None):
            evaluated.append(id(cols))
            return evaluate(self, cols, memo)

        def counted_guard_masks(self, cols):
            guarded.append(id(cols))
            return guard_masks(self, cols)

        monkeypatch.setattr(search, "successor", counted_successor)
        monkeypatch.setattr(IRKernelProgram, "evaluate", counted_evaluate)
        monkeypatch.setattr(IRKernelProgram, "guard_masks",
                            counted_guard_masks)
        trial = run_network_trial("unison", by_name("ring", 12, seed=4),
                                  seed=0, scenario="split",
                                  adversary="beam-2x2")
        assert trial.extra["adversary"]["replay"]["ok"]
        assert made
        counts = {id(nxt): 0 for nxt in made}
        for key in evaluated:
            if key in counts:
                counts[key] += 1
        assert set(counts.values()) == {1}
        assert not counts.keys() & set(guarded)

    def test_successor_is_pure(self):
        sdr = SDR(Unison(ring(4)))
        sim = Simulator(sdr, make_daemon("synchronous"), seed=0,
                        backend="kernel")
        kernel = sim._kernel
        before = {name: col.copy() for name, col in kernel.read.items()}
        nxt = successor(kernel.program, kernel.read,
                        {u: "rule_U" for u in range(4)})
        assert nxt["c"].tolist() == [1, 1, 1, 1]
        for name, col in before.items():
            assert (kernel.read[name] == col).all()


class TestSearchDaemonAdapter:
    def test_logs_every_selection_and_resets(self):
        net = ring(6)
        sdr = SDR(Unison(net))
        daemon = make_search_daemon("greedy")
        sim = Simulator(sdr, daemon, seed=0, backend="kernel")
        sim.run(max_steps=5)
        assert len(daemon.log) == 5
        assert all(sel for sel in daemon.log)
        daemon.reset()
        assert daemon.log == []

    @pytest.mark.parametrize("spec", ["greedy", "beam-2x2"])
    def test_column_tier_searches_raise_on_dict_backend(self, spec):
        # No silent stand-in schedule under the same trial key.
        net = by_name("ring", 8, seed=4)
        with pytest.raises(DaemonError, match="requires the kernel backend"):
            run_network_trial("unison", net, seed=0, scenario="split",
                              daemon=make_search_daemon(spec), backend="dict")
        with pytest.raises(ValueError, match="requires the kernel backend"):
            run_network_trial("unison", net, seed=0, scenario="split",
                              adversary=spec, backend="dict")

    def test_delay_trials_equal_on_both_backends(self):
        trials = [
            run_network_trial("unison", by_name("ring", 8, seed=4), seed=0,
                              scenario="split",
                              daemon=make_search_daemon("delay"),
                              backend=backend)
            for backend in ("kernel", "dict")
        ]
        kernel, dict_ = [
            (t.moves, t.rounds, t.steps, t.metrics, t.extra) for t in trials
        ]
        assert kernel == dict_
        assert kernel[:3] == (37, 7, 37)

    def test_searches_are_seed_independent(self):
        net = ring(6)
        results = []
        for seed in (0, 1):
            daemon = make_search_daemon("beam-2x2")
            sdr = SDR(Unison(net))
            sim = Simulator(sdr, daemon, seed=seed, backend="kernel")
            sim.run(max_steps=6)
            results.append(list(daemon.log))
        assert results[0] == results[1]

    def test_beam_first_depth_equals_greedy_when_width_one(self):
        # A 1x1 beam IS greedy: identical schedules step for step.
        net = ring(6)
        logs = []
        for spec in ("greedy", "beam-1x1"):
            daemon = make_search_daemon(spec)
            sim = Simulator(SDR(Unison(net)), daemon, seed=0,
                            backend="kernel")
            sim.run(max_steps=6)
            logs.append(list(daemon.log))
        assert logs[0] == logs[1]
