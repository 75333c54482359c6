"""Tests for the registry-driven trial pipeline."""

import pytest

from repro.alliance import dominating_set
from repro.harness import run_network_trial
from repro.harness.runner import scenario_start
from repro.topology import ring


class TestUnisonTrials:
    @pytest.mark.parametrize("scenario", ["random", "gradient", "split", "fake-wave", "faults:2"])
    def test_scenarios_run(self, scenario):
        trial = run_network_trial("unison", ring(6), seed=0, scenario=scenario)
        assert trial.algorithm == "U o SDR"
        assert trial.n == 6
        assert trial.rounds <= 3 * 6

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_network_trial("unison", ring(6), scenario="chaos")

    def test_daemon_by_name(self):
        trial = run_network_trial("unison", ring(6), seed=1, daemon="synchronous")
        assert trial.daemon == "synchronous"


class TestBoulinierTrials:
    @pytest.mark.parametrize("scenario", ["random", "gradient", "split"])
    def test_scenarios_run(self, scenario):
        trial = run_network_trial("boulinier", ring(6), seed=0, scenario=scenario)
        assert trial.algorithm == "boulinier"
        assert trial.extra["period"] > 6

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_network_trial("boulinier", ring(6), scenario="chaos")


class TestFgaTrials:
    @pytest.mark.parametrize("scenario", ["random", "init", "hollow", "faults:2"])
    def test_scenarios_run(self, scenario):
        net = ring(6)
        f, g = dominating_set(net)
        trial = run_network_trial("fga", net, instance=(f, g), seed=0,
                                  scenario=scenario)
        assert trial.extra["alliance_size"] == len(trial.extra["alliance"])
        assert trial.rounds <= 8 * 6 + 4


class TestRegistry:
    @pytest.mark.parametrize("algorithm,scenario", [
        ("boulinier", "faults:2"),     # the baseline declares no corruption
        ("unison", "faults:"),
        ("fga", "faults:two"),
        ("fga", "faults:-1"),
        ("unison", "hollow"),          # another algorithm's scenario
    ])
    def test_undeclared_scenarios_rejected(self, algorithm, scenario):
        with pytest.raises(ValueError, match=f"unknown {algorithm} scenario"):
            scenario_start(algorithm, scenario)

    def test_unknown_params_rejected(self):
        with pytest.raises(TypeError):
            run_network_trial("unison", ring(6), alpha=3)
