"""The descriptor-driven ``run_trial`` entry point."""

import pytest

from repro.engine.campaign import TrialSpec
from repro.harness.runner import run_network_trial, run_trial
from repro.topology import by_name


class TestRunTrial:
    def test_unison_matches_direct_runner_call(self):
        spec = TrialSpec("unison", "ring", 6, "gradient", "distributed-random",
                         topology_seed=2)
        direct = run_network_trial(
            "unison", by_name("ring", 6, seed=2), seed=17, scenario="gradient",
            daemon="distributed-random",
        )
        assert run_trial(spec, seed=17) == direct

    def test_boulinier_dispatch_with_params(self):
        spec = TrialSpec("boulinier", "ring", 6, "split", params={"period": 40})
        trial = run_trial(spec, seed=3)
        assert trial.algorithm == "boulinier"
        assert trial.extra["period"] == 40
        direct = run_network_trial(
            "boulinier", by_name("ring", 6, seed=0), seed=3, scenario="split",
            period=40, daemon="distributed-random",
        )
        assert trial == direct

    def test_fga_dispatch_resolves_named_instance(self):
        spec = TrialSpec("fga", "random", 8, "random",
                         params={"instance": "dominating-set"})
        trial = run_trial(spec, seed=5)
        assert trial.algorithm == "FGA o SDR"
        assert trial.extra["alliance_size"] >= 1

        from repro.alliance.functions import dominating_set
        net = by_name("random", 8, seed=0)
        f, g = dominating_set(net)
        assert trial == run_network_trial("fga", net, instance=(f, g), seed=5,
                                          scenario="random",
                                          daemon="distributed-random")

    def test_default_seed_is_the_replicate_index(self):
        spec = TrialSpec("unison", "ring", 5, trial=9)
        assert run_trial(spec).seed == 9

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown trial algorithm"):
            run_trial(TrialSpec("paxos", "ring", 5))

    @pytest.mark.parametrize("tier", ["auto", "decode"])
    def test_probe_is_not_an_execution_option(self, tier):
        """The measurement tier is no trial option: a ``probe`` param is
        an ordinary build param, part of the key, and no algorithm takes
        it, serial or batched."""
        from repro.harness.runner import run_trial_batch

        specs = [TrialSpec("unison", "ring", 12, "gradient", "central",
                           trial=t, params={"probe": tier})
                 for t in range(2)]
        assert f"params=probe:{tier}" in specs[0].key()
        with pytest.raises(TypeError, match="'probe'"):
            run_trial(specs[0], seed=101)
        with pytest.raises(TypeError, match="'probe'"):
            run_trial_batch(specs, [101, 102])

    @pytest.mark.parametrize("algorithm, scenario", [
        ("unison", "gradient"), ("boulinier", "split"), ("fga", "random"),
    ])
    def test_decode_tier_does_not_change_the_record(self, algorithm,
                                                     scenario):
        """``backend=dict`` runs another engine and measures on the
        decoded configuration; the record stays the kernel's."""
        plain = TrialSpec(algorithm, "ring", 12, scenario, "central")
        decoded = TrialSpec(algorithm, "ring", 12, scenario, "central",
                            params={"backend": "dict"})
        assert run_trial(decoded, seed=101) == run_trial(plain, seed=101)

    def test_batched_cell_matches_serial_decode_runs(self):
        """A batch measures on the vector tier; each lane's record equals
        the serial dict-engine run, measured on the decode tier."""
        from repro.harness.runner import run_trial_batch

        seeds = [101, 102, 103]
        specs = [TrialSpec("unison", "ring", 12, "gradient", "central",
                           trial=t) for t in range(3)]
        batched = run_trial_batch(specs, seeds)
        for spec, seed, trial in zip(specs, seeds, batched):
            decoded = TrialSpec(spec.algorithm, spec.topology, spec.n,
                                spec.scenario, spec.daemon, trial=spec.trial,
                                params={"backend": "dict"})
            assert run_trial(decoded, seed) == trial

    @pytest.mark.parametrize("algorithm, predicate", [
        ("unison", "normal"), ("boulinier", "legitimate"),
    ])
    def test_budget_starved_trial_names_the_declared_predicate(
            self, algorithm, predicate):
        """Serial and batched trials fail with the same message, naming
        the predicate the algorithm's rule set declares."""
        from repro.core.exceptions import NotStabilized
        from repro.harness.runner import run_trial_batch

        specs = [TrialSpec(algorithm, "ring", 8, "random", trial=t,
                           params={"max_steps": 1}) for t in range(2)]
        want = f"predicate '{predicate}' not reached within 1 steps"
        with pytest.raises(NotStabilized, match=want):
            run_trial(specs[0], seed=0)
        with pytest.raises(NotStabilized, match=want):
            run_trial_batch(specs, [0, 1])
