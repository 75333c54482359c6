"""Campaign grids and trial descriptors."""

import pytest

from repro.engine import Campaign, TrialSpec


class TestTrialSpec:
    def test_key_is_canonical_and_unique_per_field(self):
        a = TrialSpec("unison", "ring", 8, "random", "central", 0)
        b = TrialSpec("unison", "ring", 8, "random", "central", 1)
        assert a.key() != b.key()
        assert a.key() == TrialSpec("unison", "ring", 8, "random", "central", 0).key()

    def test_params_are_sorted_into_the_key(self):
        a = TrialSpec("unison", "ring", 8, params=(("b", 2), ("a", 1)))
        b = TrialSpec("unison", "ring", 8, params=(("a", 1), ("b", 2)))
        assert a.key() == b.key()
        assert "params=a:1,b:2" in a.key()

    def test_params_accept_mappings(self):
        spec = TrialSpec("unison", "ring", 8, params={"period": 12})
        assert spec.kwargs() == {"period": 12}

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError):
            TrialSpec("unison", "ring", 8, params={"bad": [1, 2]})

    def test_dict_round_trip(self):
        spec = TrialSpec("fga", "random", 12, "hollow", "synchronous", 4,
                         topology_seed=3, params={"instance": "dominating-set"})
        assert TrialSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_drops_execution_options(self):
        """A record renders the measured params only, as the key does:
        the engine that ran a trial never reaches its record."""
        from repro.engine.campaign import EXECUTION_OPTIONS

        assert EXECUTION_OPTIONS == {"backend"}
        measured = TrialSpec("unison", "ring", 8, params={"period": 12})
        pinned = TrialSpec("unison", "ring", 8,
                           params={"period": 12, "backend": "dict"})
        assert pinned.to_dict() == measured.to_dict()
        assert pinned.to_dict()["params"] == {"period": 12}
        assert TrialSpec.from_dict(pinned.to_dict()) == measured
        assert pinned.key() == measured.key()

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = TrialSpec("unison", "ring", 8, params={"period": 12})
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, spec}) == 1


class TestCampaign:
    def test_grid_expansion_size(self):
        campaign = Campaign(
            "grid", seed=0, algorithms=("unison", "boulinier"),
            topologies=("ring", "random"), sizes=(6, 8, 10),
            scenarios=("random", "gradient"), daemons=("distributed-random",),
            trials=4,
        )
        specs = campaign.specs()
        assert campaign.size == 2 * 2 * 3 * 2 * 1 * 4 == len(specs)
        assert len({s.key() for s in specs}) == len(specs)

    def test_scalar_axes_are_promoted(self):
        campaign = Campaign("scalar", seed=0, algorithms="unison",
                            topologies="ring", sizes=8)
        assert campaign.algorithms == ("unison",)
        assert campaign.sizes == (8,)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Campaign("bad", seed=0, algorithms=("nope",))

    @pytest.mark.parametrize("algorithms,scenario", [
        (("unison",), "bogus"),
        (("unison", "boulinier"), "faults:2"),  # boulinier declares no faults:k
        (("fga",), "faults:x"),                 # malformed faults:k
        (("fga",), "gradient"),                 # another algorithm's scenario
    ])
    def test_undeclared_scenario_rejected(self, algorithms, scenario):
        with pytest.raises(ValueError, match="scenario"):
            Campaign("bad", seed=0, algorithms=algorithms, scenarios=(scenario,))

    def test_declared_scenarios_accepted(self):
        campaign = Campaign("ok", seed=0, algorithms=("unison", "fga"),
                            scenarios=("random", "faults:3"))
        assert campaign.size == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Campaign("bad", seed=0, sizes=())

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Campaign("bad", seed=0, trials=0)

    @pytest.mark.parametrize("algorithms,params,declared", [
        (("unison",), {"bogus": 1}, "['period']"),
        (("fga",), {"period": 7}, "['instance']"),
        (("unison", "boulinier"), {"alpha": 3}, "['period']"),  # boulinier's
    ])
    def test_undeclared_build_param_rejected(self, algorithms, params,
                                             declared):
        with pytest.raises(ValueError, match="takes no param") as err:
            Campaign("bad", seed=0, algorithms=algorithms, params=params)
        assert f"declares {declared}" in str(err.value)

    def test_declared_build_params_and_run_options_accepted(self):
        campaign = Campaign("ok", seed=0, algorithms=("unison", "boulinier"),
                            params={"period": 20, "max_steps": 500,
                                    "backend": "dict"})
        assert campaign.size == 2

    def test_campaign_params_reach_every_spec(self):
        campaign = Campaign("params", seed=0, sizes=(6,), params={"period": 20})
        assert all(s.kwargs() == {"period": 20} for s in campaign.iter_specs())
