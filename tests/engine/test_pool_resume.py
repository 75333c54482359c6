"""Executor and resume semantics: parallel == serial, partial stores heal."""

import pytest

from repro.engine import (
    Campaign,
    ResultStore,
    execute_trial,
    missing_specs,
    run_campaign,
    run_specs,
)

#: Small but non-trivial grid: 2 topologies x 2 sizes x 2 trials = 8 trials.
CAMPAIGN = Campaign(
    "engine-test", seed=7, algorithms=("unison",),
    topologies=("ring", "random"), sizes=(5, 7),
    scenarios=("random",), trials=2,
)


class TestExecuteTrial:
    def test_record_shape(self):
        spec = CAMPAIGN.specs()[0]
        record = execute_trial(spec, CAMPAIGN.seed, CAMPAIGN.name)
        assert record["key"] == spec.key()
        assert record["campaign_seed"] == CAMPAIGN.seed
        assert record["seed"] == CAMPAIGN.seed_for(spec)
        assert record["spec"] == spec.to_dict()
        assert record["result"]["moves"] >= 0
        assert record["result"]["n"] == spec.n

    def test_repeated_execution_is_identical(self):
        spec = CAMPAIGN.specs()[-1]
        assert execute_trial(spec, 7) == execute_trial(spec, 7)

    @pytest.mark.parametrize("params", [{}, {"faults": "at=5,k=2"}])
    def test_dict_fallback_record_is_byte_identical(self, params):
        """A supervised sweep that steps a trial down to the dict tier
        lands the store line the kernel tier would have written."""
        from dataclasses import replace

        from repro.engine.pool import _dict_fallback
        from repro.engine.store import _dump_line

        spec = replace(CAMPAIGN.specs()[-1], params=params)
        fallback = _dict_fallback(spec)
        assert dict(fallback.params)["backend"] == "dict"
        assert _dump_line(execute_trial(fallback, 7, CAMPAIGN.name)) == (
            _dump_line(execute_trial(spec, 7, CAMPAIGN.name)))


class TestParallelEqualsSerial:
    def test_two_workers_match_serial_records_exactly(self):
        serial = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed, workers=0)
        parallel = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed, workers=2)
        assert serial == parallel  # same records, same (grid) order

    def test_records_are_independent_of_submission_order(self):
        specs = CAMPAIGN.specs()
        forward = run_specs(specs, CAMPAIGN.seed, workers=0)
        backward = run_specs(list(reversed(specs)), CAMPAIGN.seed, workers=0)
        assert sorted(forward, key=lambda r: r["key"]) == \
            sorted(backward, key=lambda r: r["key"])

    def test_progress_callback_sees_every_trial(self):
        seen = []
        run_specs(
            CAMPAIGN.specs(), CAMPAIGN.seed, workers=0,
            progress=lambda done, total, record: seen.append((done, total)),
        )
        assert seen == [(i, CAMPAIGN.size) for i in range(1, CAMPAIGN.size + 1)]


class TestResume:
    def test_full_run_then_resume_is_a_no_op(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        first = run_campaign(CAMPAIGN, store=store, workers=0)
        assert (first.ran, first.skipped) == (8, 0)
        again = run_campaign(CAMPAIGN, store=store, workers=0, resume=True)
        assert (again.ran, again.skipped) == (0, 8)
        assert again.records == first.records

    def test_resume_runs_only_missing_trials(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        full = run_campaign(CAMPAIGN, store=store, workers=0)

        # Truncate the store to 3 of the 8 records, as if the run was killed.
        store.rewrite(full.records[:3])
        assert len(missing_specs(CAMPAIGN, store)) == 5

        resumed = run_campaign(CAMPAIGN, store=store, workers=0, resume=True)
        assert (resumed.ran, resumed.skipped) == (5, 3)
        assert resumed.records == full.records
        assert store.keys() == CAMPAIGN.keys()

    def test_resume_ignores_records_from_other_campaign_seeds(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(CAMPAIGN, store=store, workers=0)

        other = Campaign(
            CAMPAIGN.name, seed=CAMPAIGN.seed + 1,
            algorithms=CAMPAIGN.algorithms, topologies=CAMPAIGN.topologies,
            sizes=CAMPAIGN.sizes, scenarios=CAMPAIGN.scenarios,
            trials=CAMPAIGN.trials,
        )
        # Same grid keys, different master seed: nothing may be reused.
        assert len(missing_specs(other, store)) == other.size

    def test_without_resume_flag_everything_reruns(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(CAMPAIGN, store=store, workers=0)
        rerun = run_campaign(CAMPAIGN, store=store, workers=0, resume=False)
        assert rerun.ran == CAMPAIGN.size


class TestStoreEquivalenceAcrossWorkerCounts:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_store_contents_equal_after_grid_order_rewrite(self, tmp_path, workers):
        store = ResultStore(tmp_path / f"w{workers}.jsonl")
        outcome = run_campaign(CAMPAIGN, store=store, workers=workers)
        store.rewrite(outcome.records)
        # Compare against a fresh in-memory serial run: byte-level identity.
        reference = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed,
                              campaign=CAMPAIGN.name, workers=0)
        assert store.load(strict=True) == reference
