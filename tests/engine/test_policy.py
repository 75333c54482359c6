"""The supervised executor: crashes, hangs, poison trials, quarantine.

``FailurePolicy`` switches ``run_specs``/``run_campaign`` to supervised,
long-lived worker processes that are replaced after a crash, a hang or
a failing unit.  These tests drive
it with the deterministic chaos hook (``REPRO_CHAOS`` — real SIGKILLs
and real hangs in real worker processes) and with genuinely poisonous
specs, and assert the graceful-degradation contract:

* the grid always completes — siblings of a failing replicate land
  exactly once, byte-identical to an unsupervised run;
* transient failures are retried (and recovered runs carry no
  failures);
* persistent failures walk the batch → serial → dict ladder and end in
  quarantine: a ``trial_failed`` event with ``reason`` and ``retries``,
  an ``outcome.failures`` entry, and the landed records excluding the
  quarantined keys;
* deterministic failures (budget exhaustion) quarantine immediately.
"""

import json

import pytest

from repro.engine import Campaign, FailurePolicy, run_campaign, run_specs
from repro.telemetry.events import MemoryEventSink

CAMPAIGN = Campaign(
    "policy-test", seed=7, algorithms=("unison", "fga"),
    topologies=("ring",), sizes=(6,), scenarios=("random",),
    daemons=("central",), trials=2,
)

POLICY = FailurePolicy(trial_timeout=60, max_retries=2, backoff=0.05)


def record_bytes(records):
    return json.dumps(records, sort_keys=True, default=str)


def chaos(monkeypatch, tmp_path, directives):
    monkeypatch.setenv("REPRO_CHAOS", directives)
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))
    (tmp_path / "chaos").mkdir(exist_ok=True)


class TestPolicyValidation:
    def test_rejects_nonpositive_timeout_and_negative_retries(self):
        with pytest.raises(ValueError):
            FailurePolicy(trial_timeout=0)
        with pytest.raises(ValueError):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FailurePolicy(backoff=-0.1)


class TestSupervisedHappyPath:
    def test_records_identical_to_unsupervised(self):
        plain = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed)
        failures = []
        supervised = run_specs(
            CAMPAIGN.specs(), CAMPAIGN.seed, workers=2,
            policy=POLICY, failures=failures,
        )
        assert failures == []
        assert record_bytes(supervised) == record_bytes(plain)


class TestRetriesRecoverTransientFailures:
    def test_single_crash_is_retried_and_lands(self, monkeypatch, tmp_path):
        chaos(monkeypatch, tmp_path, "crash:algorithm=unison:1")
        plain = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed)
        failures = []
        supervised = run_specs(
            CAMPAIGN.specs(), CAMPAIGN.seed, workers=2,
            policy=POLICY, failures=failures,
        )
        assert failures == []
        assert record_bytes(supervised) == record_bytes(plain)

    def test_hung_worker_hits_deadline_then_lands(self, monkeypatch, tmp_path):
        chaos(monkeypatch, tmp_path, "timeout:algorithm=fga:1")
        plain = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed)
        failures = []
        supervised = run_specs(
            CAMPAIGN.specs(), CAMPAIGN.seed, workers=2,
            policy=FailurePolicy(trial_timeout=1.5, max_retries=1,
                                 backoff=0.05),
            failures=failures,
        )
        assert failures == []
        assert record_bytes(supervised) == record_bytes(plain)


class TestQuarantine:
    def test_persistent_crash_quarantines_and_siblings_land(
        self, monkeypatch, tmp_path
    ):
        # Every rung crashes (no once-only marker): the batch, its single
        # trials and their dict re-runs, so each trial quarantines.
        chaos(monkeypatch, tmp_path, "crash:algorithm=unison")
        sink = MemoryEventSink()
        outcome = run_campaign(
            CAMPAIGN, workers=2, events=sink,
            policy=FailurePolicy(trial_timeout=60, max_retries=0,
                                 backoff=0.05),
        )
        assert len(outcome.failures) == 2
        for failure in outcome.failures:
            assert "algorithm=unison" in failure["key"]
            assert failure["reason"] == "crash"
            assert failure["retries"] == 0
        landed = {r["spec"]["algorithm"] for r in outcome.records}
        assert landed == {"fga"}
        assert len(outcome.records) == 2
        failed_events = [e for e in sink.events if e["event"] == "trial_failed"]
        assert len(failed_events) == 2
        for event in failed_events:
            assert event["reason"] == "crash"
            assert event["retries"] == 0
            assert "algorithm=unison" in event["key"]
        # The campaign still finishes cleanly.
        assert sink.events[-1]["event"] == "campaign_finished"

    def test_poison_spec_quarantines_with_reason_error(self):
        from repro.engine.campaign import TrialSpec

        good = CAMPAIGN.specs()[0]
        poison = TrialSpec(
            algorithm="unison", topology="ring", n=6,
            scenario="no-such-scenario", daemon="central",
            trial=0, params=good.params,
        )
        failures = []
        records = run_specs(
            [good, poison], CAMPAIGN.seed, workers=2,
            policy=FailurePolicy(trial_timeout=60, max_retries=1,
                                 backoff=0.05),
            failures=failures,
        )
        assert len(records) == 1 and records[0]["key"] == good.key()
        assert len(failures) == 1
        assert failures[0]["key"] == poison.key()
        assert failures[0]["reason"] == "error"
        assert failures[0]["retries"] >= 1

    def test_budget_exhaustion_quarantines_immediately(self):
        tight = Campaign(
            "policy-budget", seed=7, algorithms=("unison",),
            topologies=("ring",), sizes=(16,), scenarios=("gradient",),
            daemons=("central",), trials=1, params=(("max_steps", 5),),
        )
        failures = []
        records = run_specs(
            tight.specs(), tight.seed, workers=2,
            policy=POLICY, failures=failures,
        )
        assert records == []
        assert len(failures) == 1
        assert failures[0]["reason"] == "budget"
        assert failures[0]["retries"] == 0  # deterministic: never retried


class TestDegradationLadder:
    def test_batch_crash_degrades_to_serial_and_completes(
        self, monkeypatch, tmp_path
    ):
        # Trip every batch attempt (retries included) but let single
        # trials through: the marker budget covers exactly the batch
        # tier's attempts for the unison cell.
        policy = FailurePolicy(trial_timeout=60, max_retries=1, backoff=0.05)
        chaos(monkeypatch, tmp_path,
              f"crash:algorithm=unison:{policy.max_retries + 1}")
        plain = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed)
        failures = []
        supervised = run_specs(
            CAMPAIGN.specs(), CAMPAIGN.seed, workers=2,
            policy=policy, failures=failures,
        )
        assert failures == []
        assert record_bytes(supervised) == record_bytes(plain)
