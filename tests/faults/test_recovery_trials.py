"""Recovery probes and scenario builders across execution backends.

The satellite guarantees under test:

* every adversarial *scenario builder* (``clock_gradient``,
  ``clock_split``, ``fake_reset_wave``, ``hollow_alliance``) produces
  trials that are byte-identical between the dict engine and the fused
  kernel loop — the builders write decoded configurations, the kernel
  encodes them, and nothing downstream may notice;
* the *recovery workload* (``faults=``) produces byte-identical
  per-burst recovery and SDR-wave series on both backends;
* :class:`~repro.probes.RecoveryProbe` and
  :class:`~repro.probes.SdrWaveProbe` report per-burst series with the
  documented semantics (deltas from injection, rebased rounds, stop on
  the expected burst count).
"""

import dataclasses
import json

import pytest

from repro.harness.runner import run_network_trial
from repro.topology import grid, ring

FAULTS = "burst=20,count=3,gap=40,k=2"


def trial_bytes(trial):
    return json.dumps(dataclasses.asdict(trial), sort_keys=True, default=str)


class TestScenarioBuildersAcrossBackends:
    @pytest.mark.parametrize("scenario", ["gradient", "split", "fake-wave"])
    def test_unison_scenarios_dict_equals_fused(self, scenario):
        kwargs = dict(seed=11, daemon="distributed-random", scenario=scenario)
        reference = run_network_trial("unison", ring(9), backend="dict", **kwargs)
        fused = run_network_trial("unison", ring(9), backend="kernel", **kwargs)
        assert trial_bytes(fused) == trial_bytes(reference)

    def test_hollow_alliance_dict_equals_fused(self):
        kwargs = dict(seed=11, daemon="central", scenario="hollow", instance=(1, 1))
        reference = run_network_trial("fga", grid(3, 3), backend="dict", **kwargs)
        fused = run_network_trial("fga", grid(3, 3), backend="kernel", **kwargs)
        assert trial_bytes(fused) == trial_bytes(reference)


class TestRecoveryTrialsAcrossBackends:
    @pytest.mark.parametrize("daemon", [
        "synchronous", "central", "distributed-random",
    ])
    def test_unison_recovery_series_identical(self, daemon):
        kwargs = dict(seed=5, daemon=daemon, faults=FAULTS)
        reference = run_network_trial("unison", ring(9), backend="dict", **kwargs)
        fused = run_network_trial("unison", ring(9), backend="kernel", **kwargs)
        assert trial_bytes(fused) == trial_bytes(reference)
        recovery = reference.extra["recovery"]
        assert recovery["bursts"] == recovery["recovered"] == 3
        assert reference.extra["faults"] == FAULTS

    def test_fga_recovery_series_identical(self):
        kwargs = dict(seed=5, daemon="distributed-random", faults=FAULTS,
                      instance=(1, 1))
        reference = run_network_trial("fga", ring(9), backend="dict", **kwargs)
        fused = run_network_trial("fga", ring(9), backend="kernel", **kwargs)
        assert trial_bytes(fused) == trial_bytes(reference)

    def test_boulinier_recovery_series_identical(self):
        kwargs = dict(seed=5, daemon="distributed-random", faults=FAULTS)
        reference = run_network_trial("boulinier", ring(9), backend="dict", **kwargs)
        fused = run_network_trial("boulinier", ring(9), backend="kernel", **kwargs)
        assert trial_bytes(fused) == trial_bytes(reference)
        assert "sdr_waves" not in reference.extra  # uncomposed: no SDR layer


class TestRecoverySemantics:
    def test_burst_records_carry_deltas_and_identity(self):
        trial = run_network_trial("unison", ring(9), seed=5, faults=FAULTS)
        records = trial.extra["recovery"]["records"]
        assert [r["burst"] for r in records] == [0, 1, 2]
        for record in records:
            assert record["recovered"] is True
            assert record["nominal_step"] in (20, 60, 100)
            assert len(record["victims"]) == 2
            assert record["steps"] >= 0
            assert record["rounds"] >= 0
            assert record["moves"] >= 0
        summary = trial.extra["recovery"]
        assert summary["worst_steps"] == max(r["steps"] for r in records)
        assert summary["worst_rounds"] == max(r["rounds"] for r in records)

    @pytest.mark.parametrize("backend", ["dict", "kernel"])
    def test_noop_churn_occurrence_is_recovered_at_injection(self, backend):
        """A ``drop_edge`` that preserve-policy connectivity refuses
        changes nothing: it records zero recovery deltas and opens no
        stopwatch, while the crash and join around it keep theirs."""
        churn = ("at=8,crash=1;burst=14,count=2,gap=11,drop_edge=1;"
                 "at=40,join=1")
        trial = run_network_trial("unison", ring(8), seed=3, backend=backend,
                                  churn=churn)
        records = trial.extra["recovery"]["records"]
        assert [r["action"] for r in records] == [
            "crash", "drop_edge", "drop_edge", "join"]
        for noop in records[1:3]:
            assert noop["victims"] == noop["dropped"] == noop["added"] == []
            assert (noop["steps"], noop["rounds"], noop["moves"]) == (0, 0, 0)
            assert noop["recovered"] is True
        assert records[0]["victims"] == records[3]["victims"] == [1]
        assert records[3]["steps"] > 0

    def test_rounds_are_rebased_per_burst(self):
        """Per-burst rounds are deltas, not cumulative totals."""
        trial = run_network_trial("unison", ring(12), seed=2, faults=FAULTS)
        records = trial.extra["recovery"]["records"]
        assert all(r["rounds"] < trial.rounds or trial.rounds == 0
                   for r in records if r["rounds"] is not None) or \
            len(records) == 1

    def test_sdr_wave_summary_shape(self):
        trial = run_network_trial("unison", ring(9), seed=5, faults=FAULTS)
        waves = trial.extra["sdr_waves"]
        assert set(waves) >= {"windows", "initiators", "epochs", "merges"}
        assert len(waves["windows"]) == 4  # "pre" + one per burst
        assert [w["burst"] for w in waves["windows"]] == ["pre", 0, 1, 2]
        for window in waves["windows"]:
            assert set(window) == {"burst", "initiators", "rb", "rf",
                                   "epochs", "merges"}
            assert window["merges"] == max(
                0, window["initiators"] - window["epochs"]
            )
        assert waves["initiators"] == sum(
            w["initiators"] for w in waves["windows"]
        )

    def test_unrecoverable_budget_raises_not_stabilized(self):
        from repro.core.exceptions import NotStabilized

        with pytest.raises(NotStabilized):
            run_network_trial("unison", ring(9), seed=5, faults=FAULTS, max_steps=10)
