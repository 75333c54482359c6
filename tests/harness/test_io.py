"""Tests for CSV/JSON persistence of experiment data."""

import csv
import json

import pytest

from repro.harness import experiments, run_network_trial
from repro.harness.io import trial_rows, write_result_json, write_trials_csv
from repro.topology import ring


@pytest.fixture(scope="module")
def trials():
    return [run_network_trial("unison", ring(5), seed=s, scenario="gradient")
            for s in range(3)]


class TestTrialRows:
    def test_core_fields_present(self, trials):
        rows = trial_rows(trials)
        assert len(rows) == 3
        for row in rows:
            assert row["algorithm"] == "U o SDR"
            assert row["n"] == 5
            assert row["sdr_moves"] + row["input_moves"] == row["moves"]

    def test_extras_inlined_with_prefix(self):
        rows = trial_rows([run_network_trial("boulinier", ring(5), seed=0)])
        assert rows[0]["extra_period"] > 5
        assert rows[0]["extra_alpha"] >= 1


class TestCsv:
    def test_round_trip(self, trials, tmp_path):
        path = write_trials_csv(trials, tmp_path / "trials.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert {row["seed"] for row in rows} == {"0", "1", "2"}

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trials_csv([], tmp_path / "empty.csv")


class TestJson:
    def test_result_round_trip(self, tmp_path):
        result = experiments.experiment_t5(sizes=(5, 6), trials=1)
        path = write_result_json(result, tmp_path / "t5.json")
        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "T5"
        assert payload["ok"] is True
        assert len(payload["rows"]) == 2
        assert payload["figure"] is None

    def test_figure_series_serialized(self, tmp_path):
        result = experiments.figure_f4(sizes=(5, 6), trials=1)
        payload = json.loads(write_result_json(result, tmp_path / "f4.json").read_text())
        assert set(payload["figure"]) == {"measured", "bound"}


class TestA1Experiment:
    def test_a1_smoke(self):
        result = experiments.experiment_a1(sizes=(8,), trials=1)
        assert result.ok
        assert result.experiment_id == "A1"

    def test_registry_includes_a1(self):
        assert "A1" in experiments.REGISTRY
