"""CLI integration: sweep sidecars, ``status`` subcommand, no ``--probe``."""

import json

import pytest

from repro.harness import __main__ as cli
from repro.telemetry.events import events_path_for, read_events
from repro.telemetry.provenance import manifest_path_for, read_manifest

GRID = ["--grid", "algorithm=unison", "--grid", "topology=ring",
        "--grid", "n=5,7", "--grid", "scenario=random",
        "--trials", "2", "--seed", "4", "--quiet"]


def sweep(*extra: str) -> int:
    return cli.main(["sweep", *GRID, *extra])


class TestSweepSidecars:
    def test_out_gets_event_log_and_manifest(self, tmp_path):
        out = tmp_path / "res.jsonl"
        assert sweep("--out", str(out)) == 0

        events = list(read_events(events_path_for(out), strict=True))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("trial_finished") == 4

        manifest = read_manifest(out)
        assert manifest is not None
        assert manifest["campaign"]["size"] == 4
        assert manifest["campaign"]["name"] == "sweep"

    def test_no_out_means_no_sidecars(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert sweep() == 0
        assert list(tmp_path.iterdir()) == []

    def test_resume_appends_to_the_event_log(self, tmp_path):
        out = tmp_path / "res.jsonl"
        assert sweep("--out", str(out)) == 0
        first = len(list(read_events(events_path_for(out))))
        assert sweep("--out", str(out), "--resume") == 0
        events = list(read_events(events_path_for(out)))
        assert len(events) > first  # second campaign_started/finished pair
        assert events[-1]["event"] == "campaign_finished"

    def test_records_unchanged_by_sidecars(self, tmp_path):
        with_sidecars = tmp_path / "a.jsonl"
        assert sweep("--out", str(with_sidecars)) == 0
        again = tmp_path / "b.jsonl"
        assert sweep("--out", str(again)) == 0
        assert with_sidecars.read_bytes() == again.read_bytes()


class TestStatusCli:
    def test_status_after_a_finished_sweep(self, tmp_path, capsys):
        out = tmp_path / "res.jsonl"
        assert sweep("--out", str(out)) == 0
        capsys.readouterr()
        assert cli.main(["status", str(out)]) == 0
        text = capsys.readouterr().out
        assert "4 trials landed of 4 (100%)" in text
        assert "finished" in text

    def test_status_json_output(self, tmp_path, capsys):
        out = tmp_path / "res.jsonl"
        assert sweep("--out", str(out)) == 0
        capsys.readouterr()
        assert cli.main(["status", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 4
        assert summary["by_algorithm"] == {"unison": 4}

    def test_status_without_any_files_is_an_error(self, tmp_path, capsys):
        assert cli.main(["status", str(tmp_path / "absent.jsonl")]) == 2
        assert "no result store" in capsys.readouterr().out

    def test_status_from_sidecars_of_a_failed_sweep(self, tmp_path, capsys):
        out = tmp_path / "res.jsonl"
        code = cli.main([
            "sweep", "--grid", "algorithm=unison", "--grid", "topology=ring",
            "--grid", "n=16", "--grid", "scenario=gradient",
            "--grid", "daemon=central", "--trials", "1", "--seed", "4",
            "--param", "max_steps=5", "--quiet", "--out", str(out),
        ])
        assert code == 1  # NotStabilized reported cleanly
        assert not out.exists()  # nothing landed; store never created
        capsys.readouterr()
        assert cli.main(["status", str(out)]) == 1  # failures present
        text = capsys.readouterr().out
        assert "FAILED" in text
        assert "running (or crashed mid-run)" in text


class TestNoProbeOption:
    def test_probe_is_not_a_sweep_option(self, tmp_path, capsys):
        """The measurement tier is not a trial option: ``--probe`` is an
        unrecognized argument, rejected before any trial runs."""
        out = tmp_path / "res.jsonl"
        with pytest.raises(SystemExit) as exc:
            sweep("--probe", "decode", "--out", str(out))
        assert exc.value.code == 2
        assert "unrecognized arguments: --probe" in capsys.readouterr().err
        assert not out.exists()
