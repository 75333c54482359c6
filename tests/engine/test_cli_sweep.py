"""The ``python -m repro.harness sweep`` subcommand (acceptance criteria)."""

import pytest

from repro.engine import ResultStore
from repro.harness import __main__ as cli

GRID = ["--grid", "algorithm=unison", "--grid", "topology=ring",
        "--grid", "n=5,7", "--grid", "scenario=random",
        "--trials", "2", "--seed", "4", "--quiet"]


def sweep(*extra: str) -> int:
    return cli.main(["sweep", *GRID, *extra])


class TestSweepCli:
    def test_serial_and_parallel_stores_are_byte_identical(self, tmp_path):
        serial, parallel = tmp_path / "w0.jsonl", tmp_path / "w2.jsonl"
        assert sweep("--workers", "0", "--out", str(serial)) == 0
        assert sweep("--workers", "2", "--out", str(parallel)) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert len(ResultStore(serial).load(strict=True)) == 4

    def test_resume_runs_only_missing_trials(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert sweep("--workers", "0", "--out", str(out)) == 0
        full = out.read_bytes()

        # Keep only the first record, as if the sweep was killed early.
        lines = out.read_text().splitlines(keepends=True)
        out.write_text(lines[0])
        capsys.readouterr()

        assert sweep("--workers", "0", "--out", str(out), "--resume") == 0
        assert "3 trial(s) run, 1 already stored" in capsys.readouterr().out
        assert out.read_bytes() == full

    def test_summary_table_is_printed(self, capsys):
        assert sweep("--workers", "0") == 0
        out = capsys.readouterr().out
        assert "campaign 'sweep'" in out
        assert "moves (mean)" in out
        assert "4 trial(s) run" in out

    def test_unknown_grid_axis_is_an_error(self, capsys):
        assert cli.main(["sweep", "--grid", "color=red"]) == 2
        assert "unknown grid axis" in capsys.readouterr().out

    def test_malformed_grid_entry_is_an_error(self, capsys):
        assert cli.main(["sweep", "--grid", "topology"]) == 2
        assert "AXIS=V1" in capsys.readouterr().out

    def test_resume_without_out_is_an_error(self, capsys):
        assert cli.main(["sweep", "--resume"]) == 2
        assert "--resume needs --out" in capsys.readouterr().out

    def test_unknown_topology_fails_before_running(self, capsys):
        assert cli.main(["sweep", "--grid", "topology=mobius"]) == 2
        assert "unknown topology" in capsys.readouterr().out

    def test_mid_run_trial_error_is_reported_cleanly(self, capsys):
        # A named instance is checked up front; whether it is feasible
        # depends on the network, which only a trial builds.
        code = cli.main(["sweep", "--grid", "algorithm=fga", "--grid", "n=5",
                         "--grid", "topology=line",
                         "--param", "instance=2-dominating-set", "--quiet"])
        assert code == 1
        assert "instance infeasible" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm,scenario", [
        ("boulinier", "hollow"), ("unison", "bogus"), ("fga", "faults:x"),
    ])
    def test_undeclared_scenario_fails_before_running(self, capsys, tmp_path,
                                                      algorithm, scenario):
        out = tmp_path / "r.jsonl"
        code = cli.main(["sweep", "--grid", f"algorithm={algorithm}",
                         "--grid", f"scenario={scenario}", "--grid", "n=5",
                         "--trials", "3", "--trial-timeout", "30",
                         "--out", str(out), "--quiet"])
        assert code == 2
        assert f"unknown {algorithm} scenario" in capsys.readouterr().out
        assert not out.exists()

    def test_unknown_daemon_fails_before_running(self, capsys):
        assert cli.main(["sweep", "--grid", "daemon=centrall"]) == 2
        assert "unknown daemon" in capsys.readouterr().out

    @pytest.mark.parametrize("daemon", ["adversarial", "adversarial:greedy"])
    def test_search_daemon_axis_points_to_adversary(self, daemon, capsys):
        """Schedule search has one spelling, the ``adversary`` param: the
        daemon axis refuses it before any trial runs and names the param."""
        assert cli.main(["sweep", "--grid", f"daemon={daemon}"]) == 2
        out = capsys.readouterr().out
        assert "unknown daemon" in out and "'adversary' param" in out

    def test_repeated_grid_flags_for_one_axis_merge(self, capsys):
        assert cli.main(["sweep", "--grid", "n=5", "--grid", "n=7,5",
                         "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "2 trial(s) run" in out  # n=5 and n=7, deduplicated

    def test_malformed_param_is_an_error(self, capsys):
        assert cli.main(["sweep", "--param", "period"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm,param,declared", [
        ("unison", "bogus=1", "['period']"),
        ("fga", "period=7", "['instance']"),
    ])
    def test_undeclared_param_fails_before_running(self, capsys, tmp_path,
                                                   algorithm, param, declared):
        out = tmp_path / "r.jsonl"
        code = cli.main(["sweep", "--grid", f"algorithm={algorithm}",
                         "--grid", "topology=ring", "--grid", "n=5",
                         "--param", param, "--out", str(out), "--quiet"])
        assert code == 2
        printed = capsys.readouterr().out
        assert "takes no param" in printed and f"declares {declared}" in printed
        assert not out.exists()

    def test_duplicate_params_last_wins(self, capsys):
        assert cli.main(["sweep", "--grid", "n=5", "--param", "period=9",
                         "--param", "period=40", "--quiet"]) == 0

    def test_mid_file_corruption_skips_compaction_keeps_data(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert sweep("--workers", "0", "--out", str(out)) == 0
        lines = out.read_text().splitlines(keepends=True)
        # Corrupt a *middle* line: later records must survive the next sweep.
        out.write_text(lines[0] + '{"half\n' + "".join(lines[2:]))
        capsys.readouterr()
        assert cli.main(["sweep", "--grid", "algorithm=unison",
                         "--grid", "n=9", "--seed", "4",
                         "--out", str(out), "--quiet"]) == 0
        assert "skipping grid-order compaction" in capsys.readouterr().out
        text = out.read_text()
        assert '{"half' in text  # file left append-only, nothing dropped
        assert "n=9" in text.splitlines()[-1]

    def test_param_values_reach_the_trials(self, tmp_path):
        out = tmp_path / "p.jsonl"
        assert cli.main([
            "sweep", "--grid", "algorithm=unison", "--grid", "n=5",
            "--param", "period=40", "--out", str(out), "--quiet",
        ]) == 0
        record = ResultStore(out).load(strict=True)[0]
        assert record["spec"]["params"] == {"period": 40}


class TestExperimentsThroughEngine:
    """The refactored experiments accept workers/store and stay correct."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_t5_parallel_matches_serial(self, workers, tmp_path):
        from repro.harness.experiments import experiment_t5

        store = ResultStore(tmp_path / "t5.jsonl")
        result = experiment_t5(sizes=(6, 8), trials=2, workers=workers, store=store)
        assert result.ok
        assert len(store.keys()) == 2 * 2 * 2  # algorithms x sizes x trials

    def test_t3_t4_resumes_from_store(self, tmp_path):
        from repro.harness.experiments import experiment_t3_t4

        store = ResultStore(tmp_path / "t34.jsonl")
        kwargs = dict(sizes=(6,), topologies=("ring",),
                      scenarios=("random",), trials=2, store=store)
        first = experiment_t3_t4(**kwargs)
        before = store.keys()
        second = experiment_t3_t4(**kwargs)  # fully resumed, nothing re-run
        assert store.keys() == before
        assert first.table.rows == second.table.rows
        assert first.ok and second.ok

    def test_dict_backend_store_is_byte_identical(self, tmp_path, capsys):
        """``backend=dict`` is an execution option: its store equals
        the default store byte for byte, and each resumes from the
        other without re-running anything."""
        fused, dict_ = tmp_path / "pf.jsonl", tmp_path / "pd.jsonl"
        assert sweep("--workers", "0", "--out", str(fused)) == 0
        assert sweep("--workers", "0", "--out", str(dict_),
                     "--param", "backend=dict") == 0
        assert fused.read_bytes() == dict_.read_bytes()
        full = fused.read_bytes()

        lines = fused.read_text().splitlines(keepends=True)
        fused.write_text(lines[0])
        capsys.readouterr()
        assert sweep("--workers", "0", "--out", str(fused),
                     "--param", "backend=dict", "--resume") == 0
        assert "3 trial(s) run, 1 already stored" in capsys.readouterr().out
        assert fused.read_bytes() == full
        assert sweep("--workers", "0", "--out", str(fused), "--resume") == 0
        assert "0 trial(s) run, 4 already stored" in capsys.readouterr().out

    def test_dict_backend_spec_params_disable_batching(self):
        from repro.engine.campaign import TrialSpec
        from repro.harness.runner import can_batch

        fused_spec = TrialSpec(algorithm="unison", topology="ring", n=8, trial=0)
        dict_spec = TrialSpec(
            algorithm="unison", topology="ring", n=8, trial=0,
            params=(("backend", "dict"),),
        )
        assert fused_spec.key() == dict_spec.key()  # execution option
        assert fused_spec.to_dict() == dict_spec.to_dict()
        assert can_batch(fused_spec) and not can_batch(dict_spec)
