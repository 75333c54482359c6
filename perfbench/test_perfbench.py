"""Tests of the benchmark itself, on tiny smoke grids.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import Campaign, FailurePolicy, ResultStore

from perfbench import bench
from perfbench.checks import digest
from perfbench.workloads import CHURN, DEFAULT_SEED, FAULTS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _serial(seed: int) -> list[Campaign]:
    return [Campaign("smoke/serial", seed=seed, algorithms=("unison", "fga"),
                     topologies=("ring",), sizes=(6,), trials=2)]


def _supervised(seed: int) -> list[Campaign]:
    return [
        Campaign("smoke/faults", seed=seed, algorithms=("unison",),
                 topologies=("ring",), sizes=(8,), trials=2,
                 params=(("faults", FAULTS),)),
        Campaign("smoke/churn", seed=seed, algorithms=("unison",),
                 topologies=("ring",), sizes=(8,),
                 params=(("churn", CHURN),)),
    ]


SERIAL = Workload("smoke-serial", _serial, batch=False)
SUPERVISED = Workload("smoke-supervised", _supervised, workers=1,
                      policy=FailurePolicy(trial_timeout=60.0))


def _measure(workload: Workload, tmp_path, trace: bool, seed: int = 1):
    run = bench.WorkloadRun(workload, seed)
    bench.measure([run], 0.0, trace, tmp_path)
    return run


def _main(monkeypatch, capsys, workload: Workload, trace: int) -> dict:
    monkeypatch.setattr(bench, "WORKLOADS", {workload.name: workload})
    monkeypatch.setattr(bench, "setup_seconds", lambda names, seed: 0.25)
    code = bench.main(["--workload", workload.name, "--seed", "1",
                       "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("manifest ")
    return json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, section):
    result = _main(monkeypatch, capsys, SERIAL, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_corrupting_one_stored_record_fails_the_run(monkeypatch, tmp_path):
    victim = _serial(1)[0].specs()[0].key()
    append = ResultStore.append

    def corrupting_append(self, record):
        if record["key"] == victim:
            record = json.loads(json.dumps(record))
            record["result"]["moves"] += 1
        append(self, record)

    monkeypatch.setattr(ResultStore, "append", corrupting_append)
    run = _measure(SERIAL, tmp_path, trace=False)
    assert run.failed == len(run.passes) > 0
    result = bench.result_line(run, False, 0.25)
    assert not result["correct"]
    assert result["metrics"]["correct_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", [SERIAL, SUPERVISED], ids=lambda w: w.name)
def test_traced_and_untraced_passes_store_identical_records(tmp_path, workload):
    run = _measure(workload, tmp_path, trace=True)
    assert run.failed == 0 and not run.problems
    untraced, traced = run.timed(False), run.timed(True)
    assert untraced and traced
    assert {digest(p.records) for p in untraced + traced} == {
        digest(run.passes[0].records)
    }
    layers = run.per_layer()
    assert layers["trace.coverage_frac"][0] > 0.5
    assert layers["kernel.steps"][0] > 0
    if workload is SUPERVISED:
        # Children's spans were gathered: the units ran in forked workers.
        assert layers["pool.spawns"][0] == 2
        assert layers["batch.cells"][0] == 1
        assert layers["faults.occurrences"][0] > 0
        assert layers["churn.occurrences"][0] > 0


def test_end_to_end_times_scale_with_host_speed(tmp_path):
    run = _measure(SERIAL, tmp_path, trace=False)
    quiet, slow = run.end_to_end(0.4), run.end_to_end(0.4, speed=0.5)
    assert slow["setup_s"] == pytest.approx(quiet["setup_s"] / 2)
    assert slow["trial_ms_p50"] == pytest.approx(quiet["trial_ms_p50"] / 2)
    assert slow["trials_per_s"] == pytest.approx(quiet["trials_per_s"] * 2)
    assert slow["correct_frac"] == quiet["correct_frac"] == 1.0


def test_pinned_digest_mismatch_fails_every_trial(tmp_path):
    wrong = Workload("smoke-pinned", _serial, batch=False, digest="0" * 64)
    run = _measure(wrong, tmp_path, trace=False, seed=DEFAULT_SEED)
    assert run.failed == len(run.grid)
    assert any("digest" in problem for problem in run.problems)


def test_drifting_counter_fails_the_run(monkeypatch, tmp_path):
    calls = iter(range(1000))
    real = bench.record_counters
    monkeypatch.setattr(
        bench, "record_counters",
        lambda records: {**real(records), "steps": next(calls)},
    )
    run = _measure(SERIAL, tmp_path, trace=False)
    assert any("drifted" in problem for problem in run.problems)


def test_setup_probe_runs_in_a_fresh_interpreter():
    assert 0.0 < bench.setup_seconds(["sweep-small"], 0, probes=1) < 60.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
