"""Landing a record and syncing it are separate steps.

A landed record is written and flushed before ``progress`` fires, so a
crash of the sweep's process loses none; the store and the event log are
fsynced only at checkpoints (the heartbeat clock, and the end of a
sweep), so a landing costs no fsync of its own.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.engine import Campaign, ResultStore, run_campaign, run_specs
from repro.harness import __main__ as cli
from repro.telemetry.events import JsonlEventSink, events_path_for, read_events

CAMPAIGNS = [
    Campaign(name, seed=5, algorithms=("unison",), topologies=("ring",),
             sizes=(5, 7), scenarios=("random",), trials=2)
    for name in ("landing-a", "landing-b")
]
TRIALS = sum(campaign.size for campaign in CAMPAIGNS)


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls per file, keyed by ``(st_dev, st_ino)``."""
    counts: Counter = Counter()
    real = os.fsync

    def counting(fd):
        st = os.fstat(fd)
        counts[st.st_dev, st.st_ino] += 1
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return counts


def file_id(path: Path) -> tuple[int, int]:
    st = path.stat()
    return st.st_dev, st.st_ino


class TestSyncOnlyAtCheckpoints:
    def test_default_heartbeat_syncs_once_per_file_per_campaign(
        self, tmp_path, fsyncs,
    ):
        store = ResultStore(tmp_path / "r.jsonl")
        events = JsonlEventSink(events_path_for(store.path))
        for campaign in CAMPAIGNS:
            run_campaign(campaign, store=store, events=events, batch=False)
        store_syncs = fsyncs[file_id(store.path)]
        event_syncs = fsyncs[file_id(events.path)]
        assert 1 <= store_syncs <= len(CAMPAIGNS)
        assert 1 <= event_syncs <= len(CAMPAIGNS)
        events.close()  # syncs what was emitted after the last checkpoint
        assert fsyncs[file_id(events.path)] == event_syncs + 1
        assert len(store.load(strict=True)) == TRIALS

    def test_zero_heartbeat_syncs_once_per_landing(self, tmp_path, fsyncs):
        store = ResultStore(tmp_path / "r.jsonl")
        with JsonlEventSink(events_path_for(store.path)) as events:
            for campaign in CAMPAIGNS:
                run_specs(campaign.specs(), campaign.seed, store=store,
                          events=events, batch=False, heartbeat_every=0.0)
            assert fsyncs[file_id(store.path)] == TRIALS
            assert fsyncs[file_id(events.path)] == TRIALS

    def test_each_record_is_readable_when_progress_fires(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        events_path = events_path_for(store.path)
        seen = []

        def progress(done, total, record):
            fresh = ResultStore(store.path).load(strict=True)
            assert fresh[-1] == {"schema": 1, **record}
            finished = [e["key"] for e in read_events(events_path, strict=True)
                        if e["event"] == "trial_finished"]
            assert finished[-1] == record["key"]
            seen.append(done)

        with JsonlEventSink(events_path) as events:
            for campaign in CAMPAIGNS:
                run_campaign(campaign, store=store, events=events,
                             batch=False, progress=progress)
        assert seen == [1, 2, 3, 4] * len(CAMPAIGNS)


#: Lands three records of CAMPAIGNS[0], then dies without unwinding: no
#: ``finally`` runs, so neither the store nor the event log is synced.
CRASH = textwrap.dedent("""
    import os
    import sys

    from repro.engine import Campaign, ResultStore, run_campaign
    from repro.telemetry.events import JsonlEventSink, events_path_for

    def progress(done, total, record):
        if done == 3:
            os._exit(7)

    store = ResultStore(sys.argv[1])
    events = JsonlEventSink(events_path_for(store.path))
    campaign = Campaign("landing-a", seed=5, algorithms=("unison",),
                        topologies=("ring",), sizes=(5, 7),
                        scenarios=("random",), trials=2)
    run_campaign(campaign, store=store, events=events, batch=False,
                 progress=progress)
    sys.exit("the sweep outlived its third landing")
""")

GRID = ["--grid", "algorithm=unison", "--grid", "topology=ring",
        "--grid", "n=5,7", "--grid", "scenario=random", "--trials", "2",
        "--seed", "5", "--name", "landing-a", "--no-batch", "--quiet"]


def test_process_crash_keeps_every_landed_record(tmp_path):
    reference, crashed = tmp_path / "reference.jsonl", tmp_path / "crashed.jsonl"
    assert cli.main(["sweep", *GRID, "--out", str(reference)]) == 0

    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", CRASH, str(crashed)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 7, done.stderr
    kept = crashed.read_bytes()
    assert kept.count(b"\n") == 3 and kept.endswith(b"\n")
    assert kept == b"".join(reference.read_bytes().splitlines(keepends=True)[:3])
    finished = [e for e in read_events(events_path_for(crashed), strict=True)
                if e["event"] == "trial_finished"]
    assert len(finished) == 3

    assert cli.main(["sweep", *GRID, "--out", str(crashed), "--resume"]) == 0
    assert crashed.read_bytes() == reference.read_bytes()
