"""Lifecycle of the supervised executor's long-lived worker processes.

Every multi-process sweep runs on these workers, with or without a
``FailurePolicy``; without one, the first failure aborts the sweep.

Workers are counted by wrapping ``pool._supervised_worker`` (the entry
point of each worker process) and unit attempts by wrapping
``pool._worker``: forked children inherit the patched module, so every
worker process and every attempt leaves a line in ``tmp_path``.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.exceptions import ReproError
from repro.engine import Campaign, FailurePolicy, ResultStore, pool, run_specs
from repro.engine.campaign import TrialSpec
from repro.telemetry.events import MemoryEventSink

from .test_policy import CAMPAIGN, POLICY, chaos, record_bytes


@pytest.fixture
def spawns(monkeypatch, tmp_path):
    """Number of supervised worker processes started so far."""
    log = tmp_path / "spawns.log"
    log.touch()
    worker = pool._supervised_worker

    def logged(conn, args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        worker(conn, args)

    monkeypatch.setattr(pool, "_supervised_worker", logged)
    return lambda: len(log.read_text().split())


@pytest.fixture
def attempts(monkeypatch, tmp_path):
    """``(pid, keys)`` of every unit attempt so far, in start order."""
    log = tmp_path / "attempts.log"
    log.touch()
    worker = pool._worker

    def logged(args):
        kind, payload, _, _ = args
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), pool._unit_keys(kind, payload)]) + "\n")
        return worker(args)

    monkeypatch.setattr(pool, "_worker", logged)
    return lambda: [json.loads(line) for line in log.read_text().splitlines()]


def poison_spec():
    good = CAMPAIGN.specs()[0]
    return TrialSpec(
        algorithm="unison", topology="ring", n=6,
        scenario="no-such-scenario", daemon="central",
        trial=0, params=good.params,
    )


class TestWorkerCounts:
    @pytest.mark.parametrize(
        "workers, batch, expected",
        [(1, True, 1), (2, True, 2), (3, True, 2), (3, False, 3)],
    )
    def test_clean_sweep_spawns_one_worker_per_slot(
        self, spawns, workers, batch, expected
    ):
        # CAMPAIGN is two cells of two replicates: 2 batch units, or 4
        # single trials unbatched.
        failures = []
        run_specs(
            CAMPAIGN.specs(), CAMPAIGN.seed, workers=workers, batch=batch,
            policy=POLICY, failures=failures,
        )
        assert failures == []
        assert spawns() == expected

    @pytest.mark.parametrize(
        "directive, policy",
        [
            ("crash:algorithm=unison:1", POLICY),
            ("timeout:algorithm=fga:1",
             FailurePolicy(trial_timeout=1.0, max_retries=1, backoff=0.05)),
        ],
        ids=["crash", "timeout"],
    )
    def test_one_failure_adds_exactly_one_spawn(
        self, monkeypatch, tmp_path, spawns, directive, policy
    ):
        chaos(monkeypatch, tmp_path, directive)
        plain = run_specs(CAMPAIGN.specs(), CAMPAIGN.seed)
        failures = []
        supervised = run_specs(
            CAMPAIGN.specs(), CAMPAIGN.seed, workers=1,
            policy=policy, failures=failures,
        )
        assert failures == []
        assert record_bytes(supervised) == record_bytes(plain)
        assert spawns() == 2

    def test_poison_retries_never_reuse_the_failed_process(self, attempts):
        good, poison = CAMPAIGN.specs()[0], poison_spec()
        failures = []
        run_specs(
            [good, poison], CAMPAIGN.seed, workers=1,
            policy=FailurePolicy(trial_timeout=60, max_retries=1, backoff=0.0),
            failures=failures,
        )
        assert [f["key"] for f in failures] == [poison.key()]
        pids = [pid for pid, keys in attempts() if keys == [poison.key()]]
        # Two attempts on the kernel tier, two on the dict tier.
        assert len(pids) == 4
        assert len(set(pids)) == len(pids)
        # The good trial and the first poison attempt share the one worker.
        assert attempts()[0][0] == pids[0]


@pytest.mark.parametrize("policy", [None, POLICY], ids=["no-policy", "policy"])
class TestNoWorkerOutlivesRunSpecs:
    def test_after_a_clean_sweep(self, policy):
        run_specs(CAMPAIGN.specs(), CAMPAIGN.seed, workers=2, policy=policy)
        assert multiprocessing.active_children() == []

    def test_after_progress_raises_mid_sweep(self, spawns, policy):
        def progress(done, total, record):
            raise RuntimeError("progress callback failed")

        with pytest.raises(RuntimeError, match="progress callback failed"):
            run_specs(
                CAMPAIGN.specs(), CAMPAIGN.seed, workers=2, batch=False,
                policy=policy, progress=progress,
            )
        assert spawns() == 2
        assert multiprocessing.active_children() == []


@pytest.fixture
def deadline():
    """Fail, instead of stalling the suite, if the test body hangs."""
    def expire(signum, frame):
        raise TimeoutError("run_specs hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestWithoutPolicyTheFirstFailureAborts:
    def test_dead_worker_raises_instead_of_hanging(
        self, monkeypatch, tmp_path, deadline
    ):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_trial reaches workers through fork")
        from repro.harness import runner

        specs = CAMPAIGN.specs()
        victim = specs[-1].key()
        run_trial = runner.run_trial

        def oom_killed(spec, seed):
            if spec.key() == victim:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_trial(spec, seed=seed)

        monkeypatch.setattr(runner, "run_trial", oom_killed)
        sink = MemoryEventSink()
        store = ResultStore(tmp_path / "r.jsonl")
        started = time.monotonic()
        with pytest.raises(ReproError, match="worker died"):
            run_specs(specs, CAMPAIGN.seed, workers=2, batch=False,
                      events=sink, store=store)
        assert time.monotonic() - started < 10
        failed = [e for e in sink.events if e["event"] == "trial_failed"]
        assert [(e["key"], e["reason"]) for e in failed] == [(victim, "crash")]
        finished = {e["key"] for e in sink.events
                    if e["event"] == "trial_finished"}
        # The victim is dispatched only after an earlier trial landed.
        assert finished and victim not in finished
        assert {r["key"] for r in store.iter_records()} == finished
        assert multiprocessing.active_children() == []

    def test_unpicklable_error_arrives_as_repro_error(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_trial reaches workers through fork")
        from repro.harness import runner

        class Unpicklable(RuntimeError):
            """A local class: pickle cannot find it by name."""

        def broken(spec, seed):
            raise Unpicklable("cannot cross the pipe")

        monkeypatch.setattr(runner, "run_trial", broken)
        sink = MemoryEventSink()
        with pytest.raises(ReproError, match="Unpicklable: cannot cross the pipe"):
            run_specs(CAMPAIGN.specs()[:1], CAMPAIGN.seed, workers=2,
                      events=sink)
        assert [e["reason"] for e in sink.events
                if e["event"] == "trial_failed"] == ["error"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, 2])
    def test_poison_trial_raises_its_own_error(self, workers):
        good, poison = CAMPAIGN.specs()[0], poison_spec()
        sink = MemoryEventSink()
        with pytest.raises(ValueError) as raised:
            run_specs([good, poison], CAMPAIGN.seed, workers=workers,
                      events=sink)
        assert str(raised.value) == (
            "unknown unison scenario 'no-such-scenario'; choose from "
            "['random', 'gradient', 'split', 'fake-wave', 'faults:<k>']"
        )
        failed = [e for e in sink.events if e["event"] == "trial_failed"]
        assert [(e["key"], e["reason"], e["retries"]) for e in failed] == [
            (poison.key(), "error", 0)
        ]
        assert multiprocessing.active_children() == []


class TestRecordsWithStateCarriedAcrossUnits:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_faults_churn_and_plain_cells_match_in_process_run(self, workers):
        # Batched fault cells, serial churn cells (churn mutates the CSR
        # in place) and plain cells, all through the same workers.
        common = dict(seed=7, algorithms=("unison", "fga"),
                      topologies=("ring",), sizes=(8,))
        specs = [
            spec
            for campaign in (
                Campaign("faults", trials=3, **common, params=(
                    ("faults", "burst=20,count=2,gap=40,k=1,scope=input"),)),
                Campaign("churn", trials=2, **common, params=(
                    ("churn", "every=40,count=3,crash=1;every=60,count=3,join=1"),)),
                Campaign("plain", trials=2, **common),
            )
            for spec in campaign.specs()
        ]
        plain = run_specs(specs, 7)
        failures = []
        supervised = run_specs(
            specs, 7, workers=workers, policy=POLICY, failures=failures,
        )
        assert failures == []
        assert record_bytes(supervised) == record_bytes(plain)


def test_worker_exits_cleanly_when_the_parent_end_closes():
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe()
    spec = CAMPAIGN.specs()[0]
    proc = ctx.Process(
        target=pool._supervised_worker,
        args=(child_conn, (CAMPAIGN.seed, "orphan", (parent_conn,))),
    )
    proc.start()
    child_conn.close()
    try:
        parent_conn.send(("single", spec))
        records, info, _ = parent_conn.recv()
        assert info is None and [r["key"] for r in records] == [spec.key()]
    finally:
        parent_conn.close()
    proc.join(timeout=5)
    if proc.exitcode is None:
        proc.kill()
        proc.join()
    assert proc.exitcode == 0
