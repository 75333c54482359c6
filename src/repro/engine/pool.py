"""Trial executor: batched cells, multiprocessing fan-out, serial fallback.

``run_specs`` drives a list of :class:`~repro.engine.campaign.TrialSpec`
descriptors to completion.  Replicate trials that share a grid cell are
*batched* (``batch="auto"``): the whole cell runs as one tiled
multi-trial simulation (:func:`repro.harness.runner.run_trial_batch`),
one guard evaluation serving every replicate per step.  With
``workers >= 2`` the execution units — batches and leftover single
trials — fan out to a ``multiprocessing.Pool`` via ``imap_unordered``
(chunked to amortize IPC); with ``workers <= 1`` they run in-process,
which keeps debugging, coverage, and tracing trivial.  Either way results
stream back to the parent, which is the *only* writer of the result
store — workers compute, the parent persists, so no file locking is
needed.

Because every trial's seed derives from its descriptor (not from
execution order, worker count, or batch shape), all paths produce
byte-identical records.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

from ..telemetry import phases as telemetry
from .campaign import TrialSpec
from .seeds import derive_seed
from .store import SCHEMA_VERSION, ResultStore, trial_to_dict

__all__ = [
    "execute_trial",
    "execute_batch",
    "run_specs",
    "default_chunksize",
    "FailurePolicy",
]

#: ``progress(done, total, record)`` — invoked in the parent exactly once
#: per landed trial (and per skipped/streamed record on resume paths).
ProgressFn = Callable[[int, int, dict], None]

#: Seconds between ``heartbeat`` events on an event sink (wall-clock
#: throttle; the check itself runs once per landed record).
HEARTBEAT_EVERY = 10.0


@dataclass(frozen=True)
class FailurePolicy:
    """Graceful degradation for campaign execution.

    Without a policy, ``run_specs`` keeps its historical contract: the
    first failing unit re-raises mid-sweep.  With one, execution moves
    to a *supervised* executor — at most ``max(1, workers)`` long-lived
    worker processes, each fed units and returning results over its own
    pipe, respawned only after a crash, a hang or a failing unit — which
    survives what a ``multiprocessing.Pool`` cannot: a worker dying
    (``kill -9``, OOM, segfault) or hanging past its deadline.  A
    failing unit is

    1. **retried** on the same tier up to ``max_retries`` times with
       exponential backoff (``backoff * 2**attempt`` seconds), then
    2. **degraded** one rung down the ladder *batch → serial →
       dict* — a failing batch splits into single trials, a failing
       single trial re-runs on the dict reference engine (an execution
       option, so its key and record bytes are unchanged), then
    3. **quarantined**: a ``trial_failed`` event carrying ``reason``
       (``crash``/``timeout``/``error``/``budget``) and ``retries``
       is emitted, the failure is reported to the caller, and the rest
       of the grid keeps running.  Siblings of a failed replicate land
       exactly once.

    ``trial_timeout`` is a per-trial wall-clock deadline in seconds
    (a batch unit's deadline scales with its replicate count); ``None``
    disables deadlines.  Budget exhaustion (``NotStabilized``) is
    deterministic, so it quarantines immediately — retrying cannot
    change a seeded trial's outcome.
    """

    trial_timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.5
    degrade: bool = True

    def __post_init__(self):
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ValueError("trial_timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")


def execute_trial(spec: TrialSpec, campaign_seed: int, campaign: str = "") -> dict:
    """Run one trial and return its store record.

    Safe to call in any process: the seed comes from the descriptor hash,
    and the record contains nothing execution-dependent (no timestamps,
    pids, or hostnames), so parallel and serial runs are byte-identical.
    """
    # Imported lazily — the harness experiments import the engine, so a
    # module-level import here would be circular.
    from ..harness.runner import run_trial

    seed = derive_seed(campaign_seed, spec.key())
    return _make_record(
        spec, seed, run_trial(spec, seed=seed), campaign_seed, campaign
    )


def execute_batch(
    specs: Sequence[TrialSpec], campaign_seed: int, campaign: str = ""
) -> tuple[list[dict], Exception | None, bool]:
    """Run one grid cell's replicates as a batch; fall back per-trial.

    Returns ``(records, error, fallback)``.  Records are identical to
    ``[execute_trial(s, …) for s in specs]`` — the batched runner
    consumes each trial's derived seed in serial order.  If the cell
    turns out not to be batchable after all
    (:class:`~repro.core.exceptions.UnbatchableError`: no kernel program
    for this instance, unexpected params), the replicates run serially
    instead and ``fallback`` is true.  ``NotStabilized`` is not a defect
    — one replicate ran out of budget — so it comes back as ``error``
    alongside every record that did land: a batch's stabilizing
    siblings (nothing is re-run), or a serial fallback's trials before
    the failing one.  Any other exception is a genuine defect and
    propagates.
    """
    from ..core.exceptions import NotStabilized, UnbatchableError

    try:
        return (*_batch_records(specs, campaign_seed, campaign), False)
    except UnbatchableError:
        pass
    records: list[dict] = []
    try:
        for spec in specs:
            records.append(execute_trial(spec, campaign_seed, campaign))
    except NotStabilized as exc:
        return records, exc, True
    return records, None, True


def _make_record(
    spec: TrialSpec, seed: int, trial, campaign_seed: int, campaign: str
) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "campaign": campaign,
        "campaign_seed": campaign_seed,
        "key": spec.key(),
        "seed": seed,
        "spec": spec.to_dict(),
        "result": trial_to_dict(trial),
    }


def _batch_records(
    specs: Sequence[TrialSpec], campaign_seed: int, campaign: str
) -> tuple[list[dict], Exception | None]:
    """One cell's ``(records, error)`` via the tiled batch runner.

    A ``NotStabilized`` replicate's siblings come back from the batch's
    own per-trial outcomes (the exception's ``partial``); every other
    exception, ``UnbatchableError`` included, propagates.
    """
    # Imported lazily — the harness experiments import the engine, so a
    # module-level import here would be circular.
    from ..core.exceptions import NotStabilized
    from ..harness.runner import run_trial_batch

    specs = list(specs)
    seeds = [derive_seed(campaign_seed, spec.key()) for spec in specs]
    try:
        indexed = list(enumerate(run_trial_batch(specs, seeds)))
        error: Exception | None = None
    except NotStabilized as exc:
        indexed = list(exc.partial)
        error = exc
    records = [
        _make_record(specs[i], seeds[i], trial, campaign_seed, campaign)
        for i, trial in indexed
    ]
    return records, error


def _execution_units(
    specs: Sequence[TrialSpec], batch: bool
) -> list[tuple[str, Any]]:
    """Group specs into ``("batch", cell-specs)`` / ``("single", spec)``."""
    if not batch:
        return [("single", spec) for spec in specs]
    from ..harness.runner import can_batch

    cells: dict[str, list[TrialSpec]] = {}
    order: list[str] = []
    for spec in specs:
        key = spec.cell_key()
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(spec)
    units: list[tuple[str, Any]] = []
    for key in order:
        cell = cells[key]
        # Every replicate must be batchable: execution options such as
        # backend="dict" are excluded from cell_key(), so one replicate
        # explicitly requesting the dict engine must not be silently
        # batched onto the kernel with its siblings.
        if len(cell) > 1 and all(can_batch(spec) for spec in cell):
            units.append(("batch", tuple(cell)))
        else:
            units.extend(("single", spec) for spec in cell)
    return units


def _worker(
    args: tuple[str, Any, int, str]
) -> tuple[list[dict], Exception | None, dict]:
    """Run one execution unit; returns ``(records, error, meta)``.

    ``NotStabilized`` is not a defect — one replicate ran out of budget:
    the records that did land reach the parent (and the store)
    *alongside* the failure (see :func:`execute_batch`), and the parent
    re-raises after landing them.  Genuine defects raise.

    ``meta`` describes how the unit actually executed: ``kind`` as
    dispatched, ``fallback`` when a batch degraded to serial trials, and
    ``phases`` — this unit's telemetry delta (a
    :meth:`~repro.telemetry.phases.PhaseStats.since` snapshot), so the
    parent of a worker *process* can fold hot-path phase timings back
    into its own collector.  ``None`` when telemetry is off.
    """
    from ..core.exceptions import NotStabilized

    kind, payload, campaign_seed, campaign = args
    stats = telemetry.collector()
    mark = stats.mark() if stats is not None else None
    fallback = False
    try:
        if kind != "batch":
            records, error = [execute_trial(payload, campaign_seed, campaign)], None
        else:
            records, error, fallback = execute_batch(payload, campaign_seed, campaign)
    except NotStabilized as exc:
        # Single-trial budget exhaustion: nothing landed, but the parent
        # still owns the raise (so it can emit the failure event first).
        records, error = [], exc
    meta = {
        "kind": kind,
        "fallback": fallback,
        "keys": _unit_keys(kind, payload),
        "phases": stats.since(mark) if stats is not None else None,
    }
    return records, error, meta


def default_chunksize(total: int, workers: int) -> int:
    """Chunk so each worker sees ~4 batches: big enough to amortize IPC,
    small enough to keep the tail balanced when trial costs vary."""
    return max(1, total // (workers * 4) or 1)


def _unit_keys(kind: str, item: Any) -> list[str]:
    """Canonical trial keys an execution unit is responsible for."""
    if kind == "batch":
        return [spec.key() for spec in item]
    return [item.key()]


# ----------------------------------------------------------------------
# Supervised execution (FailurePolicy)
# ----------------------------------------------------------------------
@dataclass
class _WorkItem:
    """One schedulable unit in the supervised executor's queue."""

    kind: str                     # "batch" | "single"
    payload: Any                  # tuple[TrialSpec] | TrialSpec
    tier: str                     # "batch" | "single" | "dict"
    retries: int = 0
    not_before: float = 0.0

    @property
    def keys(self) -> list[str]:
        return _unit_keys(self.kind, self.payload)


def _supervised_worker(conn, args) -> None:
    """Body of one long-lived supervised worker process.

    ``args`` is ``(campaign_seed, campaign, inherited)``.  ``inherited``
    holds the parent-side pipe ends the fork copied into this process;
    they are closed first, so the parent's death reaches the worker as
    EOF.  The worker then receives units ``(kind, payload)`` over
    ``conn`` and replies ``(records, info, meta)`` per unit, until a
    ``None`` sentinel or EOF, and returns normally.  SIGINT is ignored:
    the parent owns the worker's lifetime.

    A unit never raises into the sweep: a genuine defect (poison trial)
    is reported as an ``error`` failure so the parent can
    retry/degrade/quarantine it.  The chaos hook fires *before* each
    unit executes (see :mod:`repro.engine.chaos`), so a tripped unit
    cannot have landed partial results.
    """
    campaign_seed, campaign, inherited = args
    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from ..core.exceptions import NotStabilized
    from . import chaos

    try:
        while (unit := conn.recv()) is not None:
            kind, payload = unit
            keys = _unit_keys(kind, payload)
            chaos.trip(keys)
            try:
                records, error, meta = _worker(
                    (kind, payload, campaign_seed, campaign)
                )
                info = None
                if error is not None:
                    reason = "budget" if isinstance(error, NotStabilized) else "error"
                    info = {"reason": reason, "message": str(error)}
            except Exception as exc:
                records = []
                info = {"reason": "error", "message": f"{type(exc).__name__}: {exc}"}
                meta = {"kind": kind, "fallback": False, "keys": keys, "phases": None}
            conn.send((records, info, meta))
    except (EOFError, OSError):
        pass  # the parent is gone
    finally:
        conn.close()


def _dict_fallback(spec: TrialSpec) -> TrialSpec:
    """The same trial pinned to the dict reference engine.

    ``backend`` is an execution option: excluded from the trial key, so
    the degraded record is byte-identical to what the kernel tier would
    have produced.  The decoded measurement tier rides along implicitly
    (the dict engine never fuses).
    """
    params = tuple(
        (k, v) for k, v in spec.params if k != "backend"
    ) + (("backend", "dict"),)
    return replace(spec, params=params)


def _is_dict_tier(spec: TrialSpec) -> bool:
    return dict(spec.params).get("backend") == "dict"


def _run_supervised(
    units: Sequence[tuple[str, Any]],
    campaign_seed: int,
    campaign: str,
    *,
    workers: int,
    policy: FailurePolicy,
    land_records: Callable[[list[dict], dict], None],
    quarantine: Callable[[str, str, int, str], None],
    landed: Callable[[str], bool],
    absorb: Callable[[dict], None],
) -> None:
    """Drive all units to completion under a :class:`FailurePolicy`.

    At most ``max(1, workers)`` long-lived worker processes, forked
    lazily when a unit needs a slot and none is idle, each with its own
    duplex pipe — a worker killed mid-write can corrupt only its own
    channel, never a shared queue.  A unit's deadline starts when it is
    sent.  A worker that times out is killed, one that crashes is
    dropped, and one that reports an ``error`` is retired, so a retry
    never runs in the process that just failed.  On return or exception
    every worker is stopped and joined.  The parent is the only writer
    of the store, exactly as on the pool path.
    """
    ctx = multiprocessing.get_context()
    capacity = max(1, workers)
    pending: list[_WorkItem] = [
        _WorkItem(
            kind,
            payload,
            tier=(
                "batch" if kind == "batch"
                else "dict" if _is_dict_tier(payload)
                else "single"
            ),
        )
        for kind, payload in units
    ]
    # Live workers; ``item`` is None while a worker is idle.
    live: list[dict] = []

    def unlanded(item: _WorkItem) -> list[str]:
        return [key for key in item.keys if not landed(key)]

    def fail(item: _WorkItem, reason: str, message: str) -> None:
        now = time.monotonic()
        if item.retries < policy.max_retries:
            item.retries += 1
            item.not_before = now + policy.backoff * (2 ** (item.retries - 1))
            pending.append(item)
            return
        if policy.degrade and item.kind == "batch":
            # One rung down: the cell's replicates as single trials.
            pending.extend(
                _WorkItem("single", spec, tier="single")
                for spec in item.payload
                if not landed(spec.key())
            )
            return
        if policy.degrade and item.tier == "single":
            pending.append(
                _WorkItem("single", _dict_fallback(item.payload), tier="dict")
            )
            return
        for key in unlanded(item):
            quarantine(key, reason, item.retries, message)

    def spawn() -> dict:
        parent_conn, child_conn = ctx.Pipe()
        inherited = tuple(entry["conn"] for entry in live) + (parent_conn,)
        proc = ctx.Process(
            target=_supervised_worker,
            args=(child_conn, (campaign_seed, campaign, inherited)),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        entry = {"proc": proc, "conn": parent_conn, "item": None, "deadline": None}
        live.append(entry)
        return entry

    def dispatch(item: _WorkItem) -> None:
        entry = next((e for e in live if e["item"] is None), None) or spawn()
        entry["item"] = item
        if policy.trial_timeout is not None:
            entry["deadline"] = (
                time.monotonic() + policy.trial_timeout * len(item.keys)
            )
        try:
            entry["conn"].send((item.kind, item.payload))
        except OSError:
            pass  # died while idle: the wait below reports the crash

    def stop(entry: dict) -> None:
        """Kill a busy worker; send an idle one the sentinel.  Join it."""
        live.remove(entry)
        if entry["item"] is not None:
            entry["proc"].kill()
        else:
            try:
                entry["conn"].send(None)
            except OSError:
                pass  # already gone
        entry["conn"].close()
        entry["proc"].join()

    try:
        while pending or any(e["item"] is not None for e in live):
            now = time.monotonic()
            while len(live) < capacity or any(e["item"] is None for e in live):
                idx = next(
                    (i for i, it in enumerate(pending) if it.not_before <= now),
                    None,
                )
                if idx is None:
                    break
                dispatch(pending.pop(idx))

            busy = [e for e in live if e["item"] is not None]
            wakeups = [e["deadline"] for e in busy if e["deadline"] is not None]
            wakeups += [it.not_before for it in pending if it.not_before > now]
            ready = multiprocessing.connection.wait(
                [e["conn"] for e in busy] + [e["proc"].sentinel for e in busy],
                timeout=max(0.0, min(wakeups) - now) if wakeups else None,
            )
            now = time.monotonic()
            for entry in busy:
                item = entry["item"]
                if entry["conn"] in ready or entry["proc"].sentinel in ready:
                    try:
                        records, info, meta = entry["conn"].recv()
                    except (EOFError, OSError):
                        stop(entry)
                        fail(item, "crash",
                             f"worker died (exit {entry['proc'].exitcode}) "
                             f"before reporting")
                        continue
                    entry["item"] = entry["deadline"] = None
                    if info is not None and info["reason"] == "error":
                        stop(entry)  # retries never reuse a failed process
                    absorb(meta.get("phases"))
                    land_records(records, meta)
                    if info is not None:
                        if info["reason"] == "budget":
                            # Deterministic: a seeded trial cannot stabilize
                            # on retry.  Siblings already landed above.
                            for key in unlanded(item):
                                quarantine(key, "budget", item.retries,
                                           info["message"])
                        else:
                            fail(item, info["reason"], info["message"])
                elif entry["deadline"] is not None and now >= entry["deadline"]:
                    stop(entry)
                    fail(item, "timeout",
                         f"unit exceeded its deadline "
                         f"({policy.trial_timeout:g}s per trial)")
    finally:
        for entry in list(live):
            stop(entry)


def run_specs(
    specs: Sequence[TrialSpec] | Iterable[TrialSpec],
    campaign_seed: int,
    *,
    campaign: str = "",
    workers: int = 0,
    chunksize: int | None = None,
    progress: ProgressFn | None = None,
    store: ResultStore | None = None,
    batch: bool = True,
    events=None,
    heartbeat_every: float = HEARTBEAT_EVERY,
    policy: FailurePolicy | None = None,
    failures: list | None = None,
) -> list[dict]:
    """Execute all ``specs``; return their records in spec order.

    Replicates sharing a grid cell run as one vectorized batch unless
    ``batch=False`` (records are identical either way).  ``workers <= 1``
    runs serially in-process; ``workers >= 2`` fans out to that many OS
    processes (capped by the number of batches and single trials), one
    batch or single trial per work item.  Completed
    records are appended to ``store`` (if given) as they arrive, so an
    interrupted run keeps everything that finished —
    :func:`repro.engine.resume.run_campaign` picks up the rest.

    Landing is idempotent per trial key: a record whose key already
    landed is dropped (no duplicate store append, no extra ``progress``
    call), so ``progress`` fires exactly once per trial whatever the
    batch shapes or arrival order.

    ``events`` (an :class:`repro.telemetry.events.EventSink`, optional)
    receives the campaign lifecycle: ``cell_composed`` when units are
    dispatched, ``trial_finished`` per landed record, ``trial_failed``
    for a unit's unlanded trials before the failure re-raises, and a
    throttled ``heartbeat`` (every ``heartbeat_every`` seconds) with
    utilization and throughput.  On the multiprocessing path each
    worker's hot-path phase timings are folded back into the parent's
    telemetry collector, so a sweep's phase breakdown covers the
    children's work too.

    ``policy`` (a :class:`FailurePolicy`) switches to the *supervised*
    executor: per-trial deadlines, bounded retries with backoff for
    crashed workers, a batch → serial → dict degradation ladder, and
    poison-trial quarantine.  With a policy, a failing trial no longer
    aborts the sweep: the rest of the grid completes, quarantined
    trials are appended to ``failures`` (a caller-supplied list of
    ``{key, reason, retries, error}`` dicts) and the returned list
    covers only the trials that landed.
    """
    specs = list(specs)
    total = len(specs)
    records_by_key: dict[str, dict] = {}
    started = time.monotonic()
    last_beat = started
    stats = telemetry.collector()

    def heartbeat() -> None:
        nonlocal last_beat
        if events is None:
            return
        now = time.monotonic()
        if now - last_beat < heartbeat_every:
            return
        last_beat = now
        done = len(records_by_key)
        elapsed = now - started
        rate = done / elapsed if elapsed > 0 else 0.0
        events.emit(
            "heartbeat",
            done=done,
            total=total,
            elapsed_s=round(elapsed, 3),
            trials_per_s=round(rate, 3),
            eta_s=round((total - done) / rate, 1) if rate > 0 else None,
        )

    def land(record: dict, meta: dict) -> None:
        if record["key"] in records_by_key:
            return  # already landed (e.g. duplicate across units): once only
        records_by_key[record["key"]] = record
        if store is not None:
            store.append(record)
        if events is not None:
            events.emit(
                "trial_finished",
                key=record["key"],
                status="ok",
                steps=record.get("result", {}).get("steps"),
                unit=meta.get("kind"),
                fallback=meta.get("fallback", False),
            )
        if progress is not None:
            progress(len(records_by_key), total, record)
        heartbeat()

    units = _execution_units(specs, batch)
    payload = [(kind, item, campaign_seed, campaign) for kind, item in units]
    if events is not None:
        for kind, item in units:
            cell = item[0].cell_key() if kind == "batch" else item.cell_key()
            events.emit(
                "cell_composed",
                cell=cell,
                trials=len(item) if kind == "batch" else 1,
                kind=kind,
            )

    def land_unit(
        result: tuple[list[dict], Exception | None, dict],
        absorb_phases: bool,
    ) -> None:
        records, error, meta = result
        # Worker *processes* timed their hot paths into their own
        # collectors; fold the delta into ours.  In-process units already
        # accumulated here — absorbing again would double count.
        if absorb_phases and stats is not None:
            stats.absorb(meta.get("phases"))
        for record in records:
            land(record, meta)
        if error is not None:
            if events is not None:
                from ..core.exceptions import NotStabilized

                reason = "budget" if isinstance(error, NotStabilized) else "error"
                for key in meta.get("keys", ()):
                    if key not in records_by_key:
                        events.emit(
                            "trial_failed", key=key, error=str(error),
                            reason=reason, retries=0,
                        )
            raise error

    if policy is not None:
        def quarantine(key: str, reason: str, retries: int, message: str) -> None:
            if failures is not None:
                failures.append(
                    {"key": key, "reason": reason, "retries": retries,
                     "error": message}
                )
            if events is not None:
                events.emit(
                    "trial_failed", key=key, error=message,
                    reason=reason, retries=retries,
                )

        def land_records(records: list[dict], meta: dict) -> None:
            for record in records:
                land(record, meta)

        _run_supervised(
            units, campaign_seed, campaign,
            workers=workers, policy=policy,
            land_records=land_records,
            quarantine=quarantine,
            landed=lambda key: key in records_by_key,
            absorb=(stats.absorb if stats is not None else lambda delta: None),
        )
        return [
            records_by_key[spec.key()]
            for spec in specs
            if spec.key() in records_by_key
        ]

    if workers <= 1 or total <= 1:
        for args in payload:
            land_unit(_worker(args), absorb_phases=False)
    else:
        workers = min(workers, len(units))
        chunk = (
            chunksize
            if chunksize is not None
            else default_chunksize(len(units), workers)
        )
        with multiprocessing.Pool(workers) as pool:
            for result in pool.imap_unordered(_worker, payload, chunksize=chunk):
                land_unit(result, absorb_phases=True)

    return [records_by_key[spec.key()] for spec in specs]
