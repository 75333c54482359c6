"""Trial executor: batched cells, supervised worker processes.

``run_specs`` drives a list of :class:`~repro.engine.campaign.TrialSpec`
descriptors to completion.  Replicate trials that share a grid cell are
*batched* (``batch="auto"``): the whole cell runs as one tiled
multi-trial simulation (:func:`repro.harness.runner.run_trial_batch`),
one guard evaluation serving every replicate per step.  The execution
units — batches and leftover single trials — run in-process when
``workers <= 1`` and no :class:`FailurePolicy` is given, which keeps
debugging, coverage, and tracing trivial.  Otherwise they run on the
one multi-process executor, :func:`_run_supervised`: long-lived forked
workers, each fed one unit at a time over its own pipe, so a worker
that dies or hangs is noticed instead of stalling the sweep.  Either
way results stream back to the parent, which is the *only* writer of
the result store — workers compute, the parent persists, so no file
locking is needed.

Because every trial's seed derives from its descriptor (not from
execution order, worker count, or batch shape), all paths produce
byte-identical records.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pickle
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
    "FailurePolicy",
]

#: ``progress(done, total, record)`` — invoked in the parent exactly once
#: per landed trial (and per skipped/streamed record on resume paths).
ProgressFn = Callable[[int, int, dict], None]

#: Seconds between checkpoints: a ``heartbeat`` event on the event sink,
#: then an fsync of the store and the sink (wall-clock throttle; the check
#: itself runs once per landed record).
HEARTBEAT_EVERY = 10.0


@dataclass(frozen=True)
class FailurePolicy:
    """What a failing unit does: retry, step down, then quarantine.

    Without a policy, the first failing unit aborts the sweep on every
    path: its landed records stay, its other trials get a
    ``trial_failed`` event (0 retries), every worker is stopped, and the
    unit's own exception is raised — a
    :class:`~repro.core.exceptions.ReproError` when a worker died or
    the exception does not pickle.  With one, a failing unit is

    1. **retried** on the same tier up to ``max_retries`` times with
       exponential backoff (``backoff * 2**attempt`` seconds), then
    2. **stepped down** one rung of the ladder *batch → serial →
       dict* — a failing batch splits into single trials, a failing
       single trial re-runs on the dict reference engine (an execution
       option, so its key and record bytes are unchanged), then
    3. **quarantined**: a ``trial_failed`` event carrying ``reason``
       (``crash``/``timeout``/``error``/``budget``) and ``retries``
       is emitted, the failure is reported to the caller, and the rest
       of the grid keeps running.  Siblings of a failed replicate land
       exactly once.

    A policy runs even a ``workers <= 1`` sweep on a supervised worker.
    ``trial_timeout`` is a per-trial wall-clock deadline in seconds
    (a batch unit's deadline scales with its replicate count); ``None``
    disables deadlines.  Budget exhaustion (``NotStabilized``) is
    deterministic, so it quarantines immediately — retrying cannot
    change a seeded trial's outcome.
    """

    trial_timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.5

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

    A unit never raises: ``error`` is whatever stopped it.  For
    ``NotStabilized`` (one replicate ran out of budget) the records that
    did land come back *alongside* it (see :func:`execute_batch`); for a
    genuine defect ``records`` is empty.  The caller lands the records
    first, then decides what the failure does.

    ``meta`` describes how the unit actually executed: ``kind`` as
    dispatched, ``fallback`` when a batch fell back to serial trials, and
    ``phases`` — this unit's telemetry delta (a
    :meth:`~repro.telemetry.phases.PhaseStats.since` snapshot), so the
    parent of a worker *process* can fold hot-path phase timings back
    into its own collector.  ``None`` when telemetry is off.
    """
    kind, payload, campaign_seed, campaign = args
    stats = telemetry.collector()
    mark = stats.mark() if stats is not None else None
    records: list[dict] = []
    error: Exception | None = None
    fallback = False
    try:
        if kind != "batch":
            records = [execute_trial(payload, campaign_seed, campaign)]
        else:
            records, error, fallback = execute_batch(payload, campaign_seed, campaign)
    except Exception as exc:
        error = exc
    meta = {
        "kind": kind,
        "fallback": fallback,
        "keys": _unit_keys(kind, payload),
        "phases": stats.since(mark) if stats is not None else None,
    }
    return records, error, meta


def _failure(error: Exception) -> tuple[str, str]:
    """``(reason, message)`` for a unit's error: budget exhaustion is
    deterministic, anything else is a defect."""
    from ..core.exceptions import NotStabilized

    if isinstance(error, NotStabilized):
        return "budget", str(error)
    return "error", f"{type(error).__name__}: {error}"


def _unit_keys(kind: str, item: Any) -> list[str]:
    """Canonical trial keys an execution unit is responsible for."""
    if kind == "batch":
        return [spec.key() for spec in item]
    return [item.key()]


# ----------------------------------------------------------------------
# Supervised execution (every multi-process sweep, and any FailurePolicy)
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

    A unit never raises into the sweep: a failing unit's ``info`` is
    ``{reason, message, error}`` (see :func:`_failure`), where ``error``
    is the exception itself for the parent to re-raise, or ``None`` when
    it does not survive pickling.  The chaos hook fires *before* each
    unit executes (see :mod:`repro.engine.chaos`), so a tripped unit
    cannot have landed partial results.
    """
    campaign_seed, campaign, inherited = args
    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from . import chaos

    try:
        while (unit := conn.recv()) is not None:
            kind, payload = unit
            chaos.trip(_unit_keys(kind, payload))
            records, error, meta = _worker((kind, payload, campaign_seed, campaign))
            info = None
            if error is not None:
                reason, message = _failure(error)
                try:
                    pickle.loads(pickle.dumps(error))
                except Exception:
                    error = None
                info = {"reason": reason, "message": message, "error": error}
            conn.send((records, info, meta))
    except (EOFError, OSError):
        pass  # the parent is gone
    finally:
        conn.close()


def _dict_fallback(spec: TrialSpec) -> TrialSpec:
    """The same trial pinned to the dict reference engine.

    ``backend`` is an execution option: excluded from the trial key and
    from the rendered spec, so the dict-tier record is byte-identical to
    the kernel tier's.
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
    policy: FailurePolicy | None,
    land_records: Callable[[list[dict], dict], None],
    quarantine: Callable[[str, str, int, str], None],
    landed: Callable[[str], bool],
    absorb: Callable[[dict], None],
) -> None:
    """Drive all units to completion on supervised worker processes.

    At most ``max(1, workers)`` long-lived worker processes, forked
    lazily when a unit needs a slot and none is idle, each with its own
    duplex pipe — a worker killed mid-write can corrupt only its own
    channel, never a shared queue.  A unit's deadline starts when it is
    sent.  A worker that times out is killed, one that crashes is
    dropped, and one that reports an ``error`` is retired, so a retry
    never runs in the process that just failed.  A failing unit follows
    ``policy``, or aborts the sweep without one (see
    :class:`FailurePolicy`).  On return or exception every worker is
    stopped and joined.
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

    def fail(
        item: _WorkItem, reason: str, message: str,
        error: Exception | None = None,
    ) -> None:
        # Budget exhaustion is deterministic: a seeded trial cannot
        # stabilize on a retry or on another rung.
        if policy is not None and reason != "budget":
            if item.retries < policy.max_retries:
                item.retries += 1
                item.not_before = (
                    time.monotonic() + policy.backoff * (2 ** (item.retries - 1))
                )
                pending.append(item)
                return
            if item.kind == "batch":
                # One rung down: the cell's replicates as single trials.
                pending.extend(
                    _WorkItem("single", spec, tier="single")
                    for spec in item.payload
                    if not landed(spec.key())
                )
                return
            if item.tier == "single":
                pending.append(
                    _WorkItem("single", _dict_fallback(item.payload), tier="dict")
                )
                return
        for key in unlanded(item):
            quarantine(key, reason, item.retries, message)
        if policy is None:
            from ..core.exceptions import ReproError

            raise error if error is not None else ReproError(message)

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
        if policy is not None and policy.trial_timeout is not None:
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

    def fill() -> None:
        """Hand every due pending unit to an idle (or a new) worker."""
        now = time.monotonic()
        while len(live) < capacity or any(e["item"] is None for e in live):
            idx = next(
                (i for i, it in enumerate(pending) if it.not_before <= now),
                None,
            )
            if idx is None:
                break
            dispatch(pending.pop(idx))

    try:
        while pending or any(e["item"] is not None for e in live):
            fill()
            now = time.monotonic()
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
                    # Refill first: workers compute while the parent
                    # lands this unit's records (written and flushed;
                    # fsynced at run_specs' checkpoints).
                    fill()
                    absorb(meta.get("phases"))
                    land_records(records, meta)
                    if info is not None:
                        fail(item, info["reason"], info["message"], info["error"])
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
    ``batch=False`` (records are identical either way).  With
    ``workers <= 1`` and no ``policy`` the units run serially
    in-process; otherwise they run on up to ``max(1, workers)``
    supervised worker processes (:func:`_run_supervised`), one batch or
    single trial per work item.  Completed
    records are appended to ``store`` (if given) as they arrive, so an
    interrupted run keeps everything that finished —
    :func:`repro.engine.resume.run_campaign` picks up the rest.

    Each record is written and flushed before ``progress`` sees it, so
    a crash of this process loses no landed record.  The store and the
    event sink are fsynced at checkpoints: every ``heartbeat_every``
    seconds and once when the sweep ends, fails or is interrupted, so a
    host crash loses at most what landed since the last checkpoint.

    Landing is idempotent per trial key: a record whose key already
    landed is dropped (no duplicate store append, no extra ``progress``
    call), so ``progress`` fires exactly once per trial whatever the
    batch shapes or arrival order.

    ``events`` (an :class:`repro.telemetry.events.EventSink`, optional)
    receives the campaign lifecycle: ``cell_composed`` when units are
    dispatched, ``trial_finished`` per landed record, ``trial_failed``
    per failed trial, and a
    throttled ``heartbeat`` (every ``heartbeat_every`` seconds) with
    utilization and throughput.  Each worker process's hot-path phase
    timings are folded back into the parent's telemetry collector, so a
    sweep's phase breakdown covers the children's work too.

    ``policy`` (a :class:`FailurePolicy`) decides what a failing unit
    does: retry, step down and quarantine it while the rest of the grid
    completes.  Without one the first failure aborts the sweep, on
    every path alike (see :class:`FailurePolicy`).  Failed trials are
    appended to ``failures`` (a caller-supplied list of ``{key, reason,
    retries, error}`` dicts); the returned list covers only the trials
    that landed.
    """
    specs = list(specs)
    total = len(specs)
    records_by_key: dict[str, dict] = {}
    started = time.monotonic()
    last_beat = started
    stats = telemetry.collector()

    def sync() -> None:
        if store is not None:
            store.sync()
        if events is not None:
            events.sync()

    def checkpoint() -> None:
        nonlocal last_beat
        now = time.monotonic()
        if now - last_beat < heartbeat_every:
            return
        last_beat = now
        if events is not None:
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
        sync()

    def land_records(records: list[dict], meta: dict) -> None:
        for record in records:
            if record["key"] in records_by_key:
                continue  # already landed (e.g. duplicate across units): once only
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
            checkpoint()

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

    units = _execution_units(specs, batch)
    if events is not None:
        events.emit_many(
            ("cell_composed", {
                "cell": item[0].cell_key() if kind == "batch" else item.cell_key(),
                "trials": len(item) if kind == "batch" else 1,
                "kind": kind,
            })
            for kind, item in units
        )

    try:
        if policy is None and workers <= 1:
            # In-process units accumulate phase timings straight into our
            # collector: nothing to absorb.
            for kind, item in units:
                records, error, meta = _worker((kind, item, campaign_seed, campaign))
                land_records(records, meta)
                if error is not None:
                    reason, message = _failure(error)
                    for key in meta["keys"]:
                        if key not in records_by_key:
                            quarantine(key, reason, 0, message)
                    raise error
        else:
            _run_supervised(
                units, campaign_seed, campaign,
                workers=workers, policy=policy,
                land_records=land_records,
                quarantine=quarantine,
                landed=lambda key: key in records_by_key,
                absorb=(stats.absorb if stats is not None else lambda delta: None),
            )
    finally:
        sync()
    return [
        records_by_key[spec.key()]
        for spec in specs
        if spec.key() in records_by_key
    ]
