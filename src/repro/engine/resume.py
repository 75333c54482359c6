"""Campaign-level orchestration: diff the grid against the store, run the rest.

``run_campaign`` is the engine's front door.  It expands the campaign
grid, subtracts the trials whose records are already in the store (matched
by canonical key *and* campaign seed, so stores can be shared between
campaigns without cross-talk), executes only what is missing, and returns
the full grid's records in deterministic grid order.  A campaign killed at
trial 900/1000 therefore costs 100 trials to finish, not 1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .campaign import Campaign, TrialSpec
from .pool import FailurePolicy, ProgressFn, run_specs
from .store import ResultStore

__all__ = ["CampaignOutcome", "completed_records", "missing_specs", "run_campaign"]


@dataclass
class CampaignOutcome:
    """What a (possibly resumed) campaign run produced.

    ``records`` always covers the *whole* grid, in grid order — stored
    records for skipped trials, fresh records for executed ones.  Under a
    :class:`~repro.engine.pool.FailurePolicy`, quarantined trials are
    listed in ``failures`` (``{key, reason, retries, error}`` dicts) and
    omitted from ``records``; without a policy ``failures`` is empty.
    """

    campaign: Campaign
    records: list[dict] = field(default_factory=list)
    ran: int = 0
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)


def completed_records(campaign: Campaign, store: ResultStore) -> dict[str, dict]:
    """Stored records belonging to this campaign, keyed by trial key.

    A record counts only if its ``campaign_seed`` matches: the same grid
    under a different master seed is a different experiment, and its
    results must not satisfy this one's resume check.
    """
    done: dict[str, dict] = {}
    if not store.exists():
        return done
    wanted = campaign.keys()
    for record in store.iter_records():
        key = record.get("key")
        if key in wanted and record.get("campaign_seed") == campaign.seed:
            done[key] = record
    return done


def missing_specs(campaign: Campaign, store: ResultStore) -> list[TrialSpec]:
    """The grid minus what the store already holds (in grid order)."""
    done = completed_records(campaign, store)
    return [spec for spec in campaign.iter_specs() if spec.key() not in done]


def run_campaign(
    campaign: Campaign,
    *,
    store: ResultStore | None = None,
    workers: int = 0,
    resume: bool = False,
    progress: ProgressFn | None = None,
    batch: bool = True,
    events=None,
    policy: FailurePolicy | None = None,
) -> CampaignOutcome:
    """Execute a campaign, optionally resuming from a partial store.

    Without ``resume`` every trial runs (and is appended to ``store`` if
    one is given).  With ``resume`` the store is diffed first and only the
    missing trials execute; already-stored records are returned as-is.
    ``batch`` lets whole grid cells run as single vectorized multi-trial
    simulations (default; records are identical either way).

    ``events`` (an :class:`repro.telemetry.events.EventSink`, optional)
    receives ``campaign_started`` before any trial runs, the per-trial
    lifecycle from :func:`repro.engine.pool.run_specs`, and
    ``campaign_finished`` on success — the finish event carries the
    process's telemetry phase breakdown when phase tracing is enabled.
    A crashed run leaves the log without a finish event, which is how
    the ``status`` reader distinguishes running/crashed from done.

    Without a ``policy`` the first failing trial aborts the sweep.  With
    a :class:`~repro.engine.pool.FailurePolicy` a failing trial is
    retried, stepped down the batch → serial → dict ladder, and finally
    quarantined into ``outcome.failures`` instead of aborting the sweep
    — the rest of the grid always completes, and the returned records
    cover every trial that landed.
    """
    import time

    from ..telemetry import phases as telemetry

    specs = campaign.specs()
    existing: dict[str, dict] = {}
    if resume and store is not None:
        existing = completed_records(campaign, store)

    todo = [spec for spec in specs if spec.key() not in existing]
    if events is not None:
        events.emit(
            "campaign_started",
            total=campaign.size,
            pending=len(todo),
            workers=workers,
            batch=batch,
            store=str(store.path) if store is not None else None,
        )
    started = time.monotonic()
    failures: list[dict] = []
    fresh = run_specs(
        todo,
        campaign.seed,
        campaign=campaign.name,
        workers=workers,
        progress=progress,
        store=store,
        batch=batch,
        events=events,
        policy=policy,
        failures=failures,
    )
    if events is not None:
        elapsed = time.monotonic() - started
        events.emit(
            "campaign_finished",
            done=len(fresh),
            total=campaign.size,
            elapsed_s=round(elapsed, 3),
            trials_per_s=round(len(fresh) / elapsed, 3) if elapsed > 0 else 0.0,
            phase_stats=telemetry.snapshot(),
        )
    by_key = dict(existing)
    by_key.update((record["key"], record) for record in fresh)
    return CampaignOutcome(
        campaign=campaign,
        records=[by_key[s.key()] for s in specs if s.key() in by_key],
        ran=len(todo),
        skipped=len(specs) - len(todo),
        failures=failures,
    )
