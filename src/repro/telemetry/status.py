"""Inspect a running or crashed sweep from its store + event log.

``python -m repro.harness status --store results.jsonl`` answers "how far
did it get, how fast was it going, and what broke?" without touching the
campaign process: the answer is assembled purely from the two append-only
sidecars a sweep leaves behind —

* the result store (every *landed* trial, crash-tolerant tail), and
* the event log (lifecycle events: totals, failures, heartbeats).

Both readers tolerate truncated tails, so this works mid-run and after a
crash alike.  A sweep that predates event logging still yields a useful
summary from the store alone (counts per algorithm/daemon); the event-only
fields (total, throughput, failures) are simply null.
"""

from __future__ import annotations

import os
from typing import Any

from .events import events_path_for, read_events
from .provenance import read_manifest

__all__ = ["summarize_status", "render_status"]


def summarize_status(store_path: str | os.PathLike) -> dict:
    """Aggregate a sweep's store + event log into one JSON-safe summary.

    Returned fields: ``store`` (path), ``records`` (landed trials),
    ``total`` (campaign size from events, else null), ``by_algorithm``
    and ``by_daemon`` tallies, ``failures`` (list of ``{key, error,
    reason, retries}`` for failed trials the store does not hold — a
    later ``--resume`` that landed a trial clears its failure),
    ``last_event`` (type + age of the newest event), ``throughput``
    (latest heartbeat/finish metrics), ``running`` (best-effort: events
    exist and no ``campaign_finished`` yet), and ``manifest`` (the
    sidecar manifest's git/campaign identity, if present).
    """
    # Imported lazily: engine.store is telemetry-free and must stay so.
    from ..engine.store import ResultStore

    store = ResultStore(store_path)
    by_algorithm: dict[str, int] = {}
    by_daemon: dict[str, int] = {}
    records = 0
    landed: set[str] = set()
    for record in store.iter_records():
        records += 1
        landed.add(record.get("key"))
        spec = record.get("spec") or {}
        algorithm = spec.get("algorithm")
        if algorithm:
            by_algorithm[algorithm] = by_algorithm.get(algorithm, 0) + 1
        daemon = spec.get("daemon")
        if daemon:
            by_daemon[daemon] = by_daemon.get(daemon, 0) + 1

    total: int | None = None
    failures: list[dict] = []
    last_event: dict | None = None
    throughput: dict | None = None
    finished = False
    saw_events = False
    for event in read_events(events_path_for(store_path)):
        saw_events = True
        last_event = {"event": event["event"], "ts": event["ts"]}
        etype = event["event"]
        if etype == "campaign_started":
            total = event["total"]
            finished = False
        elif etype == "trial_failed" and event["key"] not in landed:
            failures.append(
                {
                    "key": event["key"],
                    "error": event["error"],
                    "reason": event.get("reason", "error"),
                    "retries": event.get("retries", 0),
                }
            )
        elif etype in ("heartbeat", "campaign_finished"):
            throughput = {
                "done": event["done"],
                "total": event["total"],
                "elapsed_s": event["elapsed_s"],
                "trials_per_s": event["trials_per_s"],
                "eta_s": event.get("eta_s"),
            }
            if etype == "campaign_finished":
                finished = True

    manifest = read_manifest(store_path)
    manifest_summary = None
    if manifest:
        manifest_summary = {
            "git": manifest.get("git"),
            "campaign": manifest.get("campaign"),
            "created_at": manifest.get("created_at"),
        }

    return {
        "store": str(store_path),
        "records": records,
        "total": total,
        "by_algorithm": dict(sorted(by_algorithm.items())),
        "by_daemon": dict(sorted(by_daemon.items())),
        "failures": failures,
        "last_event": last_event,
        "throughput": throughput,
        "running": saw_events and not finished,
        "manifest": manifest_summary,
    }


def render_status(summary: dict) -> str:
    """Human-readable rendering of a :func:`summarize_status` summary."""
    lines = [f"store: {summary['store']}"]

    total = summary["total"]
    progress = f"{summary['records']} trials landed"
    if total is not None:
        pct = 100 * summary["records"] // total if total else 0
        progress += f" of {total} ({pct}%)"
    state = (
        "running (or crashed mid-run)" if summary["running"]
        else "finished" if summary["last_event"] is not None
        else "no event log"
    )
    lines.append(f"progress: {progress} — {state}")

    if summary["by_algorithm"]:
        tally = ", ".join(f"{k}: {v}" for k, v in summary["by_algorithm"].items())
        lines.append(f"by algorithm: {tally}")
    if summary["by_daemon"]:
        tally = ", ".join(f"{k}: {v}" for k, v in summary["by_daemon"].items())
        lines.append(f"by daemon: {tally}")

    throughput = summary["throughput"]
    if throughput:
        line = (
            f"throughput: {throughput['trials_per_s']:.1f} trials/s "
            f"over {throughput['elapsed_s']:.1f}s"
        )
        if summary["running"] and throughput.get("eta_s") is not None:
            line += f", eta ~{throughput['eta_s']:.0f}s"
        lines.append(line)

    for failure in summary["failures"]:
        reason = failure.get("reason", "error")
        retries = failure.get("retries", 0)
        lines.append(
            f"FAILED {failure['key']} [{reason}, {retries} retries]: "
            f"{failure['error']}"
        )

    manifest = summary["manifest"]
    if manifest:
        git = manifest.get("git") or {}
        campaign = manifest.get("campaign") or {}
        bits = []
        if git.get("sha"):
            sha = git["sha"][:12] + ("+dirty" if git.get("dirty") else "")
            bits.append(f"git {sha}")
        if campaign.get("grid_hash"):
            bits.append(f"grid {campaign['grid_hash'][:12]}")
        if manifest.get("created_at"):
            bits.append(f"created {manifest['created_at']}")
        if bits:
            lines.append("manifest: " + ", ".join(bits))

    return "\n".join(lines)
