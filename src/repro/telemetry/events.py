"""Campaign lifecycle events: a structured, crash-tolerant JSONL log.

The campaign engine (:mod:`repro.engine.pool` / :mod:`repro.engine.resume`)
emits one event per lifecycle transition — campaign started/finished,
batch cell composed, trial finished/failed, periodic heartbeats — to a
pluggable *sink*.  The default sink is a JSONL file next to the result
store (``results.jsonl`` → ``results.events.jsonl``), written with the
same append-and-fsync discipline as the store itself (one fsync per
:meth:`EventSink.emit`, or per :meth:`EventSink.emit_many` batch), so a
crashed or still-running sweep leaves a log whose intact prefix is
always readable (:func:`read_events` tolerates a truncated tail exactly
like ``ResultStore.iter_records``).

Event shape (schema version 1)::

    {"v": 1, "ts": <unix seconds>, "event": "<type>", ...payload}

Event types and their payloads:

``campaign_started``
    ``total`` (trial count), ``pending`` (not yet in the store),
    ``workers``, ``batch``, ``store`` (path or null).
``cell_composed``
    ``cell`` (cell key), ``trials``, ``kind`` ("batch").
``trial_finished``
    ``key``, ``status``, ``steps``, ``unit`` ("batch"/"serial"),
    ``fallback`` (bool: a batch cell that fell back to serial).
``trial_failed``
    ``key``, ``error`` (message string), ``reason``
    (``crash``/``timeout``/``error``/``budget``), ``retries`` (attempts
    beyond the first on the tier that finally failed).
``heartbeat``
    ``done``, ``total``, ``elapsed_s``, ``trials_per_s``, ``eta_s``
    (null until estimable), ``utilization`` (done workers' share of
    wall time; null when unknowable).
``campaign_finished``
    ``done``, ``total``, ``elapsed_s``, ``trials_per_s``,
    ``phase_stats`` (merged telemetry breakdown or null).

Events are observability output, never inputs: resume logic reads only
the result store, so deleting an event log loses history but can never
change what a campaign computes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Iterable, Iterator

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventError",
    "EventSink",
    "JsonlEventSink",
    "MemoryEventSink",
    "events_path_for",
    "read_events",
    "validate_event",
]

EVENT_SCHEMA_VERSION = 1

#: Required payload fields per event type (beyond the ``v``/``ts``/
#: ``event`` envelope).  Extra fields are allowed; missing ones are not.
EVENT_TYPES = {
    "campaign_started": ("total", "pending", "workers", "batch", "store"),
    "cell_composed": ("cell", "trials", "kind"),
    "trial_finished": ("key", "status", "steps", "unit", "fallback"),
    "trial_failed": ("key", "error", "reason", "retries"),
    "heartbeat": ("done", "total", "elapsed_s", "trials_per_s", "eta_s"),
    "campaign_finished": ("done", "total", "elapsed_s", "trials_per_s"),
}


class EventError(ValueError):
    """An event violates the schema (unknown type / missing fields)."""


def validate_event(event: dict) -> dict:
    """Check an event against the schema; return it unchanged.

    Raises :class:`EventError` on an unknown type, a missing envelope
    field, or a missing required payload field.
    """
    for field in ("v", "ts", "event"):
        if field not in event:
            raise EventError(f"event missing envelope field {field!r}: {event!r}")
    if event["v"] != EVENT_SCHEMA_VERSION:
        raise EventError(
            f"unsupported event schema version {event['v']!r} "
            f"(expected {EVENT_SCHEMA_VERSION})"
        )
    etype = event["event"]
    required = EVENT_TYPES.get(etype)
    if required is None:
        raise EventError(f"unknown event type {etype!r}")
    missing = [f for f in required if f not in event]
    if missing:
        raise EventError(f"event {etype!r} missing fields {missing}: {event!r}")
    return event


def events_path_for(store_path: str | os.PathLike) -> Path:
    """The sidecar event-log path for a result store.

    ``results.jsonl`` → ``results.events.jsonl`` (the store's suffix is
    replaced, so the pair sorts together in a directory listing).
    """
    path = Path(store_path)
    return path.with_name(path.stem + ".events.jsonl")


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class EventSink:
    """Where lifecycle events go.  Subclasses override :meth:`_write`."""

    def emit(self, event_type: str, **payload) -> dict:
        """Stamp the envelope, validate, and record one event."""
        return self.emit_many([(event_type, payload)])[0]

    def emit_many(self, events: Iterable[tuple[str, dict]]) -> list[dict]:
        """Stamp and validate every ``(event_type, payload)``, then record
        them in order as one write; nothing is written if one is invalid."""
        ts = round(time.time(), 3)
        stamped = [
            validate_event(
                {"v": EVENT_SCHEMA_VERSION, "ts": ts, "event": event_type,
                 **payload}
            )
            for event_type, payload in events
        ]
        if stamped:
            self._write(stamped)
        return stamped

    def _write(self, events: list[dict]) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting after close is an error."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryEventSink(EventSink):
    """Keep events in a list — for tests and in-process consumers."""

    def __init__(self):
        self.events: list[dict] = []

    def _write(self, events: list[dict]) -> None:
        self.events.extend(events)


class JsonlEventSink(EventSink):
    """Append events to a JSONL file, one line per event and one fsync
    per write.

    The same durability discipline as ``ResultStore.append``: a crash
    mid-write can corrupt at most the final line written, which
    :func:`read_events` skips, so the lines before it read as a prefix.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = open(self.path, "a", encoding="utf-8")

    def _write(self, events: list[dict]) -> None:
        if self._fh is None:
            raise EventError(f"event sink for {self.path} is closed")
        self._fh.write("".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in events
        ))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_events(
    path: str | os.PathLike,
    *,
    strict: bool = False,
) -> Iterator[dict]:
    """Yield validated events from a JSONL log, oldest first.

    Tolerant by default: a missing file yields nothing, and reading
    stops silently at the first undecodable or schema-violating line —
    the signature a crashed writer leaves.  ``strict=True`` raises
    :class:`EventError` instead (corruption detection in tests).
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = validate_event(json.loads(line))
            except (json.JSONDecodeError, EventError) as exc:
                if strict:
                    raise EventError(
                        f"{path}:{lineno}: bad event line: {exc}"
                    ) from exc
                return
            yield event
