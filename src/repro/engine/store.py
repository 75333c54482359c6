"""Append-only JSONL result store keyed by trial descriptor.

One record per line, one line per trial; ``schema`` stamps every record so
future layouts can migrate old stores instead of guessing.  Landing a
record and making it durable are separate steps:

* :meth:`ResultStore.append` writes and flushes whole lines, so a *process*
  crash (``kill -9``, an OOM kill, a raised error) loses no landed record;
* :meth:`ResultStore.sync` fsyncs what was appended so far.  The campaign
  engine calls it at checkpoints (its heartbeat clock, and when a sweep
  ends, fails or is interrupted), so a *host* crash loses at most the
  records landed since the last checkpoint.

A crash can leave a torn final line (after a host crash, possibly a
zero-filled one), which :meth:`ResultStore.load` tolerates, the next
append trims, and :meth:`ResultStore.compact` drops; a resumed campaign
recomputes the lost trials byte for byte.  Whole-file rewrites go through a fsynced temp file +
``os.replace`` so readers never observe a half-written store.

Records are deliberately deterministic: no timestamps, hostnames, or pids.
The same campaign therefore produces byte-identical stores no matter how
many workers ran it or how often it was resumed.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import warnings
from typing import Any, Callable, Iterable, Iterator, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "StoreError",
    "ResultStore",
    "trial_to_dict",
    "trial_from_record",
]

#: Bump when the record layout changes; ``load`` refuses newer schemas.
SCHEMA_VERSION = 1


class StoreError(Exception):
    """Raised for unreadable or incompatible result stores."""


def _json_default(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"unserializable value of type {type(value).__name__}")


def _dump_line(record: Mapping[str, Any]) -> str:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=_json_default
    ) + "\n"


def _stamped_line(record: Mapping[str, Any]) -> str:
    """``record``'s store line, stamped with the schema version unless it
    carries one."""
    return _dump_line({"schema": SCHEMA_VERSION, **record})


class ResultStore:
    """Durable trial results at ``path`` (created lazily on first append)."""

    def __init__(self, path: str | os.PathLike):
        self.path = pathlib.Path(path)
        self._unsynced = False

    def exists(self) -> bool:
        return self.path.exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _heal_tail(self) -> None:
        """Truncate a crash-torn partial final line before appending.

        Readers already skip a torn tail, but appending *after* one would
        hide the new lines behind it forever (``iter_records`` stops at
        the first unparseable line).  Trimming back to the last newline
        restores the invariant that the file is a clean prefix of intact
        lines, so a resumed campaign's appends land exactly where an
        uninterrupted run would have put them — byte-identical stores
        either way.
        """
        try:
            fh = self.path.open("rb+")
        except FileNotFoundError:
            return
        with fh:
            size = fh.seek(0, os.SEEK_END)
            if size == 0:
                return
            fh.seek(size - 1)
            if fh.read(1) == b"\n":
                return
            pos = size - 1
            while pos > 0:
                start = max(0, pos - 4096)
                fh.seek(start)
                data = fh.read(pos - start)
                cut = data.rfind(b"\n")
                if cut != -1:
                    fh.truncate(start + cut + 1)
                    return
                pos = start
            fh.truncate(0)

    def append(self, record: Mapping[str, Any]) -> None:
        """Land one record: a whole line, written and flushed.

        Once this returns, the record survives a crash of this process;
        it survives a host crash once :meth:`sync` has run.
        """
        self.append_many((record,))

    def append_many(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Append several records with a single write; returns the count."""
        lines = [_stamped_line(record) for record in records]
        if not lines:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._heal_tail()
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write("".join(lines))
            fh.flush()
        self._unsynced = True
        return len(lines)

    def sync(self) -> None:
        """Make every record this store appended so far durable (fsync).

        A no-op when nothing was appended since the last sync.
        """
        if not self._unsynced:
            return
        with self.path.open("rb") as fh:
            os.fsync(fh.fileno())
        self._unsynced = False

    def rewrite(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Atomically replace the whole store (temp file + ``os.replace``)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(_stamped_line(record))
                    count += 1
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return count

    def compact(self) -> int:
        """Drop corrupt tail lines and duplicate keys (last write wins)."""
        by_key: dict[str, dict] = {}
        extras: list[dict] = []
        for record in self.iter_records():
            key = record.get("key")
            if key is None:
                extras.append(record)
            else:
                by_key[key] = record
        return self.rewrite(extras + list(by_key.values()))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def iter_records(self, strict: bool = False) -> Iterator[dict]:
        """Yield records in file order.

        A line that fails to parse is treated as a crash-truncated tail:
        iteration stops there with a warning (or raises, under
        ``strict=True``), so every preceding intact record survives and a
        resumed campaign re-runs exactly the trials the torn line lost.  A
        parsed record with a schema newer than this code always raises.

        The records of one read share their field-name strings, so a
        loaded store holds each name once rather than once per record
        (about 40% less memory per record).
        """
        if not self.path.exists():
            return
        names: dict[str, str] = {}
        decoder = json.JSONDecoder(object_pairs_hook=lambda pairs: {
            names.setdefault(name, name): value for name, value in pairs
        })
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = decoder.decode(stripped)
                except json.JSONDecodeError as exc:
                    if strict:
                        raise StoreError(
                            f"{self.path}:{lineno}: corrupt record: {exc}"
                        ) from exc
                    # Tolerate a truncated tail from a crashed run: stop
                    # here so the intact prefix is kept and the lost
                    # trials simply re-run on resume.
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping corrupt record "
                        f"(crash-truncated tail?): {exc}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    return
                schema = record.get("schema", 0)
                if schema > SCHEMA_VERSION:
                    raise StoreError(
                        f"{self.path}:{lineno}: record schema {schema} is newer "
                        f"than supported version {SCHEMA_VERSION}; upgrade repro"
                    )
                yield record

    def load(self, strict: bool = False) -> list[dict]:
        return list(self.iter_records(strict=strict))

    def keys(self) -> set[str]:
        """All trial keys present in the store."""
        return {r["key"] for r in self.iter_records() if "key" in r}

    def query(
        self,
        predicate: Callable[[dict], bool] | None = None,
        **equals: Any,
    ) -> list[dict]:
        """Records matching ``predicate`` and all ``field=value`` filters.

        Equality filters look a field up in the record itself, then in its
        ``spec``, then in its ``result`` — so ``query(algorithm="unison",
        n=8)`` works without spelling out the nesting.
        """

        def value_of(record: dict, field: str) -> Any:
            for layer in (record, record.get("spec", {}), record.get("result", {})):
                if field in layer:
                    return layer[field]
            return None

        out = []
        for record in self.iter_records():
            if predicate is not None and not predicate(record):
                continue
            if all(value_of(record, f) == v for f, v in equals.items()):
                out.append(record)
        return out


# ----------------------------------------------------------------------
# Trial (de)serialization
# ----------------------------------------------------------------------
def trial_to_dict(trial: Any) -> dict[str, Any]:
    """Flatten a :class:`repro.harness.runner.Trial` into JSON-safe data.

    Duck-typed (no import of the harness) so the store stays import-cycle
    free; ``extra`` values that are sets become sorted lists.
    """
    metrics = trial.metrics
    extra = {}
    for key, value in trial.extra.items():
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        extra[key] = value
    return {
        "algorithm": trial.algorithm,
        "scenario": trial.scenario,
        "daemon": trial.daemon,
        "seed": trial.seed,
        "n": trial.n,
        "m": trial.m,
        "diameter": trial.diameter,
        "max_degree": trial.max_degree,
        "rounds": trial.rounds,
        "moves": trial.moves,
        "steps": trial.steps,
        "metrics": {
            "steps": metrics.steps,
            "moves": metrics.moves,
            "rounds": metrics.rounds,
            "moves_per_process": list(metrics.moves_per_process),
            "moves_per_rule": dict(metrics.moves_per_rule),
        },
        "extra": extra,
    }


def trial_from_record(record: Mapping[str, Any]) -> Any:
    """Rebuild a :class:`~repro.harness.runner.Trial` from a store record.

    Inverse of :func:`trial_to_dict` up to container types normalized by
    JSON (the FGA ``alliance`` set comes back as a ``frozenset``).
    """
    # Imported lazily: the harness imports the engine at module scope, so a
    # top-level import here would close an import cycle.
    from ..analysis.metrics import RunMetrics
    from ..harness.runner import Trial

    result = record["result"] if "result" in record else record
    metrics = result["metrics"]
    extra = dict(result.get("extra", {}))
    if "alliance" in extra and isinstance(extra["alliance"], list):
        extra["alliance"] = frozenset(extra["alliance"])
    return Trial(
        algorithm=result["algorithm"],
        scenario=result["scenario"],
        daemon=result["daemon"],
        seed=result["seed"],
        n=result["n"],
        m=result["m"],
        diameter=result["diameter"],
        max_degree=result["max_degree"],
        rounds=result["rounds"],
        moves=result["moves"],
        steps=result["steps"],
        metrics=RunMetrics(
            steps=metrics["steps"],
            moves=metrics["moves"],
            rounds=metrics["rounds"],
            moves_per_process=tuple(metrics["moves_per_process"]),
            moves_per_rule=dict(metrics["moves_per_rule"]),
        ),
        extra=extra,
    )
