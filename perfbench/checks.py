"""Output checks: every stored record against the theorem bounds.

A record passes when it is internally consistent (its move, step and
round totals agree with its per-process and per-rule breakdowns) and
within the formulas of :mod:`repro.analysis.bounds`:

* from-scratch trials — ``U o SDR`` within ``unison_rounds_bound`` and
  ``unison_move_bound`` (Theorems 6/7), ``FGA o SDR`` within
  ``fga_sdr_rounds_bound`` and ``fga_sdr_move_bound`` (Theorems 12/14);
* fault and churn trials — every occurrence recovered, and clean
  recovery (no further occurrence mid-recovery) within the from-scratch
  round bound, ``3n`` or ``8n + 4``, as experiments T11/T12 check; churn
  must leave the live subsystem connected.

The Boulinier baseline has no bound formula, so its records get the
consistency checks only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from repro.analysis import bounds

__all__ = ["digest", "record_line", "record_problems", "record_counters"]

ROUND_BOUNDS = {
    "unison": bounds.unison_rounds_bound,
    "fga": bounds.fga_sdr_rounds_bound,
}


def record_line(record: dict) -> str:
    """A record's canonical JSON line, as :class:`ResultStore` writes it."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def digest(records: Iterable[dict]) -> str:
    """SHA-256 over the canonical lines of ``records``, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(record_line(record).encode())
    return h.hexdigest()


def _clean_worst_rounds(summary: dict) -> int | None:
    """Worst recovery rounds over occurrences with none striking mid-recovery."""
    records = summary["records"]
    worst = None
    for i, rec in enumerate(records):
        if not rec["recovered"]:
            continue
        end = rec["injected_step"] + rec["steps"]
        if i + 1 < len(records) and records[i + 1]["injected_step"] < end:
            continue
        worst = rec["rounds"] if worst is None else max(worst, rec["rounds"])
    return worst


def record_problems(record: dict, spec, seed: int) -> list[str]:
    """Why ``record`` is not the correct result of ``spec``; empty if it is."""
    try:
        return _problems(record, spec, seed)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed record: {type(exc).__name__}: {exc}"]


def _problems(record: dict, spec, seed: int) -> list[str]:
    problems = []
    if record["key"] != spec.key() or record["spec"] != spec.to_dict():
        problems.append("record describes another trial")
    if record["seed"] != seed:
        problems.append(f"seed {record['seed']} != derived {seed}")
    result = record["result"]
    metrics = result["metrics"]
    n, moves, steps, rounds = (
        result["n"], result["moves"], result["steps"], result["rounds"]
    )
    if n != spec.n:
        problems.append(f"result has n={n}, the trial n={spec.n}")
    if (metrics["moves"], metrics["steps"], metrics["rounds"]) != (moves, steps, rounds):
        problems.append("metrics totals disagree with the record totals")
    per_process = metrics["moves_per_process"]
    if len(per_process) != n or sum(per_process) != moves:
        problems.append("moves_per_process does not sum to moves over n processes")
    if sum(metrics["moves_per_rule"].values()) != moves:
        problems.append("moves_per_rule does not sum to moves")
    if not 0 <= steps <= moves:
        problems.append(f"steps {steps} outside [0, moves={moves}]")

    algorithm = spec.algorithm
    extra = result["extra"]
    if "recovery" in extra:
        recovery = extra["recovery"]
        if recovery["recovered"] != recovery["bursts"]:
            problems.append(
                f"{recovery['bursts'] - recovery['recovered']} occurrence(s) "
                "not recovered"
            )
        clean = _clean_worst_rounds(recovery)
        bound_fn = ROUND_BOUNDS.get(algorithm)
        if bound_fn is not None and clean is not None and clean > bound_fn(n):
            problems.append(
                f"clean recovery took {clean} rounds > bound {bound_fn(n)}"
            )
        if "churn_final" in extra and extra["churn_final"]["components"] != 1:
            problems.append("churn partitioned the live subsystem")
        return problems

    if algorithm == "unison":
        round_bound = bounds.unison_rounds_bound(n)
        move_bound = bounds.unison_move_bound(n, result["diameter"])
    elif algorithm == "fga":
        round_bound = bounds.fga_sdr_rounds_bound(n)
        move_bound = bounds.fga_sdr_move_bound(
            n, result["m"], result["max_degree"]
        )
    else:
        return problems
    if rounds > round_bound:
        problems.append(f"{rounds} rounds > bound {round_bound}")
    if moves > move_bound:
        problems.append(f"{moves} moves > bound {move_bound}")
    return problems


def record_counters(records: Iterable[dict]) -> dict[str, int]:
    """Exact work counters of a pass, summed from its records."""
    counters = {
        "trials": 0, "steps": 0, "moves": 0, "rounds": 0,
        "faults.occurrences": 0, "churn.occurrences": 0,
    }
    for record in records:
        result = record["result"]
        counters["trials"] += 1
        for key in ("steps", "moves", "rounds"):
            counters[key] += result[key]
        extra = result["extra"]
        if "churn_final" in extra:
            counters["churn.occurrences"] += extra["churn_final"]["fired"]
        elif "faults" in extra:
            counters["faults.occurrences"] += extra["recovery"]["bursts"]
    return counters
