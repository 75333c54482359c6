"""Measurement loop and command line of the campaign benchmark.

One run of ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` does, in order:

1. set-up probes: fresh interpreters that import the modules and expand
   the workload's grids, timed from spawn to exit (one warm-up, then the
   median of :data:`SETUP_PROBES`);
2. one untimed warm-up pass per workload — it fills lazy caches and is
   the reference every later pass is checked against;
3. timed passes until ``T`` seconds have gone by (at least one).  A pass
   runs the workload's grids through :func:`repro.engine.run_campaign`
   into a fresh :class:`~repro.engine.ResultStore` with a
   :class:`~repro.telemetry.events.JsonlEventSink` sidecar, as
   ``python -m repro.harness sweep --out`` does, then reads the store
   back and checks every record (:mod:`perfbench.checks`).

Every pass of a run repeats the same inputs, so its exact counters
(trials, steps, moves, rounds, fault and churn occurrences, and in
traced passes compile calls, topology builds, diameter calls, process
spawns) must repeat too; any drift fails the run.  A trial's time is
the lower quartile of its times over the passes.  A fixed calibration
loop runs between passes, and end-to-end times are scaled to the quiet
host's speed (:mod:`perfbench.hostspeed`); the unscaled rates go to
standard error.  Several comma-separated workloads are interleaved pass
by pass, and ``--trace 1`` interleaves untraced and traced passes, so a
noisy neighbour slows every column alike.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones), each metric ``{"value",
"unit"}``.  The line before it is the provenance manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import ExitStack, nullcontext
from pathlib import Path

from repro.core.exceptions import ReproError
from repro.engine import ResultStore, run_campaign
from repro.telemetry import phases
from repro.telemetry.events import JsonlEventSink, events_path_for
from repro.telemetry.provenance import build_manifest

from . import hostspeed
from .checks import digest, record_counters, record_line, record_problems
from .tracing import LAYERS, Tracer, installed
from .workloads import DEFAULT_SEED, WORKLOADS, Workload

__all__ = ["Pass", "WorkloadRun", "main", "measure"]

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
#: Where passes write their stores; removed when the run ends.
SCRATCH = ROOT / ".perfbench-tmp"
#: Timed set-up probes per run (after one untimed warm-up probe).
SETUP_PROBES = 7
#: Share of each pass's wall time spent after it on the calibration loop.
CALIBRATION_SHARE = 0.1

E2E_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "moves_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "correct_frac": "frac",
}

#: Counters a traced pass adds to the record-derived ones: span counts.
TRACED_CALLS = {
    "topology.build_calls": "topology.build",
    "topology.diameter_calls": "topology.diameter",
    "ir.compile_calls": "ir.compile",
    "batch.cells": "batch.run",
    "pool.spawns": "pool.child",
}


class Pass:
    """What one pass over a workload's grids measured and found."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.trial_ms: dict[str, float] = {}   # key -> ms
        self.records: list[dict] = []          # grid order, checked good
        self.failed: list[str] = []            # "key: why"
        self.counters: dict[str, int] = {}
        self.self_times: dict[str, float] = {}
        self.phases: dict | None = None


class WorkloadRun:
    """One workload's passes, checks and metrics within a run."""

    def __init__(self, workload: Workload, seed: int):
        from repro.harness.runner import can_batch

        if workload.workers > (os.cpu_count() or 1):
            raise ValueError(f"{workload.name}: more workers than CPUs")
        self.workload = workload
        self.seed = seed
        self.campaigns = workload.campaigns(seed)
        self.grid = [
            (spec, campaign.seed_for(spec))
            for campaign in self.campaigns
            for spec in campaign.specs()
        ]
        # Execution unit of each trial, as the engine groups them: a
        # batchable cell of replicates is one unit, anything else runs
        # alone.  Trials landing from one unit share its wall time.
        self.unit_of: dict[str, str] = {}
        for campaign in self.campaigns:
            specs = campaign.specs()
            cells = Counter(spec.cell_key() for spec in specs)
            for spec in specs:
                batched = (workload.batch and cells[spec.cell_key()] > 1
                           and can_batch(spec))
                self.unit_of[spec.key()] = spec.cell_key() if batched else spec.key()
        self.reference: dict[str, str] | None = None
        self.reference_counters: dict[str, int] | None = None
        self.passes: list[Pass] = []
        self.problems: list[str] = []

    # ------------------------------------------------------------------
    def run_pass(self, scratch: Path, traced: bool) -> Pass:
        """Run every grid once into a fresh store, then check the store."""
        result = Pass(traced)
        tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
        try:
            store = ResultStore(tmp / "results.jsonl")
            tracer = Tracer(tmp) if traced else None
            landings: list[tuple[float, str]] = []
            starts: list[tuple[int, float]] = []

            def progress(done: int, total: int, record: dict) -> None:
                landings.append((time.perf_counter(), record["key"]))

            w = self.workload
            with ExitStack() as stack:
                events = JsonlEventSink(events_path_for(store.path))
                stack.callback(events.close)
                if tracer is not None:
                    stack.enter_context(installed(tracer))
                    stats = stack.enter_context(phases.recording())
                begin = time.perf_counter()
                for campaign in self.campaigns:
                    starts.append((len(landings), time.perf_counter()))
                    root = tracer.span("engine") if tracer else nullcontext()
                    try:
                        with root:
                            outcome = run_campaign(
                                campaign, store=store, workers=w.workers,
                                progress=progress, batch=w.batch,
                                events=events, policy=w.policy,
                            )
                    except ReproError as exc:
                        self.problems.append(f"{campaign.name}: {exc!r}")
                        traceback.print_exc(file=sys.stderr)
                        continue
                    for failure in outcome.failures:
                        self.problems.append(
                            f"quarantined {failure['key']}: "
                            f"{failure['reason']}: {failure['error']}"
                        )
                result.wall = time.perf_counter() - begin
            if tracer is not None:
                tracer.gather()
                result.self_times = tracer.self_times()
                calls = tracer.calls()
                result.counters.update(tracer.counts)
                result.counters.update(
                    {name: calls[span] for name, span in TRACED_CALLS.items()}
                )
                result.phases = stats.snapshot()
            result.trial_ms = self._trial_ms(landings, starts)
            result.counters["store.bytes"] = (
                store.path.stat().st_size if store.exists() else 0
            )
            self._check(result, store.load())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.passes.append(result)
        return result

    def _trial_ms(self, landings, starts) -> dict[str, float]:
        """Milliseconds per trial key: its unit's wall time over its trials.

        A unit's time runs from the previous landing (or its campaign's
        start) to its first landed record.
        """
        out: dict[str, float] = {}
        ends = [i for i, _ in starts[1:]] + [len(landings)]
        for (first, t0), last in zip(starts, ends):
            prev, group = t0, []
            for landed, key in landings[first:last] + [(None, None)]:
                if group and (key is None or self.unit_of[key] != self.unit_of[group[0][1]]):
                    share = (group[0][0] - prev) * 1000.0 / len(group)
                    out.update((k, share) for _, k in group)
                    prev, group = group[-1][0], []
                if key is not None:
                    group.append((landed, key))
        return out

    def _check(self, result: Pass, stored: list[dict]) -> None:
        by_key = {record.get("key"): record for record in stored
                  if isinstance(record, dict)}
        for spec, seed in self.grid:
            key = spec.key()
            record = by_key.get(key)
            if record is None:
                result.failed.append(f"{key}: no record landed")
                continue
            problems = record_problems(record, spec, seed)
            if not problems and self.reference is not None \
                    and record_line(record) != self.reference.get(key):
                problems = ["record differs from the warm-up pass"]
            if problems:
                result.failed.append(f"{key}: {'; '.join(problems)}")
            else:
                result.records.append(record)
        result.counters.update(record_counters(result.records))

        if self.reference is None:
            self.reference = {r["key"]: record_line(r) for r in result.records}
            self.reference_counters = dict(result.counters)
            if (self.seed == DEFAULT_SEED and self.workload.digest is not None
                    and not result.failed
                    and digest(result.records) != self.workload.digest):
                self.problems.append(
                    f"grid-ordered record digest {digest(result.records)} != "
                    f"pinned {self.workload.digest}"
                )
                result.failed = [f"{spec.key()}: digest mismatch"
                                 for spec, _ in self.grid]
            return
        for name, value in result.counters.items():
            expected = self.reference_counters.setdefault(name, value)
            if value != expected:
                self.problems.append(
                    f"counter {name} drifted: {value} != {expected}"
                )

    # ------------------------------------------------------------------
    @property
    def attempted(self) -> int:
        return len(self.grid) * len(self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failed) for p in self.passes)

    def timed(self, traced: bool) -> list[Pass]:
        return [p for p in self.passes[1:] if p.traced == traced]

    def trial_ms(self, traced: bool = False) -> list[float]:
        """Each trial's time over the timed (un)traced passes, sorted.

        Every pass repeats the same trials, and a noisy neighbour on a
        shared host only ever adds time, so a trial's time is the lower
        quartile of its times: steadier than the median from run to run,
        and unlike the minimum not set by one lucky pass.  The sum over
        trials is the pass time the rates use.
        """
        passes = self.timed(traced)
        return sorted(
            _lower_quartile([p.trial_ms[key] for p in passes if key in p.trial_ms])
            for key in passes[0].trial_ms
        )

    def end_to_end(self, setup_s: float, speed: float = 1.0) -> dict[str, float]:
        """End-to-end metrics, times scaled by the host ``speed``."""
        trial_ms = [ms * speed for ms in self.trial_ms()]
        pass_s = sum(trial_ms) / 1000.0
        p90 = (statistics.quantiles(trial_ms, n=10, method="inclusive")[-1]
               if len(trial_ms) > 1 else trial_ms[0])
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {
            "setup_s": setup_s * speed,
            "trials_per_s": len(trial_ms) / pass_s,
            "moves_per_s": self.timed(False)[0].counters["moves"] / pass_s,
            "trial_ms_p50": statistics.median(trial_ms),
            "trial_ms_p90": p90,
            "peak_rss_mb": rss_kb / 1024.0,
            "correct_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        traced = self.timed(True)
        k = len(traced)
        wall = sum(p.wall for p in traced)
        self_s: Counter = Counter()
        for p in traced:
            self_s.update(p.self_times)
        counters = traced[0].counters

        def ms(*names: str) -> float:
            return sum(self_s[name] for name in names) * 1000.0 / k

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        snap = phases.merge_snapshots(*(p.phases for p in traced))
        total_est = snap["total_est_s"]

        def share(phase: str) -> float:
            return ratio(snap["phases"].get(phase, {}).get("est_s", 0.0), total_est)

        return {
            "topology.build_ms": (ms("topology.build"), "ms"),
            "topology.build_calls": (counters["topology.build_calls"], "count"),
            "topology.diameter_ms": (ms("topology.diameter"), "ms"),
            "topology.diameter_calls": (counters["topology.diameter_calls"], "count"),
            "ir.compile_ms": (ms("ir.compile"), "ms"),
            "ir.compile_calls": (counters["ir.compile_calls"], "count"),
            "simulator.init_ms": (ms("simulator.init"), "ms"),
            "runner.self_ms": (ms("runner"), "ms"),
            "store.append_ms": (ms("store.append"), "ms"),
            "store.bytes": (counters["store.bytes"], "bytes"),
            "events.emit_ms": (ms("events.emit"), "ms"),
            "engine.self_ms": (ms("engine"), "ms"),
            "kernel.run_ms": (ms("kernel.run"), "ms"),
            "kernel.us_per_step": (
                ratio(self_s["kernel.run"] * 1e6, counters["kernel.steps"] * k), "us"),
            "kernel.guard_share": (share("guard"), "frac"),
            "kernel.apply_share": (share("apply"), "frac"),
            "kernel.daemon_share": (share("daemon"), "frac"),
            "kernel.rounds_share": (share("rounds"), "frac"),
            "kernel.probe_share": (share("probe"), "frac"),
            "kernel.steps": (counters["kernel.steps"], "count"),
            "kernel.moves": (counters["kernel.moves"], "count"),
            "kernel.active_frac": (
                ratio(counters["kernel.moves"], counters["kernel.evaluated"]), "frac"),
            "batch.run_ms": (ms("batch.run"), "ms"),
            "batch.cells": (counters["batch.cells"], "count"),
            "faults.occurrences": (counters["faults.occurrences"], "count"),
            "churn.occurrences": (counters["churn.occurrences"], "count"),
            "pool.spawns": (counters["pool.spawns"], "count"),
            "pool.unit_overhead_ms": (
                ratio(ms("pool.supervised", "pool.child"), counters["pool.spawns"]), "ms"),
            "records.trials": (counters["trials"], "count"),
            "records.steps": (counters["steps"], "count"),
            "records.moves": (counters["moves"], "count"),
            "records.rounds": (counters["rounds"], "count"),
            "trace.wall_ms": (wall * 1000.0 / k, "ms"),
            "trace.coverage_frac": (ratio(ms(*LAYERS), wall * 1000.0 / k), "frac"),
            "trace.overhead_frac": (
                sum(self.trial_ms(True)) / sum(self.trial_ms(False)) - 1.0, "frac"),
        }


def _lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def measure(runs: list[WorkloadRun], seconds: float, trace: bool,
            scratch: Path) -> list[float]:
    """Warm up every workload, then interleave timed passes for ``seconds``.

    Returns the calibration loop's times: after every pass it runs for
    about :data:`CALIBRATION_SHARE` of the pass's wall time, at least once.
    """
    calibrations: list[float] = []

    def run_pass(run: WorkloadRun, traced: bool) -> None:
        budget = run.run_pass(scratch, traced).wall * CALIBRATION_SHARE
        spent = 0.0
        while spent == 0.0 or spent < budget:
            calibrations.append(hostspeed.calibration_seconds())
            spent += calibrations[-1]

    for run in runs:
        run_pass(run, traced=False)
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < deadline:
        for run in runs:
            order = (False, True) if rep % 2 == 0 else (True, False)
            for traced in (order if trace else (False,)):
                run_pass(run, traced)
        rep += 1
    return calibrations


def setup_seconds(names: list[str], seed: int, probes: int = SETUP_PROBES) -> float:
    """Median wall time of fresh interpreters importing and expanding grids."""
    cmd = [sys.executable, str(RUN_PY), "--setup-only",
           "--workload", ",".join(names), "--seed", str(seed)]
    times = []
    for i in range(probes + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first probe warms the bytecode cache
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def result_line(run: WorkloadRun, trace: bool, setup_s: float,
                speed: float = 1.0) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run.per_layer().items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in run.end_to_end(setup_s, speed).items()}
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def layer_report(run: WorkloadRun) -> str:
    """Human-readable per-layer breakdown of the traced passes."""
    layers = run.per_layer()
    wall = layers["trace.wall_ms"][0]
    lines = [f"{run.workload.name}: traced pass {wall:.1f} ms "
             f"(coverage {layers['trace.coverage_frac'][0]:.1%}, "
             f"overhead {layers['trace.overhead_frac'][0]:+.1%})"]
    for name, (value, unit) in layers.items():
        per_pass = unit == "ms" and name != "pool.unit_overhead_ms"
        tail = f"  {value / wall:6.1%} of wall" if per_pass else ""
        lines.append(f"  {name:26s} {value:14.4f} {unit:6s}{tail}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {sorted(WORKLOADS)}, or several, "
                             "comma-separated, interleaved pass by pass")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the modules, expand the grids and exit "
                             "(the set-up probe)")
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")

    if args.setup_only:
        import repro.harness.runner  # noqa: F401  (what the first trial imports)

        for name in names:
            for campaign in WORKLOADS[name].campaigns(args.seed):
                campaign.specs()
        return 0

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        setup_s = 0.0 if args.trace else setup_seconds(names, args.seed)
        runs = [WorkloadRun(WORKLOADS[name], args.seed) for name in names]
        calibrations = measure(runs, args.seconds, bool(args.trace), scratch)
        speed = hostspeed.REFERENCE_S / _lower_quartile(calibrations)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    for run in runs:
        for problem in run.problems:
            print(f"{run.workload.name}: {problem}", file=sys.stderr)
        for p in run.passes:
            for failure in p.failed[:5]:
                print(f"{run.workload.name}: FAILED {failure}", file=sys.stderr)
        if args.trace:
            print(layer_report(run), file=sys.stderr)
        else:
            raw = run.end_to_end(setup_s)
            print(f"{run.workload.name}: host speed {speed:.3f} of the quiet "
                  f"reference; unscaled setup_s {raw['setup_s']:.4f}, "
                  f"trials_per_s {raw['trials_per_s']:.3f}, "
                  f"moves_per_s {raw['moves_per_s']:.1f}", file=sys.stderr)
    manifest = build_manifest(
        campaign=None, cwd=ROOT,
        extra={"benchmark": "perfbench", "workloads": names, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "host_speed": speed,
               "passes": {run.workload.name: len(run.passes) for run in runs}},
    )
    print("manifest " + json.dumps(manifest, sort_keys=True))
    results = [result_line(run, bool(args.trace), setup_s, speed) for run in runs]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({run.workload.name: res for run, res in zip(runs, results)}))
    return 0
