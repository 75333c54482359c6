"""Engine benchmark: dict vs stepped vs fused kernel on the F1/F2 sweep.

Not a paper claim — this measures the substrate itself.  The F1/F2
experiments sweep ``U ∘ SDR`` over rings from random initial
configurations; their wall time is pure simulator throughput, so this
script times exactly that workload on several execution configurations
and emits ``BENCH_core.json`` at the repo root:

* ``dict``   — the reference engine;
* ``stepped`` — the array backend with a no-op decode-tier
  :class:`repro.probes.Probe` attached: the driver's lane then calls the
  per-step decode hook (decoded step record, enabled map, accounting)
  after every step — the cheapest per-step Python callback there is;
* ``fused``  — the array backend with nothing to decode per step:
  vectorized daemons, array-native move/round accounting, no per-step
  Python boundary crossing;
* ``fused+probe`` — the fused loop with a vectorized
  :class:`repro.probes.StabilizationProbe` attached (the F1/F2
  measurement configuration): the probe reads the program's declared
  ``normal`` predicate every step *inside* the loop (the bit the guard
  evaluation already produced), and the run asserts the
  fused path stayed engaged — measurement must not kick execution off
  the fast path.
* ``fused+telemetry`` — the fused loop with
  :mod:`repro.telemetry.phases` tracing enabled (stride-sampled phase
  timers in the hot loop).  The report carries its phase breakdown, and
  ``--check`` bounds its overhead against plain ``fused``.
* ``fused+faults`` — the fused loop with a *never-firing*
  :class:`repro.faults.schedule.FaultSchedule` attached (one event at an
  unreachable step).  The schedule machinery's per-step cost — the
  due-occurrence check inside the loop — must stay within the same 2%
  budget as telemetry; ``--check`` bounds ``faults_vs_fused``.
* ``fused+churn`` — the fused loop with a *never-firing*
  :class:`repro.faults.churn.ChurnSchedule` attached (one crash at an
  unreachable step).  Churn adds a hoisted next-occurrence peek plus a
  liveness column to the loop; the same 2% budget applies and
  ``--check`` bounds ``churn_vs_fused``.
* ``batched`` — :data:`BATCH_TRIALS` replicates of the same cell (seeds
  ``seed``, ``seed+1``, …) through
  :func:`repro.core.kernel.batch.run_batch`, one lane per trial of the
  same fused driver; its ``steps_per_s`` counts *trial*-steps (the sum
  over replicates), the campaign-throughput unit.  Replicate 0 is the
  ``fused`` execution, and ``--check`` asserts ``batched_vs_fused`` ≥ 1.

The seven single-run columns produce identical executions (equal seeds
⇒ equal traces); the report records each column's median steps/sec,
moves/sec and timed seconds per size, and the pairwise speedups.  Each
cell is timed as ``--pairs`` short rounds (31 by default): a round runs
every column once, forward on even rounds and reversed on odd ones, so
each ratio's two columns alternate AB, BA; a speedup is the median over
rounds of that round's ratio.  A stall on a co-tenant's behalf lands in
one round, and the median discards it.  A single-run column times only
its stepping loop: each ``run`` call pays a fixed start-up (runtime
set-up, a guard evaluation, daemon set-up) worth about a tenth of a
100-step fused run, which would dilute a per-step overhead, so it is
measured by a one-step call and subtracted (:func:`timed_loop`).  An
A/A ratio (fused against fused) is printed and recorded beside the
gated ones, so every run shows its own noise.
The tracked baseline keeps the perf trajectory honest; CI runs a
small-size smoke (``--check`` asserts fused ≥ fused+probe ≥ stepped ≥
dict and batched ≥ fused, with measurement *and* telemetry overhead
bounded).  ``--out`` also writes a provenance manifest sidecar (git SHA,
package versions, host, phase breakdown, the timing discipline) next to
the JSON report.

Usage::

    python benchmarks/bench_kernel.py                      # full sweep
    python benchmarks/bench_kernel.py --sizes 32,64 --steps 100 --check
    python benchmarks/bench_kernel.py --out BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from random import Random

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import Simulator, make_daemon  # noqa: E402
from repro.core.kernel.batch import run_batch  # noqa: E402
from repro.probes import Probe, StabilizationProbe  # noqa: E402
from repro.reset import SDR  # noqa: E402
from repro.telemetry import phases as telemetry  # noqa: E402
from repro.topology import ring  # noqa: E402
from repro.unison import Unison  # noqa: E402

#: The workload: F1/F2's algorithm and topology family.
DAEMONS = ("distributed-random", "synchronous")

#: Timed configurations:
#: ``(label, Simulator kwargs, attach probe, enable telemetry)``.
CONFIGS = (
    ("dict", {"backend": "dict"}, False, False),
    # A no-op decode-tier probe: the lane runs its per-step decode hook.
    ("stepped", {"backend": "kernel", "probes": (Probe(),)}, False, False),
    ("fused", {"backend": "kernel"}, False, False),
    ("fused+probe", {"backend": "kernel"}, True, False),
    ("fused+telemetry", {"backend": "kernel"}, False, True),
    # A schedule whose single event sits at an unreachable step: the
    # fused loop pays the per-step due-check but never injects, so the
    # execution is identical to plain ``fused``.
    ("fused+faults", {"backend": "kernel", "faults": "at=1000000000"},
     False, False),
    # Same idea for churn: one crash at an unreachable step.  The timed
    # workload never goes terminal (unison is non-silent), so the
    # occurrence is never pulled forward and the execution is identical
    # to plain ``fused`` — only the due-check and liveness mask cost.
    ("fused+churn", {"backend": "kernel", "churn": "at=1000000000,crash=1"},
     False, False),
)


#: Replicates per ``batched`` run.
BATCH_TRIALS = 8

#: The ``dict`` column runs this many times fewer steps than the others,
#: beside a ``stepped`` run of the same length (its ratio's partner), so
#: the slowest engine does not set the job's wall time.
DICT_STEP_DIVISOR = 4


def timed_loop(sim, steps: int):
    """Run ``sim`` for ``steps`` more steps and time its stepping loop.

    Every ``run`` call pays a fixed start-up before its first step, so
    the run is three calls: one untimed step (lazy set-up and the first,
    dense, guard evaluation), one timed step (a call's start-up plus one
    step) and ``steps`` timed steps.  The difference of the two timed
    calls is the loop time of ``steps - 1`` steps.  Returns ``(result,
    loop seconds, loop steps, loop moves)``; ``result`` is the last
    call's (cumulative) :class:`~repro.core.RunResult`.
    """
    sim.run(max_steps=1)
    t0 = time.perf_counter()
    first = sim.run(max_steps=1)
    t1 = time.perf_counter()
    result = sim.run(max_steps=steps)
    t2 = time.perf_counter()
    return (result, (t2 - t1) - (t1 - t0),
            result.steps - first.steps - 1, result.moves - first.moves)


def run_batched(sdr, network, daemon: str, steps: int, seed: int):
    """One :data:`BATCH_TRIALS`-replicate batch of the cell; returns the
    outcomes (replicate ``t`` runs seed ``seed + t``)."""
    seeds = range(seed, seed + BATCH_TRIALS)
    return run_batch(
        sdr.kernel_program(),
        [sdr.random_configuration(Random(s)) for s in seeds],
        [make_daemon(daemon, network) for _ in seeds],
        [Random(s) for s in seeds],
        network,
        max_steps=steps,
        exclusion_name=sdr.name,
    ).outcomes


#: Every reported column, in report order.
LABELS = tuple(label for label, _, _, _ in CONFIGS) + ("batched",)

#: The ``stepped`` run paired with ``dict`` (same short length), and a
#: second ``fused`` run: the A/A column, fused against fused, whose ratio
#: shows each run's own noise beside the gated ratios.
SHORT_STEPPED, AA = "stepped (short)", "fused (A/A)"

#: One round, forward: every column once, each ratio's partners close
#: together (``fused`` in the middle of the columns compared with it).
ROUND = ("dict", SHORT_STEPPED, "stepped", "fused+probe", "fused+telemetry",
         "fused+faults", "fused", "fused+churn", AA, "batched")

#: Ratio key → (numerator column, denominator column), both rates in
#: steps/s of the same round.  ``fused_vs_dict`` is the chain
#: ``stepped_vs_dict × fused_vs_stepped`` of the same round (the dict
#: run is shorter than the fused one).
RATIOS = {
    "stepped_vs_dict": (SHORT_STEPPED, "dict"),
    "fused_vs_stepped": ("fused", "stepped"),
    "fused_probe_vs_stepped": ("fused+probe", "stepped"),
    "probe_overhead": ("fused", "fused+probe"),
    "telemetry_vs_fused": ("fused+telemetry", "fused"),
    "faults_vs_fused": ("fused+faults", "fused"),
    "churn_vs_fused": ("fused+churn", "fused"),
    # Trial-steps/s of a BATCH_TRIALS-lane batch over the single run's
    # steps/s: what batching a cell buys.
    "batched_vs_fused": ("batched", "fused"),
    # A/A: the same configuration twice.  Not gated.
    "fused_vs_fused": (AA, "fused"),
}

#: ``--check``: ratio key → (floor, what falling below it means).  Every
#: gate reads the median over rounds of its per-round ratio.
FLOORS = {
    "stepped_vs_dict": (1.0, "backend ordering: stepped >= dict"),
    "fused_vs_stepped": (1.0, "backend ordering: fused >= stepped"),
    "fused_probe_vs_stepped": (1.0, "backend ordering: fused+probe >= stepped"),
    # fused / fused+probe gets a small noise allowance: the two differ
    # only by the mask evaluation.
    "probe_overhead": (0.95, "backend ordering: fused >= fused+probe"),
    # Enabled phase tracing must retain >= 93% of fused throughput: the
    # 2% sampling budget plus a jitter allowance.
    "telemetry_vs_fused": (0.93, "phase telemetry slowed the fused loop "
                                 "beyond its 2% budget (plus noise allowance)"),
    # An attached-but-idle fault schedule gets the same budget: the
    # per-step due-check must not kick the loop off its fast path.
    "faults_vs_fused": (0.93, "the fault-schedule due-check slowed the fused "
                              "loop beyond its 2% budget (plus noise allowance)"),
    # An idle churn schedule too: the hoisted peek and the liveness mask.
    "churn_vs_fused": (0.93, "the churn-schedule due-check slowed the fused "
                             "loop beyond its 2% budget (plus noise allowance)"),
    # Batching a cell must pay: BATCH_TRIALS lanes through one driver beat
    # one lane per run in trial-steps/s.
    "batched_vs_fused": (1.0, "batched trial-steps/s fell below the fused "
                              "single run"),
}

#: The timing discipline, as the report and its manifest record it.
TIMING = (
    "per cell, `pairs` rounds; a round times every column once with "
    "perf_counter, in ROUND order on even rounds and reversed on odd ones, "
    "so each ratio's two columns alternate AB, BA (ABBA); a ratio is the "
    "median over rounds of that round's ratio of steps/s; a single-run "
    "column's rate is its stepping loop's (one untimed step, then a timed "
    "one-step call, the start-up, subtracted from a timed steps_per_run-"
    "step call); batched is timed whole over steps_per_run + 2 steps; dict "
    "and its stepped partner run steps_per_run // dict_step_divisor steps; "
    "rows report each column's median rate"
)


def time_cell(
    n: int, daemon: str, steps: int, seed: int, pairs: int
) -> tuple[dict, dict, dict | None]:
    """Time every column of one cell in ``pairs`` alternated rounds.

    A round runs :data:`ROUND`'s columns back to back, forward on even
    rounds and reversed on odd ones, so for every ratio one round times
    its numerator first and the next its denominator first.  Runs are
    short, so a stall on a co-tenant's behalf (CI runners, a shared
    2-core host) lands in one round's ratio, and the median over rounds
    discards it.  Returns ``(rows_by_label, ratios, phase_snapshot)``:
    rows of each column's median rates, each ratio's per-round values,
    and the fastest telemetry run's phase breakdown.
    """
    network = ring(n)
    sdr = SDR(Unison(network))
    cfg = sdr.random_configuration(Random(seed))
    configs = {label: (kwargs, probe, trace)
               for label, kwargs, probe, trace in CONFIGS}
    configs[SHORT_STEPPED] = configs["stepped"]
    configs[AA] = configs["fused"]
    short = max(1, steps // DICT_STEP_DIVISOR)
    #: Per column, per round: (timed seconds, steps/s, moves/s).
    timed: dict[str, list[tuple]] = {label: [] for label in LABELS}
    ran: dict[str, tuple] = {}
    ratios: dict[str, list[float]] = {key: [] for key in RATIOS}
    ratios["fused_vs_dict"] = []
    phase_snapshot = None
    for rnd in range(pairs):
        rate: dict[str, float] = {}
        for label in ROUND if rnd % 2 == 0 else ROUND[::-1]:
            length = short if label in ("dict", SHORT_STEPPED) else steps
            if label == "batched":
                # Timed whole, over as many steps as a single run's three
                # calls: its start-up is part of what batching amortises.
                t0 = time.perf_counter()
                outcomes = run_batched(sdr, network, daemon, length + 2, seed)
                elapsed = time.perf_counter() - t0
                ran[label] = tuple(
                    sum(getattr(o, field) for o in outcomes)
                    for field in ("steps", "moves", "rounds")
                )
                loop_steps, loop_moves = ran[label][:2]
                replicate0 = (outcomes[0].steps, outcomes[0].moves)
            else:
                sim_kwargs, probe, trace = configs[label]
                sim = Simulator(
                    sdr,
                    make_daemon(daemon, network),
                    config=cfg.copy(),
                    seed=seed,
                    **sim_kwargs,
                )
                if label == "stepped" and sim.fusion_available:
                    raise SystemExit(
                        "FAIL: the stepped column's decode-tier probe did not "
                        "hook the per-step decode into the lane"
                    )
                if probe:
                    # The F1/F2 measurement configuration: a vectorized
                    # stabilization probe riding the run (stop=False so the
                    # timed step count stays fixed across configurations).
                    sim.add_probe(StabilizationProbe(
                        sdr.is_normal, mask="normal", stop=False,
                    ))
                    if not sim.fusion_available:
                        raise SystemExit(
                            "FAIL: attaching a vectorized StabilizationProbe "
                            "disabled the fused loop"
                        )
                if trace:
                    with telemetry.recording() as stats:
                        result, elapsed, loop_steps, loop_moves = timed_loop(
                            sim, length)
                    if all(elapsed < t for t, _, _ in timed[label]):
                        phase_snapshot = stats.snapshot()
                else:
                    result, elapsed, loop_steps, loop_moves = timed_loop(
                        sim, length)
                ran[label] = (result.steps, result.moves, result.rounds)
            rate[label] = loop_steps / elapsed
            if label in timed:
                timed[label].append(
                    (elapsed, rate[label], loop_moves / elapsed))
        # Telemetry is write-only observation, and a never-firing fault or
        # churn schedule never touches state: those runs (and the A/A
        # one) must be the same execution as fused, not merely a similar
        # one; so must the batch's replicate 0.
        for variant in ("fused+telemetry", "fused+faults", "fused+churn", AA):
            if ran[variant] != ran["fused"]:
                raise SystemExit(
                    f"FAIL: {variant} changed the execution — (steps, moves, "
                    f"rounds) {ran[variant]} != {ran['fused']}"
                )
        if replicate0 != ran["fused"][:2]:
            raise SystemExit(
                "FAIL: batched replicate 0 diverged from the fused run — "
                f"(steps, moves) {replicate0} != {ran['fused'][:2]}"
            )
        for key, (a, b) in RATIOS.items():
            ratios[key].append(rate[a] / rate[b])
        ratios["fused_vs_dict"].append(
            ratios["stepped_vs_dict"][-1] * ratios["fused_vs_stepped"][-1]
        )
    rows = {
        label: {
            "n": n,
            "daemon": daemon,
            "backend": label,
            "steps": ran[label][0],
            "moves": ran[label][1],
            "rounds": ran[label][2],
            "wall_s": round(
                statistics.median(t for t, _, _ in timed[label]), 6),
            "steps_per_s": round(
                statistics.median(r for _, r, _ in timed[label]), 1),
            "moves_per_s": round(
                statistics.median(m for _, _, m in timed[label]), 1),
        }
        for label in LABELS
    }
    return rows, ratios, phase_snapshot


def run_benchmark(sizes: list[int], steps: int, seed: int, pairs: int) -> dict:
    rows = []
    speedups = {}
    phase_snaps = []
    for daemon in DAEMONS:
        for n in sizes:
            cell, per_round, snap = time_cell(n, daemon, steps, seed, pairs)
            if snap is not None:
                phase_snaps.append(snap)
            for label in LABELS:
                row = cell[label]
                rows.append(row)
                print(
                    f"  n={n:4d} {daemon:19s} {label:15s} "
                    f"{row['steps_per_s']:12,.0f} steps/s "
                    f"{row['moves_per_s']:14,.0f} moves/s "
                    f"{row['wall_s'] * 1000:9.1f} ms"
                )
            ratios = {key: statistics.median(values)
                      for key, values in per_round.items()}
            speedups[f"{daemon}/n={n}"] = {
                key: round(value, 2) for key, value in ratios.items()
            }
            print(
                f"  n={n:4d} {daemon:19s} speedup "
                f"stepped/dict {ratios['stepped_vs_dict']:.2f}x  "
                f"fused/stepped {ratios['fused_vs_stepped']:.2f}x  "
                f"fused/dict {ratios['fused_vs_dict']:.2f}x  "
                f"fused+probe/stepped {ratios['fused_probe_vs_stepped']:.2f}x  "
                f"fused/fused+probe {ratios['probe_overhead']:.2f}x  "
                f"telemetry/fused {ratios['telemetry_vs_fused']:.2f}x  "
                f"faults/fused {ratios['faults_vs_fused']:.2f}x  "
                f"churn/fused {ratios['churn_vs_fused']:.2f}x  "
                f"batched/fused {ratios['batched_vs_fused']:.2f}x  "
                f"A/A fused/fused {ratios['fused_vs_fused']:.2f}x"
            )
    return {
        "benchmark": "F1/F2 ring unison sweep (U o SDR, random initial configs)",
        "tier": "engine-substrate",
        "workload": {
            "algorithm": "U o SDR",
            "topology": "ring",
            "scenario": "random",
            "daemons": list(DAEMONS),
            "backends": list(LABELS),
            "batch_trials": BATCH_TRIALS,
            "steps_per_run": steps,
            "dict_step_divisor": DICT_STEP_DIVISOR,
            "seed": seed,
            "pairs": pairs,
            "timing": TIMING,
        },
        "results": rows,
        "speedup_steps_per_s": speedups,
        "telemetry_phases": telemetry.merge_snapshots(*phase_snaps),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="16,64,128,256",
                        help="comma-separated ring sizes (default 16,64,128,256)")
    parser.add_argument("--steps", type=int, default=500,
                        help="steps per timed run; dict and its stepped "
                             f"partner run a {DICT_STEP_DIVISOR}th of them "
                             "(default 500)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=31,
                        help="alternated rounds per cell; rows report each "
                             "column's median rate, ratios the median "
                             "per-round ratio (default 31)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here (e.g. BENCH_core.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless fused >= fused+probe >= "
                             "stepped >= dict and batched >= fused "
                             "throughput at every size")
    args = parser.parse_args(argv)

    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    from repro.telemetry.provenance import build_manifest, git_info, write_manifest

    # The checkout as measured: writing the report dirties the tree.
    measured = git_info(REPO_ROOT)
    report = run_benchmark(sizes, args.steps, args.seed, args.pairs)

    if args.out:
        out = pathlib.Path(args.out)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {out}")
        manifest = build_manifest(
            phase_stats=report["telemetry_phases"],
            extra={"benchmark": report["benchmark"],
                   "workload": report["workload"]},
            cwd=REPO_ROOT,
        )
        manifest["git"] = measured
        write_manifest(out, manifest)
        print(f"wrote {out.with_name(out.stem + '.manifest.json')}")

    if args.check:
        breakdown = report["telemetry_phases"].get("phases", {})
        if breakdown:
            shares = "  ".join(
                f"{name} {entry['share'] * 100:.0f}%"
                for name, entry in sorted(
                    breakdown.items(), key=lambda kv: -kv[1]["share"]
                )
            )
            print(f"fused-loop phase breakdown (stride-sampled): {shares}")
        failed = False
        for key, (floor, meaning) in FLOORS.items():
            low = {
                cell: ratios[key]
                for cell, ratios in report["speedup_steps_per_s"].items()
                if ratios[key] < floor
            }
            if low:
                print(f"FAIL: {meaning}: {key} below {floor} at {low}")
                failed = True
        if failed:
            return 1
        print("OK: fused >= fused+probe >= stepped >= dict throughput at "
              "every size (stabilization measurement stays on the fused "
              "loop; phase telemetry, the fault-schedule due-check, and "
              "the churn-schedule due-check within their 2% budgets); "
              "batched >= fused")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
