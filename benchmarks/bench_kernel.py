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
  measurement configuration): the probe evaluates the program's
  ``normal_mask`` every step *inside* the loop, and the run asserts the
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
⇒ equal traces); the report records best-of steps/sec, moves/sec and
wall time per size, and the pairwise speedups.  Every repeat times all
columns back to back, in an order rotated by one column per repeat, and
a speedup is the median over repeats of that repeat's ratio — a noisy
co-tenant slows one repeat's columns alike, so ratios stay honest on a
shared host.  The tracked baseline keeps the perf trajectory honest; CI
runs a small-size smoke (``--check`` asserts fused ≥ fused+probe ≥
stepped ≥ dict and batched ≥ fused, with measurement *and* telemetry
overhead bounded).  ``--out`` also writes a provenance manifest sidecar
(git SHA, package versions, host, phase breakdown) next to the JSON
report.

Usage::

    python benchmarks/bench_kernel.py                      # full sweep
    python benchmarks/bench_kernel.py --sizes 32,64 --steps 500 --check
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


def time_cell(
    n: int, daemon: str, steps: int, seed: int, repeats: int
) -> tuple[dict, dict, dict | None]:
    """Time every configuration on one cell, ``repeats`` times.

    The repeat loop is *outside* the configuration loop: each repeat
    times all configurations back to back, starting one column later
    than the previous repeat, so a noisy co-tenant (CI runners, the
    shared 2-core host) degrades every column of that repeat about
    equally instead of sinking whichever configuration it happened to
    overlap, and no column always runs first.  Returns ``(rows_by_label,
    rates, phase_snapshot)``: best-of rows, each label's steps/s per
    repeat, and the fastest telemetry repeat's phase breakdown (only
    when a telemetry-enabled configuration ran).
    """
    network = ring(n)
    sdr = SDR(Unison(network))
    cfg = sdr.random_configuration(Random(seed))
    best: dict[str, float] = {}
    results: dict[str, object] = {}
    rates: dict[str, list[float]] = {label: [] for label in LABELS}
    phase_snapshot = None
    for rep in range(repeats):
        shift = rep % len(CONFIGS)
        for label, sim_kwargs, probe, trace in CONFIGS[shift:] + CONFIGS[:shift]:
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
                    sdr.is_normal, mask="normal_mask", stop=False,
                ))
                if not sim.fusion_available:
                    raise SystemExit(
                        "FAIL: attaching a vectorized StabilizationProbe "
                        "disabled the fused loop"
                    )
            if trace:
                with telemetry.recording() as stats:
                    t0 = time.perf_counter()
                    result = sim.run(max_steps=steps)
                    elapsed = time.perf_counter() - t0
                if label not in best or elapsed < best[label]:
                    phase_snapshot = stats.snapshot()
            else:
                t0 = time.perf_counter()
                result = sim.run(max_steps=steps)
                elapsed = time.perf_counter() - t0
            rates[label].append(result.steps / elapsed)
            if label not in best or elapsed < best[label]:
                best[label] = elapsed
                results[label] = (result.steps, result.moves, result.rounds)
        t0 = time.perf_counter()
        outcomes = run_batched(sdr, network, daemon, steps, seed)
        elapsed = time.perf_counter() - t0
        if outcomes[0].moves != results["fused"][1]:
            raise SystemExit(
                "FAIL: batched replicate 0 diverged from the fused run — "
                f"moves {outcomes[0].moves} != {results['fused'][1]}"
            )
        trial_steps = sum(o.steps for o in outcomes)
        rates["batched"].append(trial_steps / elapsed)
        if "batched" not in best or elapsed < best["batched"]:
            best["batched"] = elapsed
            results["batched"] = tuple(
                sum(getattr(o, field) for o in outcomes)
                for field in ("steps", "moves", "rounds")
            )
    rows = {
        label: {
            "n": n,
            "daemon": daemon,
            "backend": label,
            "steps": results[label][0],
            "moves": results[label][1],
            "rounds": results[label][2],
            "wall_s": round(best[label], 6),
            "steps_per_s": round(results[label][0] / best[label], 1),
            "moves_per_s": round(results[label][1] / best[label], 1),
        }
        for label in best
    }
    return rows, rates, phase_snapshot


def median_ratio(rates: dict[str, list[float]], a: str, b: str) -> float:
    """Median over repeats of ``a``'s steps/s over ``b``'s, same repeat."""
    return statistics.median(x / y for x, y in zip(rates[a], rates[b]))


def run_benchmark(sizes: list[int], steps: int, seed: int, repeats: int) -> dict:
    rows = []
    speedups = {}
    phase_snaps = []
    for daemon in DAEMONS:
        for n in sizes:
            cell, rates, snap = time_cell(n, daemon, steps, seed, repeats)
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
            # Telemetry is write-only observation, and a never-firing
            # fault schedule never touches state: both runs must be the
            # same execution, not merely a similar one.
            for variant in ("fused+telemetry", "fused+faults", "fused+churn"):
                for field in ("steps", "moves", "rounds"):
                    if cell[variant][field] != cell["fused"][field]:
                        raise SystemExit(
                            f"FAIL: {variant} changed the execution — {field} "
                            f"{cell[variant][field]} != {cell['fused'][field]}"
                        )
            ratios = {
                key: median_ratio(rates, a, b)
                for key, (a, b) in (
                    ("stepped_vs_dict", ("stepped", "dict")),
                    ("fused_vs_stepped", ("fused", "stepped")),
                    ("fused_vs_dict", ("fused", "dict")),
                    ("fused_probe_vs_stepped", ("fused+probe", "stepped")),
                    ("probe_overhead", ("fused", "fused+probe")),
                    # Throughput retained with phase tracing on (>= 1
                    # means free); the 2% budget + noise puts the --check
                    # floor at 0.93.
                    ("telemetry_vs_fused", ("fused+telemetry", "fused")),
                    # Throughput retained with a (never-firing) fault
                    # schedule attached — same 2% budget + noise floor.
                    ("faults_vs_fused", ("fused+faults", "fused")),
                    # Throughput retained with a (never-firing) churn
                    # schedule attached — due-check + liveness mask cost.
                    ("churn_vs_fused", ("fused+churn", "fused")),
                    # Trial-steps/s of a BATCH_TRIALS-lane batch over the
                    # single run's steps/s: what batching a cell buys.
                    ("batched_vs_fused", ("batched", "fused")),
                )
            }
            speedups[f"{daemon}/n={n}"] = {
                key: round(value, 2) for key, value in ratios.items()
            }
            print(
                f"  n={n:4d} {daemon:19s} speedup "
                f"stepped/dict {ratios['stepped_vs_dict']:.2f}x  "
                f"fused/stepped {ratios['fused_vs_stepped']:.2f}x  "
                f"fused/dict {ratios['fused_vs_dict']:.2f}x  "
                f"fused+probe/stepped {ratios['fused_probe_vs_stepped']:.2f}x  "
                f"telemetry/fused {ratios['telemetry_vs_fused']:.2f}x  "
                f"faults/fused {ratios['faults_vs_fused']:.2f}x  "
                f"churn/fused {ratios['churn_vs_fused']:.2f}x  "
                f"batched/fused {ratios['batched_vs_fused']:.2f}x"
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
            "seed": seed,
            "repeats": repeats,
        },
        "results": rows,
        "speedup_steps_per_s": speedups,
        "telemetry_phases": telemetry.merge_snapshots(*phase_snaps),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="16,64,128,256",
                        help="comma-separated ring sizes (default 16,64,128,256)")
    parser.add_argument("--steps", type=int, default=2000,
                        help="steps per timed run (default 2000)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per cell; rows report the best, "
                             "speedups the median per-repeat ratio (default 3)")
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
    report = run_benchmark(sizes, args.steps, args.seed, args.repeats)

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
        # probe_overhead (fused / fused+probe) gets a small noise
        # allowance: the two configurations differ only by the mask
        # evaluation, and short smoke runs jitter a few percent.
        slow = {
            cell: ratios
            for cell, ratios in report["speedup_steps_per_s"].items()
            if ratios["stepped_vs_dict"] < 1.0
            or ratios["fused_vs_stepped"] < 1.0
            or ratios["fused_probe_vs_stepped"] < 1.0
            or ratios["probe_overhead"] < 0.95
        }
        if slow:
            print("FAIL: backend ordering fused >= fused+probe >= stepped "
                  f">= dict violated at {slow}")
            return 1
        # Enabled phase tracing must retain >= 93% of fused throughput:
        # the 2% sampling budget plus the same jitter allowance.
        heavy = {
            cell: ratios["telemetry_vs_fused"]
            for cell, ratios in report["speedup_steps_per_s"].items()
            if ratios["telemetry_vs_fused"] < 0.93
        }
        if heavy:
            print("FAIL: phase telemetry slowed the fused loop beyond its "
                  f"2% budget (plus noise allowance) at {heavy}")
            return 1
        # An attached-but-idle fault schedule gets the same budget: the
        # per-step due-check must not kick the loop off its fast path.
        dragging = {
            cell: ratios["faults_vs_fused"]
            for cell, ratios in report["speedup_steps_per_s"].items()
            if ratios["faults_vs_fused"] < 0.93
        }
        if dragging:
            print("FAIL: the fault-schedule due-check slowed the fused loop "
                  f"beyond its 2% budget (plus noise allowance) at {dragging}")
            return 1
        # An attached-but-idle churn schedule too: the hoisted peek and
        # the liveness mask must not kick the loop off its fast path.
        churning = {
            cell: ratios["churn_vs_fused"]
            for cell, ratios in report["speedup_steps_per_s"].items()
            if ratios["churn_vs_fused"] < 0.93
        }
        if churning:
            print("FAIL: the churn-schedule due-check slowed the fused loop "
                  f"beyond its 2% budget (plus noise allowance) at {churning}")
            return 1
        # Batching a cell must pay: BATCH_TRIALS lanes through one
        # driver beat one lane per run in trial-steps/s.
        unbatched = {
            cell: ratios["batched_vs_fused"]
            for cell, ratios in report["speedup_steps_per_s"].items()
            if ratios["batched_vs_fused"] < 1.0
        }
        if unbatched:
            print("FAIL: batched trial-steps/s fell below the fused "
                  f"single run at {unbatched}")
            return 1
        print("OK: fused >= fused+probe >= stepped >= dict throughput at "
              "every size (stabilization measurement stays on the fused "
              "loop; phase telemetry, the fault-schedule due-check, and "
              "the churn-schedule due-check within their 2% budgets); "
              "batched >= fused")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
