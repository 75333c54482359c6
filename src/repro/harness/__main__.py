"""Command-line entry point: run experiments by id, or sweep a campaign grid.

Usage::

    python -m repro.harness            # list experiments
    python -m repro.harness T5 F3      # run selected experiments
    python -m repro.harness all        # run everything (slow)

    # campaign sweeps through the engine (parallel, persistent, resumable):
    python -m repro.harness sweep \
        --grid algorithm=unison,boulinier --grid topology=ring,random \
        --grid n=8,16,32 --grid scenario=gradient \
        --trials 5 --seed 7 --workers 4 --out results.jsonl --resume

    # inspect a running or crashed sweep from its sidecars:
    python -m repro.harness status results.jsonl

Sweep results are JSONL records keyed by trial descriptor; the same grid
and seed produce byte-identical stores for any ``--workers`` value, and
``--resume`` re-runs only trials missing from ``--out``.  A sweep with
``--out`` also maintains two telemetry sidecars next to the store: a
JSONL event log (``<store>.events.jsonl`` — campaign lifecycle,
per-trial completions, heartbeats) and a provenance manifest
(``<store>.manifest.json`` — git identity, package versions, host, grid
hash).  Wall-clock data lives only in the sidecars; store records stay
byte-identical with telemetry on or off.

``--backend {auto,dict,kernel}`` selects the simulator execution engine
for every trial (array kernel vs dict reference); ``--probe`` selects
the measurement tier (``auto`` measures on vectorized masks, ``decode``
through decode-tier probes served per step) or attaches a named auxiliary probe
(``accounting:100``, ``trace:50``, ``sdr-moves``).  Measured
moves/rounds/steps are independent of all of these; only wall time
differs.

``--faults SPEC`` attaches a deterministic fault schedule (see
:mod:`repro.faults.schedule`) to every trial — unlike backend/probe it
*changes* what is measured, so it is part of each trial's key.
``--churn SPEC`` does the same for topology churn (see
:mod:`repro.faults.churn`): links drop/appear and processes crash/rejoin
mid-run; churn cells always execute serially (never batched).
``--adversary STRATEGY`` replaces every trial's daemon with an
adversarial schedule search (:mod:`repro.adversary`) — also part of the
trial key; adversary cells run serially on the kernel backend and every
found schedule is replay-verified on the dict backend.
Without a failure policy the first failing trial (a dead worker
process included) ends the sweep with ``error: ...``, exit status 1.
``--trial-timeout`` / ``--max-retries`` set one
(:class:`repro.engine.pool.FailurePolicy`): failing trials are retried,
stepped down batch → serial → dict, and finally quarantined — the sweep
completes the rest of the grid and exits nonzero, printing the
quarantine report.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import REGISTRY

#: --grid axis spellings → Campaign field (singular and plural accepted).
_GRID_AXES = {
    "algorithm": "algorithms",
    "algorithms": "algorithms",
    "topology": "topologies",
    "topologies": "topologies",
    "n": "sizes",
    "size": "sizes",
    "sizes": "sizes",
    "scenario": "scenarios",
    "scenarios": "scenarios",
    "daemon": "daemons",
    "daemons": "daemons",
}


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _build_campaign(args):
    from ..core.daemon import DAEMON_KINDS, daemon_kind_known
    from ..engine import Campaign
    from ..topology import TOPOLOGIES

    axes: dict[str, tuple] = {}
    for entry in args.grid:
        name, _, values = entry.partition("=")
        if not values:
            raise ValueError(f"--grid expects AXIS=V1[,V2...], got {entry!r}")
        try:
            field = _GRID_AXES[name.strip()]
        except KeyError:
            raise ValueError(
                f"unknown grid axis {name!r}; choose from {sorted(set(_GRID_AXES))}"
            ) from None
        # Repeated flags for one axis merge (deduplicated, order kept).
        merged = list(axes.get(field, ()))
        merged += [v for v in (v.strip() for v in values.split(","))
                   if v and v not in merged]
        axes[field] = tuple(merged)
    if "sizes" in axes:
        axes["sizes"] = tuple(int(v) for v in axes["sizes"])
    # Fail on bad axis values before any trial runs, not from a worker.
    unknown = [t for t in axes.get("topologies", ()) if t not in TOPOLOGIES]
    if unknown:
        raise ValueError(
            f"unknown topology(ies) {unknown}; choose from {sorted(TOPOLOGIES)}"
        )
    unknown = [d for d in axes.get("daemons", ()) if not daemon_kind_known(d)]
    if unknown:
        raise ValueError(
            f"unknown daemon(s) {unknown}; choose from {list(DAEMON_KINDS)} "
            "(adversarial takes an optional ':<strategy>' suffix)"
        )
    params: dict[str, object] = {}
    for entry in args.param:
        key, sep, value = entry.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"--param expects KEY=VALUE, got {entry!r}")
        params[key.strip()] = _parse_scalar(value)  # last --param wins
    if getattr(args, "backend", None):
        params["backend"] = args.backend
    if getattr(args, "probe", None):
        params["probe"] = args.probe
    if getattr(args, "faults", None):
        # Validate the schedule grammar before any trial runs.  The spec
        # is stored verbatim (not canonicalized): it changes measured
        # results, so it is part of every trial key, and the key must
        # match what the user typed / what a resume re-types.
        from ..faults.schedule import parse_schedule

        parse_schedule(args.faults)
        params["faults"] = args.faults
    if getattr(args, "churn", None):
        # Same contract as --faults: validate up front, store verbatim —
        # churn changes measured results, so the spec is a measured
        # param in every trial key (and forces serial execution; see
        # repro.harness.runner.can_batch).
        from ..faults.churn import parse_churn

        parse_churn(args.churn)
        params["churn"] = args.churn
    if getattr(args, "adversary", None):
        # Same contract again: validate the strategy spec up front,
        # store it verbatim.  The search replaces the scheduler, so the
        # spec changes measured results and keys every trial; it also
        # forces serial kernel-backend execution (see
        # repro.harness.runner.can_batch / _adversary_daemon).
        from ..adversary.search import known_strategy

        if not known_strategy(args.adversary):
            from ..adversary.search import STRATEGY_KINDS

            raise ValueError(
                f"unknown adversary strategy {args.adversary!r}; choose "
                f"from {list(STRATEGY_KINDS)} (beam takes optional "
                "-W, -WxH, -WxHxB suffixes, e.g. beam-3x3)"
            )
        if params.get("backend") == "dict":
            raise ValueError(
                "--adversary requires the kernel backend; replay the "
                "emitted certificate to cross-check the dict backend"
            )
        params["adversary"] = args.adversary
    return Campaign(
        name=args.name,
        seed=args.seed,
        trials=args.trials,
        topology_seed=args.topology_seed,
        params=tuple(params.items()),
        **axes,
    )


def _check_probe_selection(probe: str) -> None:
    """Reject a bad ``--probe`` before any trial runs, not from a worker.

    Mode names are checked directly; a named selection is instantiated
    once (throwaway size) so malformed arguments like ``accounting:xx``
    fail here too.
    """
    from .runner import PROBE_MODES, _check_probe_mode

    _check_probe_mode(probe)
    if probe not in PROBE_MODES:
        from ..probes.registry import make_probe

        make_probe(probe, 2)


def _safe_to_compact(store) -> bool:
    """Only rewrite a store whose every line parses.

    Non-strict reads stop at the first bad line (crash-truncation
    tolerance), so rewriting after a *mid-file* corrupt line would silently
    drop every valid record behind it — possibly other campaigns' data.
    This run's records were already appended, so skipping the cosmetic
    reordering loses nothing.
    """
    from ..engine import StoreError

    try:
        store.load(strict=True)
        return True
    except StoreError:
        pass
    try:
        parsed = len(store.load())
    except StoreError:
        parsed = -1
    with store.path.open("r", encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    if parsed == lines - 1:
        return True  # a lone crash-truncated tail line; rewriting drops it
    # Corruption is not just a trailing partial line: keep the append-only
    # file untouched rather than guess.
    print(f"warning: {store.path} has unreadable records; "
          "skipping grid-order compaction")
    return False


def run_sweep(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness sweep",
        description="Run a campaign grid through the repro.engine subsystem.",
    )
    parser.add_argument(
        "--grid", action="append", default=[], metavar="AXIS=V1[,V2...]",
        help="grid axis (repeatable): algorithm, topology, n, scenario, daemon",
    )
    parser.add_argument("--trials", type=int, default=1,
                        help="replicates per grid cell (default 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign master seed (default 0)")
    parser.add_argument("--topology-seed", type=int, default=0,
                        help="seed for the topology generators (default 0)")
    parser.add_argument("--name", default="sweep", help="campaign name")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="extra trial kwarg, e.g. period=12 or instance=dominating-set")
    parser.add_argument("--backend", default=None, choices=("auto", "dict", "kernel"),
                        help="simulator execution backend for every trial "
                             "(default: auto — array kernel when available)")
    parser.add_argument("--probe", default=None, metavar="SEL",
                        help="measurement tier (auto: vectorized "
                             "legitimacy mask; decode: decode-tier probes "
                             "served per step) or a named auxiliary probe, "
                             "e.g. accounting:100, trace:50, sdr-moves "
                             "(stored results are identical for all of them)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault schedule injected mid-run into every "
                             "trial, e.g. 'burst=50,count=3,gap=100,k=2,"
                             "scope=input'; part of the trial key (it "
                             "changes measured results)")
    parser.add_argument("--churn", default=None, metavar="SPEC",
                        help="topology churn schedule applied mid-run to "
                             "every trial, e.g. 'every=100,crash=1;"
                             "every=150,join=1'; part of the trial key "
                             "(it changes measured results) and forces "
                             "serial execution")
    parser.add_argument("--adversary", default=None, metavar="STRATEGY",
                        help="replace every trial's daemon with an "
                             "adversarial schedule search (greedy, beam, "
                             "beam-WxH, delay); part of the trial key, "
                             "forces serial kernel-backend execution, and "
                             "each found schedule is replay-verified on "
                             "the dict backend")
    parser.add_argument("--trial-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-trial wall-clock deadline; sets a failure "
                             "policy: failing trials are retried and "
                             "quarantined instead of ending the sweep")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retries per failing unit before stepping down "
                             "batch -> serial -> dict and quarantining "
                             "(default 2); sets a failure policy")
    parser.add_argument("--workers", type=int, default=0,
                        help="supervised worker processes; 0 or 1 runs "
                             "serially in-process unless a failure policy "
                             "is set")
    parser.add_argument("--no-batch", action="store_true",
                        help="run every trial separately instead of batching "
                             "a cell's replicates into one vectorized run "
                             "(results are identical either way)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="JSONL result store to append to")
    parser.add_argument("--resume", action="store_true",
                        help="skip trials already present in --out")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-trial progress lines")
    args = parser.parse_args(argv)

    from ..engine import FailurePolicy, ResultStore, run_campaign, summary_table

    try:
        if args.probe is not None:
            _check_probe_selection(args.probe)
        campaign = _build_campaign(args)
        policy = None
        if args.trial_timeout is not None or args.max_retries is not None:
            policy = FailurePolicy(
                trial_timeout=args.trial_timeout,
                max_retries=args.max_retries if args.max_retries is not None
                else FailurePolicy.max_retries,
            )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}")
        return 2
    if args.resume and args.out is None:
        print("error: --resume needs --out")
        return 2

    store = ResultStore(args.out) if args.out else None

    from ..core.exceptions import ReproError
    from ..telemetry import TtyProgress
    from ..telemetry.events import JsonlEventSink, events_path_for
    from ..telemetry.provenance import build_manifest, write_manifest

    # Telemetry sidecars ride the store: an append-only event log for
    # the campaign lifecycle, and a provenance manifest written before
    # the first trial (so even a crashed sweep records what ran) and
    # refreshed afterwards with the phase breakdown.
    events = None
    if store is not None:
        events = JsonlEventSink(events_path_for(store.path))
        write_manifest(store.path, build_manifest(campaign=campaign))

    renderer = None
    if not args.quiet and sys.stderr.isatty():
        renderer = TtyProgress(label=campaign.name)

    def progress(done: int, total: int, record: dict) -> None:
        if renderer is not None:
            renderer(done, total, record)
        elif not args.quiet:
            print(f"[{done}/{total}] {record['key']}")

    try:
        outcome = run_campaign(
            campaign, store=store, workers=args.workers,
            resume=args.resume, progress=progress,
            batch=not args.no_batch, events=events, policy=policy,
        )
    except (ReproError, ValueError) as exc:
        # Completed trials are already in --out; rerun with --resume to
        # finish after fixing the grid.
        print(f"error: {exc}")
        return 1
    finally:
        if renderer is not None:
            renderer.close()
        if events is not None:
            events.close()

    if store is not None:
        from ..telemetry import phases

        write_manifest(
            store.path,
            build_manifest(campaign=campaign, phase_stats=phases.snapshot()),
        )

    if store is not None and _safe_to_compact(store):
        # Compact to deterministic grid order (atomic rewrite): equal grids
        # yield byte-identical stores for any worker count or resume split.
        ours = {record["key"] for record in outcome.records}
        foreign = [
            record for record in store.iter_records()
            if not (record.get("key") in ours
                    and record.get("campaign_seed") == campaign.seed)
        ]
        store.rewrite(foreign + outcome.records)

    print()
    print(summary_table(
        outcome.records,
        group_by=("algorithm", "topology", "n", "scenario", "daemon"),
        title=f"campaign {campaign.name!r} (seed {campaign.seed}, mean per cell)",
    ).render())
    ran, skipped = outcome.ran, outcome.skipped
    where = f" -> {args.out}" if args.out else ""
    print(f"\n{ran} trial(s) run, {skipped} already stored{where}")
    if outcome.failures:
        # The rest of the grid completed; report the quarantine and exit
        # nonzero so CI notices without losing the landed records.
        print(f"\n{len(outcome.failures)} trial(s) quarantined:")
        for failure in outcome.failures:
            print(f"  {failure['key']} [{failure['reason']}, "
                  f"{failure['retries']} retries]: {failure['error']}")
        return 1
    return 0


def run_status(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness status",
        description="Summarize a sweep from its store and telemetry "
                    "sidecars (works mid-run and after a crash).",
    )
    parser.add_argument("store", metavar="STORE",
                        help="the sweep's --out JSONL result store")
    parser.add_argument("--json", action="store_true",
                        help="print the raw JSON summary instead of text")
    args = parser.parse_args(argv)

    import os

    from ..telemetry.events import events_path_for
    from ..telemetry.provenance import manifest_path_for
    from ..telemetry.status import render_status, summarize_status

    # A sweep that failed before its first landed trial leaves only the
    # sidecars (the store file is created lazily) — that is exactly when
    # a status check matters most, so any of the three files will do.
    known = (args.store, events_path_for(args.store), manifest_path_for(args.store))
    if not any(os.path.exists(p) for p in known):
        print(f"error: no result store (or telemetry sidecars) at {args.store}")
        return 2
    summary = summarize_status(args.store)
    if args.json:
        import json

        print(json.dumps(summary, indent=2))
    else:
        print(render_status(summary))
    return 1 if summary["failures"] else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "sweep":
        return run_sweep(argv[1:])
    if argv and argv[0] == "status":
        return run_status(argv[1:])
    if not argv:
        print("Available experiments (pass ids, or 'all'; or use 'sweep'):")
        for key in REGISTRY:
            print(f"  {key}")
        return 0
    wanted = list(REGISTRY) if argv == ["all"] else argv
    failed = []
    for key in wanted:
        if key not in REGISTRY:
            print(f"unknown experiment {key!r}; available: {', '.join(REGISTRY)}")
            return 2
        result = REGISTRY[key]()
        print(result.render())
        print()
        if not result.ok:
            failed.append(key)
    if failed:
        print(f"FAILED experiments: {', '.join(failed)}")
        return 1
    print("All selected experiments PASSED.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
