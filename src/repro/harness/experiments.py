"""The per-claim experiment registry (see DESIGN.md §4 and EXPERIMENTS.md).

The paper's evaluation is analytical; every theorem bound and comparison
claim maps to one experiment here.  Each experiment function returns an
:class:`ExperimentResult` whose ``ok`` flag asserts the claim's empirical
counterpart (measured ≤ bound, or comparison direction), whose ``table``
holds the printable rows, and whose ``data`` keeps raw series for figures.

Benchmarks in ``benchmarks/`` call these functions with small default
grids; larger sweeps can be run directly, e.g.::

    from repro.harness import experiments
    print(experiments.experiment_t3_t4(sizes=(10, 20, 40), trials=5).table)

The sweep-shaped experiments (T3/T4, T5, T11, F1/F2) route their grids
through the :mod:`repro.engine` campaign engine and take ``workers=N`` to
fan out across processes and ``store=ResultStore(path)`` to persist and
resume.  T11 is the storm-recovery experiment the paper never ran: a
deterministic mid-run fault schedule (k corruptions every ``cadence``
steps) with per-burst recovery stopwatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Sequence

import numpy as np

from ..alliance.fga import FGA
from ..alliance.functions import INSTANCES, dominating_set
from ..alliance.spec import (
    is_fga_stable,
    is_minimal_dominating_set,
    is_one_minimal,
    one_minimality_guaranteed,
)
from ..alliance.turau import TurauMIS
from ..analysis import bounds
from ..analysis.stats import fit_power_law, summarize
from ..baselines.mono_reset import MonoReset
from ..adversary.search import AdversarialDaemon, delay_strategy
from ..core.daemon import (
    CentralDaemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    SynchronousDaemon,
)
from ..core.detectors import measure_stabilization
from ..core.simulator import Simulator
from ..faults.injector import corrupt_processes
from ..probes import Probe
from ..reset.sdr import SDR, SDR_RULES
from ..topology import by_name
from ..unison.unison import Unison
from .runner import run_network_trial
from .figures import Figure
from .tables import Table

__all__ = [
    "ExperimentResult",
    "SdrMoveCounter",
    "experiment_t1_t2",
    "experiment_t3_t4",
    "experiment_t5",
    "experiment_t6_t7",
    "experiment_t8",
    "experiment_t9",
    "experiment_t10",
    "experiment_t11",
    "experiment_t12",
    "experiment_t13",
    "figure_f1_f2",
    "figure_f3",
    "figure_f4",
    "figure_f5",
    "figure_f6",
    "figure_f7",
    "experiment_p1",
    "experiment_a1",
    "REGISTRY",
]


@dataclass
class ExperimentResult:
    """Outcome of one experiment: printable table, pass flag, raw data."""

    experiment_id: str
    claim: str
    table: Table
    ok: bool
    data: dict[str, Any] = field(default_factory=dict)
    figure: Figure | None = None

    def render(self) -> str:
        parts = [f"[{self.experiment_id}] {self.claim}", self.table.render()]
        if self.figure is not None:
            parts.append(self.figure.render())
        parts.append(f"RESULT: {'PASS' if self.ok else 'FAIL'}")
        return "\n\n".join(parts)


class SdrMoveCounter(Probe):
    """Two-tier probe tallying SDR-rule moves per process (Corollary 4).

    The array driver exposes the executed dispatch as
    ``ColumnView.chosen_rules``, so kernel executions count SDR moves
    with one boolean gather per step; the dict backend and
    ``Simulator.step`` use the decode tier — both tiers produce
    identical counts.
    """

    name = "sdr-move-counter"

    def __init__(self, n: int):
        self.counts = np.zeros(n, dtype=np.int64)
        self.rules = set(SDR_RULES)
        #: Per-rule-index "is an SDR rule" lookup, resolved against the
        #: observed program's rule order on first vector-tier call.
        self._rule_mask: np.ndarray | None = None

    def wants_decode(self) -> bool:
        return False

    # Decode tier (dict backend, Simulator.step) ----------------------
    def on_step(self, sim, record) -> None:
        for u, rule in record.selection.items():
            if rule in self.rules:
                self.counts[u] += 1

    # Vector tier ------------------------------------------------------
    def on_columns(self, view) -> None:
        if view.phase == "start":
            return
        if self._rule_mask is None:
            self._rule_mask = np.array(
                [rule in self.rules for rule in view.program.rules],
                dtype=np.bool_,
            )
        # ``chosen`` holds unique process indices, so the fancy-indexed
        # increment needs no np.add.at.
        sdr_moves = view.chosen[self._rule_mask[view.chosen_rules]]
        self.counts[sdr_moves] += 1

    @property
    def touched(self) -> int:
        """Number of processes that executed at least one SDR rule."""
        return int(np.count_nonzero(self.counts))


def _daemon_menu(network):
    return {
        "synchronous": SynchronousDaemon(),
        "central": CentralDaemon(),
        "locally-central": LocallyCentralDaemon(network),
        "distributed-random": DistributedRandomDaemon(0.5),
        "adversarial": AdversarialDaemon(delay_strategy),
    }


# ======================================================================
# T1/T2 — SDR layer bounds (Corollaries 4 and 5)
# ======================================================================
def experiment_t1_t2(
    sizes: Sequence[int] = (8, 12, 16),
    topologies: Sequence[str] = ("ring", "random", "tree"),
    trials: int = 3,
    daemons: Sequence[str] = ("distributed-random", "adversarial", "synchronous"),
) -> ExperimentResult:
    """Cor. 4: ≤ 3n+3 SDR moves per process; Cor. 5: normal config ≤ 3n rounds."""
    table = Table(
        "T1/T2 — SDR bounds (input: U), worst measurement per cell",
        ["topology", "n", "daemon", "max SDR moves/proc", "bound 3n+3",
         "rounds", "bound 3n", "ok"],
    )
    ok = True
    for topo in topologies:
        for n in sizes:
            net = by_name(topo, n, seed=1)
            for daemon_name in daemons:
                worst_moves = worst_rounds = 0
                for seed in range(trials):
                    sdr = SDR(Unison(net))
                    rng = Random(seed)
                    cfg = sdr.random_configuration(rng)
                    counter = SdrMoveCounter(net.n)
                    sim = Simulator(
                        sdr, _daemon_menu(net)[daemon_name], config=cfg,
                        seed=seed, probes=[counter],
                    )
                    detector, _ = measure_stabilization(
                        sim, sdr.is_normal, max_steps=2_000_000, mask="normal"
                    )
                    # Run past stabilization: per-process SDR moves are a
                    # whole-execution bound, not just to stabilization.
                    sim.run(max_steps=20 * net.n)
                    worst_moves = max(worst_moves, max(counter.counts))
                    worst_rounds = max(worst_rounds, detector.rounds or 0)
                move_bound = bounds.sdr_moves_per_process_bound(net.n)
                round_bound = bounds.sdr_rounds_bound(net.n)
                cell_ok = worst_moves <= move_bound and worst_rounds <= round_bound
                ok &= cell_ok
                table.add_row(topo, net.n, daemon_name, worst_moves, move_bound,
                              worst_rounds, round_bound, cell_ok)
    return ExperimentResult(
        "T1/T2",
        "Any process executes ≤ 3n+3 SDR moves; normal configuration within ≤ 3n rounds",
        table,
        ok,
    )


# ======================================================================
# T3/T4 — U ∘ SDR stabilization bounds (Theorems 6 and 7)
# ======================================================================
def experiment_t3_t4(
    sizes: Sequence[int] = (8, 12, 16),
    topologies: Sequence[str] = ("ring", "grid", "random"),
    trials: int = 3,
    scenarios: Sequence[str] = ("random", "gradient", "split"),
    workers: int = 0,
    store=None,
) -> ExperimentResult:
    """Thm. 6: moves ≤ (3D+3)n²+(3D+1)(n−1)+1; Thm. 7: rounds ≤ 3n.

    The (topology × n × scenario × trial) sweep runs through the campaign
    engine: ``workers`` fans it out across processes, ``store`` (a
    :class:`repro.engine.ResultStore`) persists and resumes it.
    """
    from ..engine import Campaign, run_campaign
    from ..engine.reports import group_records

    campaign = Campaign(
        "t3-t4-unison-bounds", seed=0, algorithms=("unison",),
        topologies=tuple(topologies), sizes=tuple(sizes),
        scenarios=tuple(scenarios), trials=trials, topology_seed=2,
    )
    outcome = run_campaign(
        campaign, store=store, workers=workers, resume=store is not None
    )
    cells = group_records(outcome.records, ("topology", "n", "scenario"))

    table = Table(
        "T3/T4 — U ∘ SDR stabilization, worst measurement per cell",
        ["topology", "n", "D", "scenario", "moves", "move bound", "rounds",
         "round bound", "ok"],
    )
    ok = True
    for (topo, _, scenario), group in cells.items():
        # All records in a cell share the network, so n/D come from any one.
        n = group[0]["result"]["n"]
        diameter = group[0]["result"]["diameter"]
        worst_moves = max(r["result"]["moves"] for r in group)
        worst_rounds = max(r["result"]["rounds"] for r in group)
        mb = bounds.unison_move_bound(n, diameter)
        rb = bounds.unison_rounds_bound(n)
        cell_ok = worst_moves <= mb and worst_rounds <= rb
        ok &= cell_ok
        table.add_row(topo, n, diameter, scenario, worst_moves,
                      mb, worst_rounds, rb, cell_ok)
    return ExperimentResult(
        "T3/T4",
        "U ∘ SDR stabilizes within O(D·n²) moves and 3n rounds",
        table,
        ok,
    )


# ======================================================================
# T5 — comparison with the reset-tail baseline [11]
# ======================================================================
def experiment_t5(
    sizes: Sequence[int] = (8, 12, 16, 20),
    topology: str = "ring",
    trials: int = 3,
    scenario: str = "gradient",
    workers: int = 0,
    store=None,
) -> ExperimentResult:
    """§5.3: ours wins in moves (strictly, on average) and matches O(n) rounds.

    Both algorithms share one engine campaign (``workers``/``store`` as in
    :func:`experiment_t3_t4`), so the head-to-head grid can run in parallel
    and resume from a partial store.
    """
    from ..engine import Campaign, aggregate, run_campaign

    campaign = Campaign(
        "t5-unison-vs-boulinier", seed=0,
        algorithms=("unison", "boulinier"), topologies=(topology,),
        sizes=tuple(sizes), scenarios=(scenario,), trials=trials,
        topology_seed=3,
    )
    outcome = run_campaign(
        campaign, store=store, workers=workers, resume=store is not None
    )
    moves = aggregate(outcome.records, ("algorithm", "n"), "moves", "mean")
    rounds = aggregate(outcome.records, ("algorithm", "n"), "rounds", "mean")

    table = Table(
        "T5 — U ∘ SDR vs Boulinier-style baseline (means over seeds)",
        ["n", "ours moves", "baseline moves", "move ratio", "ours rounds",
         "baseline rounds", "ok"],
    )
    ok = True
    data: dict[str, list] = {"n": [], "ours_moves": [], "base_moves": []}
    for n in campaign.sizes:
        ours_m, base_m = moves[("unison", n)], moves[("boulinier", n)]
        ours_r, base_r = rounds[("unison", n)], rounds[("boulinier", n)]
        ratio = base_m / max(ours_m, 1)
        row_ok = base_m >= ours_m
        ok &= row_ok
        table.add_row(n, f"{ours_m:.0f}", f"{base_m:.0f}",
                      f"{ratio:.2f}x", f"{ours_r:.1f}", f"{base_r:.1f}", row_ok)
        data["n"].append(n)
        data["ours_moves"].append(ours_m)
        data["base_moves"].append(base_m)
    return ExperimentResult(
        "T5",
        "U ∘ SDR uses fewer moves than the reset-tail baseline at equal disorder",
        table,
        ok,
        data=data,
    )


# ======================================================================
# T6/T7 — FGA ∘ SDR bounds (Theorems 12/13/14)
# ======================================================================
def experiment_t6_t7(
    sizes: Sequence[int] = (8, 12, 16),
    topologies: Sequence[str] = ("random", "grid"),
    trials: int = 3,
    scenarios: Sequence[str] = ("random", "hollow"),
) -> ExperimentResult:
    """Thm. 12: silent, ≤ (n+1)(16mΔ+36m+27n) moves; Thm. 14: ≤ 8n+4 rounds."""
    table = Table(
        "T6/T7 — FGA ∘ SDR (dominating-set instance), worst per cell",
        ["topology", "n", "m", "Δ", "scenario", "moves", "move bound",
         "rounds", "round bound", "ok"],
    )
    ok = True
    for topo in topologies:
        for n in sizes:
            net = by_name(topo, n, seed=4)
            f, g = dominating_set(net)
            for scenario in scenarios:
                worst_moves = worst_rounds = 0
                alliances_ok = True
                for seed in range(trials):
                    trial = run_network_trial(
                        "fga", net, instance=(f, g), seed=seed, scenario=scenario
                    )
                    worst_moves = max(worst_moves, trial.moves)
                    worst_rounds = max(worst_rounds, trial.rounds)
                    alliances_ok &= is_one_minimal(net, trial.extra["alliance"], f, g)
                mb = bounds.fga_sdr_move_bound(net.n, net.m, net.max_degree)
                rb = bounds.fga_sdr_rounds_bound(net.n)
                cell_ok = worst_moves <= mb and worst_rounds <= rb and alliances_ok
                ok &= cell_ok
                table.add_row(topo, net.n, net.m, net.max_degree, scenario,
                              worst_moves, mb, worst_rounds, rb, cell_ok)
    return ExperimentResult(
        "T6/T7",
        "FGA ∘ SDR is silent, 1-minimal, within O(Δ·n·m) moves and 8n+4 rounds",
        table,
        ok,
    )


# ======================================================================
# T8 — standalone FGA from γ_init (Cor. 11/12, Lemma 25)
# ======================================================================
def experiment_t8(
    sizes: Sequence[int] = (8, 12, 16),
    topologies: Sequence[str] = ("random", "ring"),
    trials: int = 3,
) -> ExperimentResult:
    """Standalone FGA from γ_init: total/per-process moves and round bounds."""
    table = Table(
        "T8 — standalone FGA from γ_init, worst per cell",
        ["topology", "n", "moves", "bound 16Δm+36m+24n", "max/proc",
         "per-proc bound", "rounds", "bound 5n+4", "ok"],
    )
    ok = True
    for topo in topologies:
        for n in sizes:
            net = by_name(topo, n, seed=5)
            f, g = dominating_set(net)
            worst_moves = worst_pp = worst_rounds = 0
            for seed in range(trials):
                fga = FGA(net, f, g)
                sim = Simulator(
                    fga, DistributedRandomDaemon(0.5),
                    config=fga.initial_configuration(), seed=seed,
                )
                result = sim.run_to_termination(max_steps=2_000_000)
                worst_moves = max(worst_moves, result.moves)
                worst_pp = max(worst_pp, max(sim.moves_per_process))
                worst_rounds = max(worst_rounds, result.rounds)
            mb = bounds.fga_standalone_move_bound(net.n, net.m, net.max_degree)
            ppb = bounds.fga_standalone_moves_per_process_bound(
                net.max_degree, net.max_degree
            )
            rb = bounds.fga_standalone_rounds_bound(net.n)
            cell_ok = worst_moves <= mb and worst_pp <= ppb and worst_rounds <= rb
            ok &= cell_ok
            table.add_row(topo, net.n, worst_moves, mb, worst_pp, ppb,
                          worst_rounds, rb, cell_ok)
    return ExperimentResult(
        "T8",
        "Standalone FGA terminates within 16Δm+36m+24n moves and 5n+4 rounds",
        table,
        ok,
    )


# ======================================================================
# T9 — the six alliance instances (Section 6.1)
# ======================================================================
def experiment_t9(
    n: int = 12,
    topology: str = "random",
    trials: int = 2,
) -> ExperimentResult:
    """Each classical instance is solved; outputs verified 1-minimal."""
    table = Table(
        "T9 — classical (f,g)-alliance instances via FGA ∘ SDR",
        ["instance", "n", "|A| (mean)", "moves (mean)", "rounds (mean)",
         "f>g (Thm 8)", "minimality ok"],
    )
    ok = True
    for name, factory in sorted(INSTANCES.items()):
        net = by_name(topology, n, seed=6)
        try:
            f, g = factory(net)
        except Exception:
            # Instance infeasible on this topology draw (degree too low);
            # retry on a denser graph.
            net = by_name("complete", max(n, 6), seed=6)
            f, g = factory(net)
        # Reproduction finding (see DESIGN.md): Theorem 8's 1-minimality
        # only follows when f > g pointwise; otherwise the published guards
        # enforce the weaker "FGA-1-minimality" (strict score margin).
        guaranteed = one_minimality_guaranteed(f, g)
        checker = is_one_minimal if guaranteed else is_fga_stable
        sizes, moves, rounds, minimal = [], [], [], True
        for seed in range(trials):
            trial = run_network_trial("fga", net, instance=(f, g), seed=seed)
            sizes.append(trial.extra["alliance_size"])
            moves.append(trial.moves)
            rounds.append(trial.rounds)
            minimal &= checker(net, trial.extra["alliance"], f, g)
        ok &= minimal
        mean = lambda xs: sum(xs) / len(xs)
        table.add_row(name, net.n, f"{mean(sizes):.1f}", f"{mean(moves):.0f}",
                      f"{mean(rounds):.1f}", guaranteed, minimal)
    return ExperimentResult(
        "T9",
        "The six instances of Section 6.1 are solved by FGA ∘ SDR "
        "(1-minimality verified where Theorem 8's f > g hypothesis holds; "
        "FGA-1-minimality otherwise — see the reproduction finding in "
        "DESIGN.md §6)",
        table,
        ok,
    )


# ======================================================================
# T10 — FGA(1,0) ∘ SDR vs Turau-style MIS
# ======================================================================
def experiment_t10(
    sizes: Sequence[int] = (8, 12, 16),
    topology: str = "random",
    trials: int = 3,
) -> ExperimentResult:
    """Both compute minimal dominating sets; the specialized baseline is
    cheaper in moves (the price of FGA's generality), both are correct."""
    table = Table(
        "T10 — minimal dominating set: FGA ∘ SDR vs Turau-style MIS",
        ["n", "FGA moves", "Turau moves", "FGA |A|", "Turau |A|",
         "both correct"],
    )
    ok = True
    for n in sizes:
        net = by_name(topology, n, seed=7)
        f, g = dominating_set(net)
        fga_moves, turau_moves, fga_sizes, turau_sizes = [], [], [], []
        correct = True
        for seed in range(trials):
            trial = run_network_trial("fga", net, instance=(f, g), seed=seed)
            fga_moves.append(trial.moves)
            fga_sizes.append(trial.extra["alliance_size"])
            correct &= is_one_minimal(net, trial.extra["alliance"], f, g)

            mis = TurauMIS(net)
            sim = Simulator(
                mis, DistributedRandomDaemon(0.5),
                config=mis.random_configuration(Random(seed)), seed=seed,
            )
            sim.run_to_termination(max_steps=1_000_000)
            members = mis.members(sim.cfg)
            turau_moves.append(sim.move_count)
            turau_sizes.append(len(members))
            correct &= is_minimal_dominating_set(net, members)
        ok &= correct
        mean = lambda xs: sum(xs) / len(xs)
        table.add_row(n, f"{mean(fga_moves):.0f}", f"{mean(turau_moves):.0f}",
                      f"{mean(fga_sizes):.1f}", f"{mean(turau_sizes):.1f}", correct)
    return ExperimentResult(
        "T10",
        "FGA(1,0) ∘ SDR and the Turau-style baseline both produce minimal "
        "dominating sets",
        table,
        ok,
    )


# ======================================================================
# Figures
# ======================================================================
def figure_f1_f2(
    sizes: Sequence[int] = (8, 12, 16, 24),
    topology: str = "ring",
    trials: int = 3,
    scenario: str = "gradient",
    workers: int = 0,
    store=None,
) -> ExperimentResult:
    """F1: rounds vs n; F2: moves vs n (log–log) with fitted exponents.

    The scaling sweep runs through the campaign engine (``workers`` for
    parallel fan-out, ``store`` for persist/resume) — this is the sweep the
    figure benchmarks exercise end-to-end.
    """
    from ..engine import Campaign, aggregate, run_campaign

    campaign = Campaign(
        "f1-f2-unison-scaling", seed=0,
        algorithms=("unison", "boulinier"), topologies=(topology,),
        sizes=tuple(sizes), scenarios=(scenario,), trials=trials,
        topology_seed=8,
    )
    outcome = run_campaign(
        campaign, store=store, workers=workers, resume=store is not None
    )
    moves = aggregate(outcome.records, ("algorithm", "n"), "moves", "mean")
    rounds = aggregate(outcome.records, ("algorithm", "n"), "rounds", "mean")

    fig = Figure("F2 — stabilization moves vs n", "n", "moves", loglog=True)
    table = Table(
        "F1/F2 — unison scaling (means over seeds)",
        ["n", "ours rounds", "base rounds", "ours moves", "base moves"],
    )
    ours_pts, base_pts = [], []
    for n in campaign.sizes:
        ours_m, base_m = moves[("unison", n)], moves[("boulinier", n)]
        ours_r, base_r = rounds[("unison", n)], rounds[("boulinier", n)]
        table.add_row(n, f"{ours_r:.1f}", f"{base_r:.1f}",
                      f"{ours_m:.0f}", f"{base_m:.0f}")
        ours_pts.append((n, ours_m))
        base_pts.append((n, base_m))
    fig.add("U o SDR", ours_pts)
    fig.add("boulinier", base_pts)
    ours_exp, _ = fit_power_law([p[0] for p in ours_pts], [max(p[1], 1) for p in ours_pts])
    base_exp, _ = fit_power_law([p[0] for p in base_pts], [max(p[1], 1) for p in base_pts])
    # Shape claim: the baseline grows at least as fast as ours.
    ok = base_exp >= ours_exp - 0.25
    return ExperimentResult(
        "F1/F2",
        "Move growth exponent: ours ≈ n^"
        f"{ours_exp:.2f}, baseline ≈ n^{base_exp:.2f}",
        table,
        ok,
        data={"ours_exponent": ours_exp, "base_exponent": base_exp},
        figure=fig,
    )


def figure_f3(
    n: int = 24,
    topology: str = "random",
    fault_counts: Sequence[int] = (1, 2, 4, 8),
    trials: int = 4,
) -> ExperimentResult:
    """F3 (ablation): multi-initiator concurrency vs number of faults.

    By design (Section 3.3) a reset floods the whole connected network —
    ``rule_RB`` makes even locally-correct processes join — so the
    *footprint* is always ``n`` once any reset starts.  What cooperation
    buys is concurrency without restarts: more fault sites mean more
    initiators (``rule_R``), yet the per-process reset work stays at one
    wave (≈ 3 SDR moves each: RB/R, RF, C) and recovery cost does not blow
    up with the fault count.
    """
    net = by_name(topology, n, seed=9)
    fig = Figure("F3 — initiators and cost vs fault count", "#faults", "count")
    table = Table(
        "F3 — cooperative multi-initiator resets (means over seeds)",
        ["#faults", "initiators (mean)", "footprint (mean)",
         "SDR moves/proc (max)", "rounds (mean)", "n"],
    )
    ok = True
    for k in fault_counts:
        initiators, footprints, per_proc, rounds = [], [], [], []
        for seed in range(trials):
            sdr = SDR(Unison(net))
            rng = Random(seed)
            cfg = corrupt_processes(
                sdr, sdr.initial_configuration(),
                rng.sample(range(net.n), k), rng,
            )
            counter = SdrMoveCounter(net.n)
            sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg,
                            seed=seed, probes=[counter])
            detector, _ = measure_stabilization(
                sim, sdr.is_normal, max_steps=1_000_000, mask="normal"
            )
            initiators.append(sim.moves_per_rule.get("rule_R", 0))
            footprints.append(counter.touched)
            per_proc.append(max(counter.counts))
            rounds.append(detector.rounds or 0)
            # Per-process reset work stays one wave regardless of k.
            ok &= max(counter.counts) <= bounds.sdr_moves_per_process_bound(net.n)
        mean = lambda xs: sum(xs) / len(xs)
        fig.add_point("initiators", k, mean(initiators))
        fig.add_point("rounds", k, mean(rounds))
        table.add_row(k, f"{mean(initiators):.1f}", f"{mean(footprints):.1f}",
                      max(per_proc), f"{mean(rounds):.1f}", net.n)
    return ExperimentResult(
        "F3",
        "Concurrent resets cooperate: initiators scale with the fault sites "
        "while per-process reset work stays a single wave (footprint is "
        "global by design — Section 3.3)",
        table,
        ok,
        figure=fig,
    )


def figure_f4(
    sizes: Sequence[int] = (8, 12, 16, 24),
    topology: str = "random",
    trials: int = 3,
) -> ExperimentResult:
    """F4: FGA ∘ SDR rounds vs n against the 8n+4 line."""
    fig = Figure("F4 — FGA ∘ SDR rounds vs n", "n", "rounds")
    table = Table(
        "F4 — FGA ∘ SDR round scaling (worst over seeds)",
        ["n", "rounds (worst)", "bound 8n+4", "ok"],
    )
    ok = True
    for n in sizes:
        net = by_name(topology, n, seed=10)
        f, g = dominating_set(net)
        worst = 0
        for seed in range(trials):
            trial = run_network_trial("fga", net, instance=(f, g), seed=seed)
            worst = max(worst, trial.rounds)
        rb = bounds.fga_sdr_rounds_bound(net.n)
        row_ok = worst <= rb
        ok &= row_ok
        fig.add_point("measured", n, worst)
        fig.add_point("bound", n, rb)
        table.add_row(n, worst, rb, row_ok)
    return ExperimentResult(
        "F4", "FGA ∘ SDR rounds stay under the 8n+4 line", table, ok, figure=fig
    )


def figure_f5(
    n: int = 16,
    topology: str = "random",
    trials: int = 3,
) -> ExperimentResult:
    """F5 (ablation): daemon sensitivity of U ∘ SDR stabilization."""
    net = by_name(topology, n, seed=11)
    fig = Figure("F5 — moves by daemon", "daemon#", "moves")
    table = Table(
        "F5 — U ∘ SDR under different daemons (means over seeds)",
        ["daemon", "moves (mean)", "rounds (mean)", "within bounds"],
    )
    ok = True
    for i, daemon_name in enumerate(sorted(_daemon_menu(net))):
        moves, rounds = [], []
        for seed in range(trials):
            sdr = SDR(Unison(net))
            cfg = sdr.random_configuration(Random(seed))
            sim = Simulator(sdr, _daemon_menu(net)[daemon_name], config=cfg, seed=seed)
            probe, _ = measure_stabilization(
                sim, sdr.is_normal, max_steps=2_000_000, mask="normal"
            )
            moves.append(probe.moves)
            rounds.append(probe.rounds)
        mean = lambda xs: sum(xs) / len(xs)
        within = max(moves) <= bounds.unison_move_bound(net.n, net.diameter) and \
            max(rounds) <= bounds.unison_rounds_bound(net.n)
        ok &= within
        fig.add_point(daemon_name, i, mean(moves))
        table.add_row(daemon_name, f"{mean(moves):.0f}", f"{mean(rounds):.1f}", within)
    return ExperimentResult(
        "F5", "Bounds hold under every daemon in the zoo", table, ok, figure=fig
    )


def figure_f6(
    sizes: Sequence[int] = (8, 12, 16, 24),
    topology: str = "random",
    trials: int = 3,
    faults: int = 2,
) -> ExperimentResult:
    """F6: cooperative multi-initiator SDR vs mono-initiator reset wave.

    Same input algorithm (U), same fault scenario; the mono-initiator
    baseline pays a whole-network wave per recovery.
    """
    fig = Figure("F6 — recovery moves: SDR vs mono-initiator", "n", "moves")
    table = Table(
        "F6 — recovery from k=2 faults (means over seeds)",
        ["n", "SDR moves", "mono moves", "SDR rounds", "mono rounds"],
    )
    data: dict[str, list] = {"n": [], "sdr": [], "mono": []}
    for n in sizes:
        net = by_name(topology, n, seed=12)
        sdr_m, mono_m, sdr_r, mono_r = [], [], [], []
        for seed in range(trials):
            rng = Random(seed)
            victims = rng.sample(range(net.n), min(faults, net.n))

            sdr = SDR(Unison(net))
            cfg = corrupt_processes(
                sdr, sdr.initial_configuration(), victims, Random(seed),
                variables=("c",),
            )
            sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=seed)
            det, _ = measure_stabilization(
                sim, sdr.is_normal, max_steps=1_000_000, mask="normal"
            )
            sdr_m.append(det.moves)
            sdr_r.append(det.rounds)

            mono = MonoReset(Unison(net))
            cfg = corrupt_processes(
                mono, mono.initial_configuration(), victims, Random(seed),
                variables=("c",),
            )
            sim = Simulator(mono, DistributedRandomDaemon(0.5), config=cfg, seed=seed)
            det, _ = measure_stabilization(
                sim, mono.is_normal, max_steps=1_000_000, mask="normal"
            )
            mono_m.append(det.moves)
            mono_r.append(det.rounds)
        mean = lambda xs: sum(xs) / len(xs)
        table.add_row(n, f"{mean(sdr_m):.0f}", f"{mean(mono_m):.0f}",
                      f"{mean(sdr_r):.1f}", f"{mean(mono_r):.1f}")
        fig.add_point("SDR", n, mean(sdr_m))
        fig.add_point("mono", n, mean(mono_m))
        data["n"].append(n)
        data["sdr"].append(mean(sdr_m))
        data["mono"].append(mean(mono_m))
    # Claim: at the largest size, localized cooperative resets are cheaper.
    ok = data["sdr"][-1] <= data["mono"][-1]
    return ExperimentResult(
        "F6",
        "Cooperative multi-initiator resets beat the mono-initiator wave on "
        "localized faults",
        table,
        ok,
        data=data,
        figure=fig,
    )


# ======================================================================
# P1 — structural properties (Theorem 3, Remarks 4/5)
# ======================================================================
def experiment_p1(
    sizes: Sequence[int] = (6, 8, 10),
    topologies: Sequence[str] = ("ring", "random"),
    trials: int = 3,
) -> ExperimentResult:
    """Alive roots never created; ≤ n+1 segments; rule language per segment."""
    from ..core.trace import Trace
    from ..reset.analysis import (
        alive_roots,
        segment_rule_sequences_ok,
        split_segments,
    )

    table = Table(
        "P1 — structural proof artifacts on recorded executions",
        ["topology", "n", "seed", "AR monotone", "segments", "bound n+1",
         "language ok"],
    )
    ok = True
    for topo in topologies:
        for n in sizes:
            net = by_name(topo, n, seed=13)
            for seed in range(trials):
                sdr = SDR(Unison(net))
                cfg = sdr.random_configuration(Random(seed))
                trace = Trace(record_configurations=True)
                sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg,
                                seed=seed, trace=trace)
                measure_stabilization(sim, sdr.is_normal, max_steps=500_000)
                sim.run(max_steps=5 * n)
                counts = [len(alive_roots(sdr, c)) for c in trace.configurations]
                monotone = all(a >= b for a, b in zip(counts, counts[1:]))
                segments = split_segments(sdr, trace)
                lang_ok = segment_rule_sequences_ok(sdr, trace)
                row_ok = monotone and len(segments) <= bounds.segments_bound(n) and lang_ok
                ok &= row_ok
                table.add_row(topo, n, seed, monotone, len(segments),
                              bounds.segments_bound(n), lang_ok)
    return ExperimentResult(
        "P1",
        "No alive root is ever created; executions split into ≤ n+1 segments "
        "whose per-process SDR rule sequences match Theorem 4's language",
        table,
        ok,
    )


# ======================================================================
# A1 — safe-convergence ablation (related work: Carrier et al. [16])
# ======================================================================
def experiment_a1(
    sizes: Sequence[int] = (8, 12, 16),
    topology: str = "random",
    trials: int = 3,
) -> ExperimentResult:
    """A1 (extension): how quickly does FGA ∘ SDR become *feasible*?

    Carrier et al. [16] advocate *safe convergence*: reach some valid
    (not necessarily minimal) alliance fast, then keep refining.  FGA ∘ SDR
    does not claim safe convergence, but its reset discipline gives a
    related two-phase behaviour we can measure: starting from the hollow
    alliance (maximal violation), the reset wave restores the full alliance
    (feasible) long before the removal phase reaches 1-minimality.  This
    experiment reports both stopwatch readings.
    """
    from ..alliance.spec import is_alliance

    table = Table(
        "A1 — rounds to feasibility vs rounds to 1-minimal termination "
        "(hollow start, means over seeds)",
        ["n", "rounds to alliance", "rounds to terminal", "feasible early"],
    )
    ok = True
    for n in sizes:
        net = by_name(topology, n, seed=14)
        f, g = dominating_set(net)
        to_alliance, to_terminal = [], []
        for seed in range(trials):
            sdr = SDR(FGA(net, f, g))
            from ..faults.scenarios import hollow_alliance

            cfg = hollow_alliance(sdr)
            sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg, seed=seed)
            detector, _ = measure_stabilization(
                sim,
                lambda c: is_alliance(net, {u for u in net.processes() if c[u]["col"]}, f, g),
                max_steps=2_000_000,
                name="feasible",
            )
            to_alliance.append(detector.rounds or 0)
            result = sim.run_to_termination(max_steps=2_000_000)
            to_terminal.append(result.rounds)
        mean = lambda xs: sum(xs) / len(xs)
        early = mean(to_alliance) <= mean(to_terminal)
        ok &= early
        table.add_row(n, f"{mean(to_alliance):.1f}", f"{mean(to_terminal):.1f}", early)
    return ExperimentResult(
        "A1",
        "Feasibility (any valid alliance) is restored well before 1-minimal "
        "termination — the two-phase behaviour related work calls safe "
        "convergence",
        table,
        ok,
    )


# ======================================================================
# T11 — repeated fault storms vs recovery cost (beyond the paper)
# ======================================================================
def experiment_t11(
    n: int = 16,
    topology: str = "ring",
    trials: int = 3,
    fault_counts: Sequence[int] = (1, 2, 4),
    cadences: Sequence[int] = (30, 80),
    bursts: int = 3,
    workers: int = 0,
    store=None,
) -> ExperimentResult:
    """Repeated k-fault storms: recovery stays within the from-scratch bounds.

    The paper analyses a single arbitrary initial configuration; this
    experiment measures what SDR composition gives *operationally*: a
    deterministic :class:`~repro.faults.schedule.FaultSchedule` corrupts
    ``k`` random processes' input-layer registers every ``cadence`` steps
    (``bursts`` times), mid-run, inside the fused loop, and a
    :class:`~repro.probes.RecoveryProbe` stopwatches each burst to
    re-stabilization.  The claim checked: every burst is absorbed, and
    *clean* recovery never exceeds the from-scratch stabilization round
    bound (3n for ``U ∘ SDR``, 8n+4 for ``FGA ∘ SDR``) — recovery from
    k faults is never harder than a cold start.  "Clean" restricts the
    bound to bursts whose recovery window contains no further
    injection: at short cadences a new burst strikes mid-recovery, so
    the open stopwatch's delta spans several disturbances, and
    self-stabilization only bounds convergence *after faults cease*.
    The last burst of every overlap group is always a clean measurement
    from an arbitrary configuration; the raw worst over all bursts is
    still reported.  The (algorithm × k × cadence) grid runs through
    the campaign engine, so ``workers``/``store`` fan out and resume as
    usual, and the schedule is part of every trial key.
    """
    from ..engine import Campaign, run_campaign

    round_bound = {
        "unison": bounds.unison_rounds_bound(n),
        "fga": bounds.fga_sdr_rounds_bound(n),
    }
    table = Table(
        "T11 — k-fault storms vs per-burst recovery (means over seeds)",
        ["algorithm", "k", "cadence", "bursts", "recovered",
         "worst rounds", "clean worst", "mean rounds", "mean moves",
         "bound", "ok"],
    )

    def clean_worst_rounds(summary) -> int | None:
        """Worst rounds over bursts with no injection mid-recovery."""
        records = summary["records"]
        worst = None
        for i, rec in enumerate(records):
            if not rec["recovered"]:
                continue
            end = rec["injected_step"] + rec["steps"]
            if i + 1 < len(records) and records[i + 1]["injected_step"] < end:
                continue  # the next burst struck before this one recovered
            worst = rec["rounds"] if worst is None else max(worst, rec["rounds"])
        return worst
    fig = Figure("T11 — worst recovery rounds vs fault count", "k", "rounds")
    ok = True
    data: dict[str, list] = {"cells": []}
    for algorithm in ("unison", "fga"):
        for k in fault_counts:
            for cadence in cadences:
                spec = (f"burst=40,count={bursts},gap={cadence},"
                        f"k={k},scope=input")
                campaign = Campaign(
                    f"t11-storm-{algorithm}-k{k}-c{cadence}", seed=0,
                    algorithms=(algorithm,), topologies=(topology,),
                    sizes=(n,), scenarios=("random",), trials=trials,
                    topology_seed=4,
                    params=(("faults", spec), ("max_steps", 2_000_000)),
                )
                outcome = run_campaign(
                    campaign, store=store, workers=workers,
                    resume=store is not None,
                )
                summaries = [
                    r["result"]["extra"]["recovery"] for r in outcome.records
                ]
                fired = sum(s["bursts"] for s in summaries)
                recovered = sum(s["recovered"] for s in summaries)
                worst = [s["worst_rounds"] for s in summaries
                         if s["worst_rounds"] is not None]
                clean = [w for w in map(clean_worst_rounds, summaries)
                         if w is not None]
                means_r = [s["mean_rounds"] for s in summaries
                           if s["mean_rounds"] is not None]
                means_m = [s["mean_moves"] for s in summaries
                           if s["mean_moves"] is not None]
                worst_rounds = max(worst) if worst else 0
                clean_worst = max(clean) if clean else 0
                mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
                rb = round_bound[algorithm]
                # Every burst absorbed (it may land on an already-terminal
                # config and enable nothing — that still counts recovered)
                # and clean recovery never costlier than a cold start.
                row_ok = recovered == fired and clean_worst <= rb
                ok &= row_ok
                table.add_row(algorithm, k, cadence, fired, recovered,
                              worst_rounds, clean_worst,
                              f"{mean(means_r):.1f}",
                              f"{mean(means_m):.1f}", rb, row_ok)
                if cadence == cadences[0]:
                    fig.add_point(algorithm, k, clean_worst)
                data["cells"].append({
                    "algorithm": algorithm, "k": k, "cadence": cadence,
                    "faults": spec, "bursts": fired, "recovered": recovered,
                    "worst_rounds": worst_rounds,
                    "clean_worst_rounds": clean_worst,
                    "mean_rounds": mean(means_r),
                    "mean_moves": mean(means_m),
                })
    return ExperimentResult(
        "T11",
        "Under repeated k-fault storms, every burst is absorbed and "
        "clean per-burst recovery rounds (no injection mid-recovery) "
        "stay within the from-scratch stabilization bounds",
        table,
        ok,
        data=data,
        figure=fig,
    )


def experiment_t12(
    n: int = 16,
    topology: str = "ring",
    trials: int = 3,
    cadences: Sequence[int] = (40, 100),
    mixes: Sequence[str] = ("crash-join", "link-flap"),
    events: int = 2,
    workers: int = 0,
    store=None,
) -> ExperimentResult:
    """Topology churn: dynamic networks recover within the static bounds.

    The paper's model fixes the topology; this experiment relaxes that
    half of the contract in the way self-stabilization theory already
    licenses: a deterministic, connectivity-preserving
    :class:`~repro.faults.churn.ChurnSchedule` mutates the network
    mid-run — processes crash (state frozen, links removed) and rejoin
    with arbitrary registers (indistinguishable from a transient fault
    striking a fresh process), or links flap (drop/appear) — and a
    :class:`~repro.probes.RecoveryProbe` stopwatches each occurrence to
    re-legitimacy *of the live subsystem*.  The claim checked: every
    occurrence is absorbed, and clean recovery (no further churn
    mid-recovery) never exceeds the from-scratch stabilization round
    bound of the *static* network (3n for ``U ∘ SDR``, 8n+4 for
    ``FGA ∘ SDR``) — a topology event is never costlier than a cold
    start.  Each (algorithm × mix × cadence) cell interleaves ``events``
    occurrences of each kind ``cadence`` steps apart, runs through the
    campaign engine (churn cells always execute serially — see
    :func:`repro.harness.runner.can_batch`), and the churn spec is part
    of every trial key.
    """
    from ..engine import Campaign, run_campaign

    round_bound = {
        "unison": bounds.unison_rounds_bound(n),
        "fga": bounds.fga_sdr_rounds_bound(n),
    }
    mix_events = {
        "crash-join": ("crash", "join"),
        "link-flap": ("drop_edge", "add_edge"),
    }
    for mix in mixes:
        if mix not in mix_events:
            raise ValueError(
                f"unknown churn mix {mix!r}; choose from {sorted(mix_events)}"
            )
    table = Table(
        "T12 — topology churn vs per-occurrence recovery (means over seeds)",
        ["algorithm", "mix", "cadence", "events", "recovered",
         "worst rounds", "clean worst", "mean rounds", "components",
         "bound", "ok"],
    )

    def clean_worst_rounds(summary) -> int | None:
        """Worst rounds over occurrences with no churn mid-recovery."""
        records = summary["records"]
        worst = None
        for i, rec in enumerate(records):
            if not rec["recovered"]:
                continue
            end = rec["injected_step"] + rec["steps"]
            if i + 1 < len(records) and records[i + 1]["injected_step"] < end:
                continue  # the next occurrence struck mid-recovery
            worst = rec["rounds"] if worst is None else max(worst, rec["rounds"])
        return worst

    fig = Figure("T12 — worst clean recovery rounds vs churn cadence",
                 "cadence", "rounds")
    ok = True
    data: dict[str, list] = {"cells": []}
    for algorithm in ("unison", "fga"):
        for mix in mixes:
            first, second = mix_events[mix]
            for cadence in cadences:
                spec = (
                    f"burst=40,count={events},gap={2 * cadence},{first}=1;"
                    f"burst={40 + cadence},count={events},"
                    f"gap={2 * cadence},{second}=1"
                )
                campaign = Campaign(
                    f"t12-churn-{algorithm}-{mix}-c{cadence}", seed=0,
                    algorithms=(algorithm,), topologies=(topology,),
                    sizes=(n,), scenarios=("random",), trials=trials,
                    topology_seed=4,
                    params=(("churn", spec), ("max_steps", 2_000_000)),
                )
                outcome = run_campaign(
                    campaign, store=store, workers=workers,
                    resume=store is not None,
                )
                summaries = [
                    r["result"]["extra"]["recovery"] for r in outcome.records
                ]
                finals = [
                    r["result"]["extra"]["churn_final"]
                    for r in outcome.records
                ]
                fired = sum(s["bursts"] for s in summaries)
                recovered = sum(s["recovered"] for s in summaries)
                worst = [s["worst_rounds"] for s in summaries
                         if s["worst_rounds"] is not None]
                clean = [w for w in map(clean_worst_rounds, summaries)
                         if w is not None]
                means_r = [s["mean_rounds"] for s in summaries
                           if s["mean_rounds"] is not None]
                worst_rounds = max(worst) if worst else 0
                clean_worst = max(clean) if clean else 0
                mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
                components = max(f["components"] for f in finals)
                rb = round_bound[algorithm]
                # Every occurrence absorbed, clean recovery within the
                # static cold-start bound, and preserve-policy churn
                # never partitioned the live subsystem.
                row_ok = (
                    recovered == fired
                    and clean_worst <= rb
                    and components == 1
                )
                ok &= row_ok
                table.add_row(algorithm, mix, cadence, fired, recovered,
                              worst_rounds, clean_worst,
                              f"{mean(means_r):.1f}", components, rb, row_ok)
                if mix == mixes[0]:
                    fig.add_point(algorithm, cadence, clean_worst)
                data["cells"].append({
                    "algorithm": algorithm, "mix": mix, "cadence": cadence,
                    "churn": spec, "occurrences": fired,
                    "recovered": recovered,
                    "worst_rounds": worst_rounds,
                    "clean_worst_rounds": clean_worst,
                    "mean_rounds": mean(means_r),
                    "components": components,
                })
    return ExperimentResult(
        "T12",
        "Under connectivity-preserving topology churn (crash/join and "
        "link flapping), every occurrence is absorbed and clean "
        "per-occurrence recovery rounds stay within the static "
        "from-scratch stabilization bounds",
        table,
        ok,
        data=data,
        figure=fig,
    )


# ======================================================================
# T13 — adversarial schedule search vs random scheduling (U ∘ SDR)
# ======================================================================
def experiment_t13(
    sizes: Sequence[int] = (8, 16, 32),
    topology: str = "ring",
    scenario: str = "split",
    strategies: Sequence[str] = ("greedy", "beam-3x3"),
    random_trials: int = 100,
    workers: int = 0,
    store=None,
) -> ExperimentResult:
    """Adversarial schedule search stress-tests Theorem 6/7 empirically.

    The paper's move bound quantifies over *all* unfair schedules, but
    random daemons only sample friendly ones.  This experiment runs the
    :mod:`repro.adversary` searches (via the ``adversary`` trial param,
    part of every trial key) against a ``random_trials``-seed
    distributed-random baseline on the same deterministic ``scenario``
    configuration, per size.  Claims checked per size: the beam search
    finds strictly more moves than the *best* random schedule, greedy
    at least matches the random median, every searched execution stays
    within the Theorem 6 move bound and Theorem 7 round bound (searched
    schedules are still legal unfair-daemon executions), and every
    found schedule's certificate replays byte-identically on the dict
    backend (asserted by the runner before the trial record lands).
    """
    from ..engine import Campaign, run_campaign

    table = Table(
        "T13 — adversarial schedule search vs 100-seed random baseline "
        "(U ∘ SDR)",
        ["n", "schedule", "moves", "rounds", "rnd max", "rnd med",
         "move bound", "round bound", "replay", "ok"],
    )
    fig = Figure("T13 — moves to stabilization: search vs random", "n",
                 "moves")
    ok = True
    data: dict[str, list] = {"cells": []}
    for n in sizes:
        baseline = Campaign(
            f"t13-baseline-n{n}", seed=0, algorithms=("unison",),
            topologies=(topology,), sizes=(n,), scenarios=(scenario,),
            trials=random_trials, topology_seed=4,
        )
        outcome = run_campaign(baseline, store=store, workers=workers,
                               resume=store is not None)
        random_moves = sorted(r["result"]["moves"] for r in outcome.records)
        rnd_max = random_moves[-1]
        rnd_med = random_moves[len(random_moves) // 2]
        fig.add_point("random-max", n, rnd_max)
        searched: dict[str, int] = {}
        for strategy in strategies:
            campaign = Campaign(
                f"t13-adversary-{strategy}-n{n}", seed=0,
                algorithms=("unison",), topologies=(topology,), sizes=(n,),
                scenarios=(scenario,), trials=1, topology_seed=4,
                params=(("adversary", strategy),),
            )
            outcome = run_campaign(campaign, store=store, workers=workers,
                                   resume=store is not None)
            record = outcome.records[0]["result"]
            moves, rounds = record["moves"], record["rounds"]
            diameter = record["diameter"]
            move_bound = bounds.unison_move_bound(n, diameter)
            round_bound = bounds.unison_rounds_bound(n)
            replay_ok = record["extra"]["adversary"]["replay"]["ok"]
            beats = (moves > rnd_max if strategy.startswith("beam")
                     else moves >= rnd_med)
            row_ok = (beats and moves <= move_bound
                      and rounds <= round_bound and replay_ok)
            ok &= row_ok
            searched[strategy] = moves
            table.add_row(n, strategy, moves, rounds, rnd_max, rnd_med,
                          move_bound, round_bound, replay_ok, row_ok)
            fig.add_point(strategy, n, moves)
            data["cells"].append({
                "n": n, "strategy": strategy, "moves": moves,
                "rounds": rounds, "random_max": rnd_max,
                "random_median": rnd_med, "move_bound": move_bound,
                "round_bound": round_bound, "replay_ok": replay_ok,
                "digest": record["extra"]["adversary"]["digest"],
            })
        table.add_row(n, "distributed-random", rnd_max, "-", rnd_max,
                      rnd_med, bounds.unison_move_bound(n, diameter),
                      bounds.unison_rounds_bound(n), "-", True)
    return ExperimentResult(
        "T13",
        "Beam search finds strictly worse-than-any-sampled-random "
        "executions of U ∘ SDR while every searched schedule stays "
        "within the Theorem 6/7 bounds and replays on the dict backend",
        table,
        ok,
        data=data,
        figure=fig,
    )


# ======================================================================
# F7 — adversarial schedules vs the 8n+4 FGA ∘ SDR round bound
# ======================================================================
def figure_f7(
    sizes: Sequence[int] = (8, 12, 16),
    topology: str = "ring",
    instance: str = "dominating-set",
    strategies: Sequence[str] = ("greedy", "beam-3x3"),
    random_trials: int = 25,
    workers: int = 0,
    store=None,
) -> ExperimentResult:
    """Theorem 14 under searched schedules: rounds stay within 8n+4.

    Sweeps the adversarial searches over ``FGA ∘ SDR`` and plots their
    stabilization rounds against the Theorem 14 bound, next to a
    distributed-random baseline.  The searches maximize *moves* — the
    figure shows that even move-maximizing schedules leave the round
    complexity far under ``8n+4``, and every searched schedule's
    certificate replays on the dict backend.
    """
    from ..engine import Campaign, run_campaign

    table = Table(
        "F7 — FGA ∘ SDR rounds under searched schedules vs Theorem 14",
        ["n", "schedule", "rounds", "moves", "bound 8n+4", "replay", "ok"],
    )
    fig = Figure("F7 — FGA ∘ SDR rounds: search vs bound", "n", "rounds")
    ok = True
    data: dict[str, list] = {"cells": []}
    for n in sizes:
        round_bound = bounds.fga_sdr_rounds_bound(n)
        fig.add_point("bound", n, round_bound)
        baseline = Campaign(
            f"f7-baseline-n{n}", seed=0, algorithms=("fga",),
            topologies=(topology,), sizes=(n,), scenarios=("random",),
            trials=random_trials, topology_seed=4,
            params=(("instance", instance),),
        )
        outcome = run_campaign(baseline, store=store, workers=workers,
                               resume=store is not None)
        worst_rounds = max(r["result"]["rounds"] for r in outcome.records)
        fig.add_point("random-worst", n, worst_rounds)
        table.add_row(n, "distributed-random (worst)", worst_rounds, "-",
                      round_bound, "-", worst_rounds <= round_bound)
        ok &= worst_rounds <= round_bound
        for strategy in strategies:
            campaign = Campaign(
                f"f7-adversary-{strategy}-n{n}", seed=0,
                algorithms=("fga",), topologies=(topology,), sizes=(n,),
                scenarios=("random",), trials=1, topology_seed=4,
                params=(("instance", instance), ("adversary", strategy)),
            )
            outcome = run_campaign(campaign, store=store, workers=workers,
                                   resume=store is not None)
            record = outcome.records[0]["result"]
            rounds, moves = record["rounds"], record["moves"]
            replay_ok = record["extra"]["adversary"]["replay"]["ok"]
            row_ok = rounds <= round_bound and replay_ok
            ok &= row_ok
            table.add_row(n, strategy, rounds, moves, round_bound,
                          replay_ok, row_ok)
            fig.add_point(strategy, n, rounds)
            data["cells"].append({
                "n": n, "strategy": strategy, "rounds": rounds,
                "moves": moves, "round_bound": round_bound,
                "replay_ok": replay_ok,
            })
    return ExperimentResult(
        "F7",
        "Move-maximizing searched schedules keep FGA ∘ SDR stabilization "
        "within the Theorem 14 round bound (8n+4), certificates replaying "
        "on the dict backend",
        table,
        ok,
        data=data,
        figure=fig,
    )


#: Experiment registry for programmatic access (id → callable).
REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "T1/T2": experiment_t1_t2,
    "T3/T4": experiment_t3_t4,
    "T5": experiment_t5,
    "T6/T7": experiment_t6_t7,
    "T8": experiment_t8,
    "T9": experiment_t9,
    "T10": experiment_t10,
    "T11": experiment_t11,
    "T12": experiment_t12,
    "T13": experiment_t13,
    "F1/F2": figure_f1_f2,
    "F3": figure_f3,
    "F4": figure_f4,
    "F5": figure_f5,
    "F6": figure_f6,
    "F7": figure_f7,
    "P1": experiment_p1,
    "A1": experiment_a1,
}
