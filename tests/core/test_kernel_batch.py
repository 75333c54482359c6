"""Unit tests for the tiled batch substrate (repro.core.kernel.batch).

The property suite proves end-to-end record identity; these tests pin
the building blocks — block-diagonal CSR tiling, schema tiling with
``opt_index`` globalization, program tiling, and per-trial freezing.
"""

from random import Random

import numpy as np
import pytest

from repro.alliance.fga import FGA
from repro.core.configuration import Configuration
from repro.core.daemon import make_daemon
from repro.core.exceptions import ModelViolation
from repro.core.kernel import CSRAdjacency, Schema, Var, run_batch
from repro.ir.kernelc import Memo
from repro.probes import StopProbe
from repro.reset import SDR
from repro.topology import grid, ring
from repro.unison import Unison


class TestCSRTile:
    def test_tile_is_block_diagonal(self):
        net = grid(2, 3)
        base = CSRAdjacency(net)
        tiled = base.tile(3)
        assert tiled.n == 3 * net.n
        for trial in range(3):
            for u in range(net.n):
                g = trial * net.n + u
                neigh = tiled.indices[tiled.indptr[g]:tiled.indptr[g + 1]]
                expected = [trial * net.n + v for v in net.neighbors(u)]
                assert neigh.tolist() == expected

    def test_tile_one_is_identity(self):
        base = CSRAdjacency(ring(5))
        assert base.tile(1) is base

    def test_tiled_reductions_stay_per_block(self):
        net = ring(4)
        tiled = CSRAdjacency(net).tile(2)
        flags = np.zeros(tiled.indices.shape[0], dtype=np.bool_)
        # Satisfy every edge of block 0 only.
        flags[: net.m * 2] = True
        allv = tiled.all_neigh(flags)
        assert allv[: net.n].all() and not allv[net.n :].any()

    def test_regular_stride_path_matches_reduceat(self):
        net = ring(7)  # 2-regular: strided fast path
        csr = CSRAdjacency(net)
        assert csr._stride == 2
        rng = np.random.default_rng(0)
        flags = rng.random(csr.indices.shape[0]) < 0.5
        values = rng.integers(0, 50, csr.indices.shape[0])
        starts = csr._starts
        assert np.array_equal(
            csr.all_neigh(flags), np.logical_and.reduceat(flags, starts)
        )
        assert np.array_equal(
            csr.any_neigh(flags), np.logical_or.reduceat(flags, starts)
        )
        assert np.array_equal(
            csr.count_neigh(flags),
            np.add.reduceat(flags.astype(np.int64), starts),
        )
        masked = np.where(flags, values, 999)
        assert np.array_equal(
            csr.min_neigh(values, flags, 999),
            np.minimum.reduceat(masked, starts),
        )


class TestSchemaTiling:
    def test_encode_tiled_offsets_opt_index(self):
        schema = Schema(Var.int("x"), Var.opt_index("p"))
        cfgs = [
            Configuration([{"x": 1, "p": None}, {"x": 2, "p": 0}]),
            Configuration([{"x": 3, "p": 1}, {"x": 4, "p": None}]),
        ]
        cols = schema.encode_tiled(cfgs)
        assert cols["x"].tolist() == [1, 2, 3, 4]
        assert cols["p"].tolist() == [-1, 0, 3, -1]  # block 1 offset by 2

    def test_decode_block_round_trips(self):
        schema = Schema(Var.int("x"), Var.opt_index("p"), Var.bool("b"))
        cfgs = [
            Configuration([{"x": 9, "p": 1, "b": True},
                           {"x": -2, "p": None, "b": False}]),
            Configuration([{"x": 0, "p": 0, "b": False},
                           {"x": 5, "p": 1, "b": True}]),
        ]
        cols = schema.encode_tiled(cfgs)
        for t, cfg in enumerate(cfgs):
            assert schema.decode_block(cols, t, 2).snapshot() == cfg.snapshot()


class TestProgramTiling:
    def test_tiled_programs_share_schema_and_rules(self):
        net = ring(6)
        for algo in (SDR(Unison(net)), SDR(FGA(net, 1, 1))):
            program = algo.kernel_program()
            tiled = program.tiled(4)
            assert tiled.schema is program.schema
            assert tiled.rules == program.rules
            assert tiled.csr.n == 4 * net.n


def _stops(trials: int, mask: str = "normal") -> list[list[StopProbe]]:
    """One predicate stop per trial: the batch's only way to stop on one."""
    return [[StopProbe(mask=mask)] for _ in range(trials)]


def _stopped(stops) -> bool:
    return all(stop.hit for (stop,) in stops)


class TestRunBatch:
    def _unison_batch(self, seeds, max_steps=400):
        net = ring(8)
        sdr = SDR(Unison(net))
        program = sdr.kernel_program()
        cfgs = [sdr.random_configuration(Random(seed)) for seed in seeds]
        daemons = [make_daemon("distributed-random", net) for _ in seeds]
        rngs = [Random(seed) for seed in seeds]
        stops = _stops(len(seeds))
        result = run_batch(
            program, cfgs, daemons, rngs, net,
            max_steps=max_steps, exclusion_name=sdr.name, probes=stops,
        )
        return result, stops

    def test_trials_freeze_independently(self):
        result, stops = self._unison_batch(seeds=[0, 1, 2, 3], max_steps=50_000)
        steps = [outcome.steps for outcome in result.outcomes]
        assert _stopped(stops)
        assert all(o.stop_reason == "probe" for o in result.outcomes)
        assert steps == [stop.step for (stop,) in stops]
        assert len(set(steps)) > 1  # different seeds stop at different steps

    def test_frozen_trials_keep_their_configuration(self):
        """A frozen block's decoded configuration satisfies the predicate
        even though other trials kept running after it froze."""
        result, stops = self._unison_batch(seeds=[0, 1, 2], max_steps=50_000)
        net = ring(8)
        sdr = SDR(Unison(net))
        assert _stopped(stops)
        for t in range(len(result.outcomes)):
            assert sdr.is_normal(result.configuration(t))

    def test_budget_trials_report_budget(self):
        result, _ = self._unison_batch(seeds=[0, 1], max_steps=1)
        assert all(o.stop_reason in ("budget", "probe")
                   for o in result.outcomes)

    def test_stop_on_the_initial_configuration_takes_no_step(self):
        net = ring(8)
        sdr = SDR(Unison(net))
        cfgs = [sdr.initial_configuration(), sdr.random_configuration(Random(1))]
        stops = _stops(2)
        result = run_batch(
            sdr.kernel_program(), cfgs,
            [make_daemon("distributed-random", net) for _ in cfgs],
            [Random(0), Random(1)], net, max_steps=50_000, probes=stops,
        )
        first = result.outcomes[0]
        assert (first.stop_reason, first.steps, first.moves) == ("probe", 0, 0)
        assert stops[0][0].step == 0
        assert result.outcomes[1].steps > 0

    def test_rejects_unvectorizable_daemon(self):
        net = ring(8)
        sdr = SDR(Unison(net))
        program = sdr.kernel_program()
        cfgs = [sdr.random_configuration(Random(0))]
        from repro.core.daemon import ScriptedDaemon

        with pytest.raises(ValueError):
            run_batch(
                program, cfgs, [ScriptedDaemon([])], [Random(0)], net,
                max_steps=10,
            )

    def test_exclusion_check_names_trial(self):
        class Broken:
            """Two rules enabled at once at every process."""

            def __init__(self, net):
                self.schema = Schema(Var.int("x"))
                self.rules = ("a", "b")
                self._n = net.n

            predicates = ()

            def memo(self):
                return Memo(1, 0)

            def evaluate(self, cols, memo):
                on = np.ones(cols["x"].shape[0], dtype=np.bool_)
                return {"a": on.copy(), "b": on.copy()}, {}

            def apply(self, rule, idx, read, write):  # pragma: no cover
                pass

            def tiled(self, copies):
                return self

        net = ring(4)
        cfgs = [Configuration([{"x": 0}] * net.n) for _ in range(2)]
        daemons = [make_daemon("synchronous", net) for _ in range(2)]
        with pytest.raises(ModelViolation, match="trial"):
            run_batch(
                Broken(net), cfgs, daemons, [Random(0), Random(1)], net,
                max_steps=5, exclusion_name="broken",
            )


class TiledSpy:
    """Delegating program wrapper recording every ``tiled(copies)`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def tiled(self, copies):
        self.calls.append(copies)
        return self.inner.tiled(copies)


class TestCompaction:
    """Trailing frozen blocks are dropped from the working buffers."""

    def _mixed_batch(self, trailing_normal=6, leading_random=2):
        """Leading trials start random (long recovery), trailing trials
        start normal (freeze immediately) — a deterministic heavy tail."""
        net = ring(8)
        sdr = SDR(Unison(net))
        trials = leading_random + trailing_normal
        cfgs = [sdr.random_configuration(Random(seed))
                for seed in range(leading_random)]
        cfgs += [sdr.initial_configuration() for _ in range(trailing_normal)]
        daemons = [make_daemon("distributed-random", net) for _ in range(trials)]
        rngs = [Random(seed) for seed in range(trials)]
        return net, sdr, cfgs, daemons, rngs

    def test_compaction_retiles_to_the_surviving_prefix(self):
        net, sdr, cfgs, daemons, rngs = self._mixed_batch()
        spy = TiledSpy(sdr.kernel_program())
        stops = _stops(len(cfgs))
        run_batch(
            spy, cfgs, daemons, rngs, net, max_steps=50_000, probes=stops,
        )
        # Initial tile for all 8 trials, then a re-tile once the trailing
        # frozen blocks were dropped.
        assert spy.calls[0] == 8
        assert len(spy.calls) > 1 and spy.calls[1] < 8
        assert _stopped(stops)

    def test_compaction_is_invisible_in_the_results(self):
        net, sdr, cfgs, daemons, rngs = self._mixed_batch()
        stops = _stops(len(cfgs))
        batched = run_batch(
            sdr.kernel_program(), cfgs, daemons, rngs, net, max_steps=50_000,
            probes=stops,
        )
        for t, cfg in enumerate(cfgs):
            alone = _stops(1)
            single = run_batch(
                sdr.kernel_program(), [cfg.copy()],
                [make_daemon("distributed-random", net)], [Random(t)],
                net, max_steps=50_000,
                probes=alone,
            )
            a, b = batched.outcomes[t], single.outcomes[0]
            assert (a.steps, a.moves, a.rounds, a.stop_reason) == (
                b.steps, b.moves, b.rounds, b.stop_reason,
            )
            assert (stops[t][0].hit, stops[t][0].step) == (
                alone[0][0].hit, alone[0][0].step,
            )
            assert a.moves_per_process == b.moves_per_process
            assert a.moves_per_rule == b.moves_per_rule
            got, want = batched.configuration(t), single.configuration(0)
            for u in range(net.n):
                assert got[u] == want[u]


class TestBatchProbes:
    """Per-trial vector probes observe their block of the tiled buffers."""

    def test_accounting_probes_match_serial_fused_runs(self):
        from repro.probes import AccountingProbe, StabilizationProbe
        from repro.core.simulator import Simulator

        net = ring(8)
        sdr = SDR(Unison(net))
        seeds = [0, 1, 2]
        cfgs = [sdr.random_configuration(Random(seed)) for seed in seeds]
        probes = [[AccountingProbe(every=5), StopProbe(mask="normal")]
                  for _ in seeds]
        run_batch(
            sdr.kernel_program(), [c.copy() for c in cfgs],
            [make_daemon("distributed-random", net) for _ in seeds],
            [Random(seed) for seed in seeds], net, max_steps=50_000,
            probes=probes,
        )
        for seed, cfg, plist in zip(seeds, cfgs, probes):
            fresh = SDR(Unison(net))
            sim = Simulator(
                fresh, make_daemon("distributed-random", net),
                config=cfg.copy(), seed=seed,
            )
            reference = AccountingProbe(every=5)
            sim.add_probe(reference)
            sim.add_probe(StabilizationProbe(fresh.is_normal, mask="normal"))
            assert sim.fusion_available
            sim.run(max_steps=50_000)
            assert plist[0].samples == reference.samples

    def test_probe_done_freezes_its_trial_only(self):
        from repro.probes import Probe

        class EvenStop(Probe):
            """Done once every clock of its trial is even (``view.cols``)."""

            hit = False

            def wants_decode(self):
                return False

            def on_columns(self, view):
                self.hit = self.hit or bool((view.cols["c"] % 2 == 0).all())

            def done(self):
                return self.hit

        net = ring(8)
        sdr = SDR(Unison(net))
        seeds = [0, 1]
        cfgs = [sdr.random_configuration(Random(seed)) for seed in seeds]
        # Trial 0 stops via its probe after its clocks first all go even;
        # trial 1 runs to its budget.
        stopper = EvenStop()
        result = run_batch(
            sdr.kernel_program(), cfgs,
            [make_daemon("distributed-random", net) for _ in seeds],
            [Random(seed) for seed in seeds], net, max_steps=60,
            probes=[[stopper], []],
        )
        assert result.outcomes[0].stop_reason == "probe"
        assert stopper.hit
        assert result.outcomes[1].stop_reason == "budget"
        assert result.outcomes[1].steps == 60

    def test_probes_must_align_with_trials(self):
        net = ring(8)
        sdr = SDR(Unison(net))
        cfgs = [sdr.random_configuration(Random(0))]
        with pytest.raises(ValueError, match="align"):
            run_batch(
                sdr.kernel_program(), cfgs,
                [make_daemon("distributed-random", net)], [Random(0)], net,
                max_steps=10, probes=[[], []],
            )

    def test_named_mask_probes_resolve_against_the_view_program(self):
        """Batch-attached probes never see a simulator; a mask naming a
        predicate must resolve against the view's base program."""
        from repro.probes import StabilizationProbe

        net = ring(8)
        sdr = SDR(Unison(net))
        seeds = [0, 1]
        cfgs = [sdr.random_configuration(Random(seed)) for seed in seeds]
        probes = [
            [StabilizationProbe(mask="normal", stop=False),
             StopProbe(mask="normal")]
            for _ in seeds
        ]
        result = run_batch(
            sdr.kernel_program(), cfgs,
            [make_daemon("distributed-random", net) for _ in seeds],
            [Random(seed) for seed in seeds], net, max_steps=50_000,
            probes=probes,
        )
        for outcome, (measure, stop) in zip(result.outcomes, probes):
            assert stop.hit
            # The measuring probe and the stopping one agree on the hit point.
            assert measure.step == stop.step == outcome.steps

    def test_unresolvable_named_mask_raises_cleanly(self):
        from repro.probes import StabilizationProbe

        net = ring(8)
        sdr = SDR(Unison(net))
        cfgs = [sdr.random_configuration(Random(0))]
        with pytest.raises(ValueError, match="declares no predicate"):
            run_batch(
                sdr.kernel_program(), cfgs,
                [make_daemon("distributed-random", net)], [Random(0)], net,
                max_steps=10,
                probes=[[StabilizationProbe(mask="no_such_mask")]],
            )
