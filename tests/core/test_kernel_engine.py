"""Unit tests for the array-backed execution kernel (repro.core.kernel)."""

from random import Random

import numpy as np
import pytest

from repro.alliance.fga import FGA
from repro.core import (
    BACKENDS,
    DistributedRandomDaemon,
    ScriptedDaemon,
    Simulator,
    SynchronousDaemon,
)
from repro.core.configuration import Configuration
from repro.core.exceptions import AlgorithmError
from repro.core.kernel import CSRAdjacency, KernelRuntime, Schema, Var
from repro.core.daemon import make_daemon
from repro.core.kernel.daemons import vectorize
from repro.core.kernel.engine import Lane, enabled_map
from repro.core.graph import Network
from repro.faults.schedule import Occurrence
from repro.ir import Assign, Rule, RuleSet, col
from repro.ir.kernelc import Memo
from repro.reset import SDR
from repro.topology import grid, ring, star
from repro.unison import Unison


class TestCSRAdjacency:
    def test_layout_matches_network(self):
        net = grid(3, 4)
        csr = CSRAdjacency(net)
        for u in net.processes():
            lo, hi = csr.indptr[u], csr.indptr[u + 1]
            assert tuple(csr.indices[lo:hi].tolist()) == net.neighbors(u)
        assert csr.deg.tolist() == list(net.degrees)

    def test_reductions(self):
        net = star(5)  # center 0, leaves 1..4
        csr = CSRAdjacency(net)
        flag = np.array([False, True, True, False, False])
        edge_flag = csr.pull(flag)
        # center sees 2 flagged leaves; each leaf sees the unflagged center
        assert csr.count_neigh(edge_flag).tolist() == [2, 0, 0, 0, 0]
        assert csr.any_neigh(edge_flag).tolist() == [True, False, False, False, False]
        assert csr.all_neigh(edge_flag).tolist() == [False, False, False, False, False]
        vals = np.array([7, 3, 9, 1, 5])
        got = csr.min_neigh(csr.pull(vals), csr.pull(flag), 99)
        assert got[0] == 3  # min over flagged leaves {3, 9}
        assert got[1] == 99  # center not flagged

    def test_single_process_network(self):
        csr = CSRAdjacency(Network.single())
        empty = np.zeros(0, dtype=np.bool_)
        assert csr.all_neigh(empty).tolist() == [True]
        assert csr.any_neigh(empty).tolist() == [False]
        assert csr.count_neigh(empty).tolist() == [0]


class TestSchema:
    def test_round_trip_all_kinds(self):
        schema = Schema(
            Var.int("x"),
            Var.bool("b"),
            Var.enum("st", ("C", "RB", "RF")),
            Var.opt_index("ptr"),
        )
        states = [
            {"x": -3, "b": True, "st": "RB", "ptr": None},
            {"x": 10, "b": False, "st": "C", "ptr": 0},
            {"x": 0, "b": True, "st": "RF", "ptr": 2},
        ]
        cfg = Configuration(states)
        decoded = schema.decode(schema.encode(cfg))
        assert decoded == cfg
        # plain python values come back, not numpy scalars
        assert type(decoded[0]["x"]) is int
        assert type(decoded[0]["b"]) is bool
        assert decoded[0]["ptr"] is None

    def test_enum_rejects_unknown_value(self):
        schema = Schema(Var.enum("st", ("C",)))
        with pytest.raises(AlgorithmError):
            schema.encode(Configuration([{"st": "XX"}]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(AlgorithmError):
            Schema(Var.int("x"), Var.bool("x"))


class TestKernelRuntime:
    def test_enabled_map_ascending_and_cached(self):
        net = ring(8)
        algo = Unison(net)
        runtime = KernelRuntime(algo.kernel_program(), algo.initial_configuration())
        enabled = runtime.enabled_map()
        assert list(enabled) == sorted(enabled)
        assert enabled == {u: ("rule_U",) for u in range(8)}
        # one guard evaluation -> one dict; a fresh evaluation rebuilds it
        assert runtime.enabled_map() is enabled
        runtime._masks = None
        rebuilt = runtime.enabled_map()
        assert rebuilt == enabled and rebuilt is not enabled

    def test_step_is_composite_atomic(self):
        algo = Unison(ring(4))
        sim = Simulator(algo, SynchronousDaemon(), seed=0, backend="kernel")
        sim.step()
        assert sim._kernel.decode().variable("c") == [1, 1, 1, 1]

    def test_multi_rule_enabled_map_is_not_cached_stale(self):
        """Two multi-rule states with the same *shape* but different rule
        sets must not hit the unchanged-state cache (regression)."""
        class ThreeRules:
            # A always enabled; B on even x; C on odd x — so x=0 -> {A,B}
            # and x=1 -> {A,C} produce identical sentinel patterns.
            schema = Schema(Var.int("x"))
            rules = ("A", "B", "C")
            bits = {"x": 1}

            predicates = ()

            def memo(self):
                return Memo(1, 0)

            def evaluate(self, cols, memo=None):
                x = cols["x"]
                return {"A": x >= 0, "B": x % 2 == 0, "C": x % 2 == 1}, {}

            def apply(self, rule, idx, read, write):
                write["x"][idx] = read["x"][idx] + 1
                return self.bits["x"]

        runtime = KernelRuntime(ThreeRules(), Configuration([{"x": 0}]))
        assert runtime.enabled_map() == {0: ("A", "B")}
        runtime.disturb(Occurrence(0, 0, 0, assignments=((0, "x", 1),)))
        assert runtime.enabled_map() == {0: ("A", "C")}
        masks, _ = ThreeRules().evaluate({"x": np.array([0, 1])})
        assert enabled_map(masks, ThreeRules.rules, 2) == {
            0: ("A", "B"), 1: ("A", "C"),
        }


class TestMemoMarks:
    """The guard memo is marked with the columns whose values changed,
    not with every column an action or a fault wrote."""

    # ``a`` flips 0 -> 1; ``b`` is rewritten with its own values (an
    # unconditional vector assignment) and ``c`` with 0 where ``a`` was
    # 0 (a conditional scalar one).
    RULE_SET = RuleSet(
        "marks", Schema(Var.int("a"), Var.int("b"), Var.int("c")),
        [Rule("r", col("a") == 0, [
            Assign("a", 1),
            Assign("b", col("b")),
            Assign("c", 0, where=col("a") == 0),
        ])],
    )

    @classmethod
    def runtime(cls, *c_values):
        """A runtime over ring(4) (one block per ``c_values`` entry, the
        ``c`` of every process), ``c`` 0 by default."""
        net = ring(4)
        cfgs = [Configuration([{"a": 0, "b": u, "c": c} for u in range(4)])
                for c in c_values or (0,)]
        program = cls.RULE_SET.compile_kernel(net)
        if len(cfgs) == 1:
            return net, KernelRuntime(program, cfgs[0])
        return net, KernelRuntime.tiled(program, cfgs)

    @staticmethod
    def spy_dirty(program) -> list:
        """Record the memo's dirty masks at every ``evaluate``."""
        dirty = []
        evaluate = program.evaluate

        def spy(cols, memo=None):
            dirty.append(list(memo.dirty))
            return evaluate(cols, memo)

        program.evaluate = spy
        return dirty

    def test_apply_reports_only_changed_columns(self):
        _, runtime = self.runtime()
        program, cols = runtime.program, runtime.read
        write = {name: column.copy() for name, column in cols.items()}
        idx = np.array([1, 2], dtype=np.int64)
        assert program.apply("r", idx, cols, write) == program.bits["a"]
        # Applied again on its own output, the action changes nothing.
        again = {name: column.copy() for name, column in write.items()}
        assert program.apply("r", idx, write, again) == 0

    def test_drive_step_marks_only_changed_columns(self):
        net, runtime = self.runtime()
        program = runtime.program
        dirty = self.spy_dirty(program)
        daemon = vectorize(make_daemon("synchronous", net), net)
        result = runtime.run(daemon, Random(0), max_steps=1)
        assert result.steps == 1 and result.moves == 4
        assert runtime.decode().variable("a") == [1, 1, 1, 1]
        # The first evaluation starts from an all-dirty memo; the one
        # after the step sees only ``a``.
        assert dirty[0] == [-1] * len(dirty[0])
        assert dirty[1] == [program.bits["a"]] * len(dirty[1])

    @pytest.mark.parametrize("c_values,marked", [
        ((0, 0), "a"),       # no lane changes c
        ((0, 5), "a c"),     # the second lane does
    ])
    def test_batch_marks_a_column_any_lane_changed(self, c_values, marked):
        net, runtime = self.runtime(*c_values)
        program = runtime.program
        dirty = self.spy_dirty(program)
        lanes = [Lane(t, vectorize(make_daemon("synchronous", net), net),
                      Random(t)) for t in range(len(c_values))]
        runtime.drive(lanes, max_steps=1)
        bits = sum(program.bits[name] for name in marked.split())
        assert dirty[1] == [bits] * len(dirty[1])

    def test_fault_assigning_the_current_value_marks_nothing(self):
        _, runtime = self.runtime()
        runtime.guard_masks()  # evaluated: the memo is clean
        memo, bits = runtime._memo, runtime.program.bits
        runtime.disturb(Occurrence(0, 0, 0, assignments=((2, "b", 2),)))
        assert memo.dirty == [0] * len(memo.dirty)
        runtime.disturb(
            Occurrence(0, 1, 0, assignments=((2, "b", 7), (3, "c", 0))))
        assert memo.dirty == [bits["b"]] * len(memo.dirty)
        assert runtime.decode().variable("b") == [0, 1, 7, 3]


class TestBackendSelection:
    def test_backends_constant(self):
        assert BACKENDS == ("auto", "dict", "kernel")

    def test_auto_picks_kernel_for_ported_algorithms(self):
        net = ring(6)
        for algo in (Unison(net), SDR(Unison(net)), FGA(net, 1, 1), SDR(FGA(net, 1, 1))):
            sim = Simulator(algo, SynchronousDaemon(), seed=0)
            assert sim.backend == "kernel"

    def test_dict_backend_forced(self):
        sim = Simulator(Unison(ring(4)), SynchronousDaemon(), seed=0, backend="dict")
        assert sim.backend == "dict"

    def test_kernel_refused_without_program(self):
        from repro.baselines.bfs_tree import BfsTree

        class Unported(BfsTree):
            name = "bfs-tree-unported"

            def rule_set(self):
                return None  # no IR definition: dict backend only

        algo = Unported(ring(4))
        with pytest.raises(AlgorithmError):
            Simulator(algo, SynchronousDaemon(), seed=0, backend="kernel")
        # auto falls back (with a one-time logged warning)
        sim = Simulator(algo, SynchronousDaemon(), seed=0, backend="auto")
        assert sim.backend == "dict"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Simulator(Unison(ring(4)), SynchronousDaemon(), seed=0, backend="turbo")

    def test_auto_fallback_warns_once_per_algorithm(self, caplog):
        import logging

        from repro.baselines.bfs_tree import BfsTree
        from repro.core import simulator as sim_module

        class Unported(BfsTree):
            name = "bfs-tree-unported"

            def rule_set(self):
                return None  # no IR definition: dict backend only

        algo = Unported(ring(4))
        sim_module._FALLBACK_WARNED.discard(algo.name)
        with caplog.at_level(logging.WARNING, logger="repro.core.simulator"):
            Simulator(algo, SynchronousDaemon(), seed=0, backend="auto")
            Simulator(algo, SynchronousDaemon(), seed=0, backend="auto")
        fallback_warnings = [
            record for record in caplog.records
            if algo.name in record.getMessage()
        ]
        assert len(fallback_warnings) == 1  # loud once, silent after

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.core.simulator"):
            Simulator(algo, SynchronousDaemon(), seed=0, backend="dict")
        assert not caplog.records  # explicit dict request is not a fallback

    def test_attached_input_algorithm_has_no_standalone_program(self):
        unison = Unison(ring(4))
        SDR(unison)  # attaches
        assert unison.kernel_program() is None


class TestKernelExecution:
    def test_scripted_daemon_exact_replay(self):
        net = ring(5)
        script = [{0: "rule_U"}, {1: "rule_U", 4: "rule_U"}]
        results = []
        for backend in ("dict", "kernel"):
            sdr = Unison(net)
            sim = Simulator(sdr, ScriptedDaemon(script), seed=0, backend=backend)
            sim.step()
            sim.step()
            results.append((sim.cfg.snapshot(), dict(sim.enabled), sim.move_count))
        assert results[0] == results[1]

    def test_cfg_is_decoded_on_demand(self):
        net = ring(6)
        sim = Simulator(Unison(net), SynchronousDaemon(), seed=0, backend="kernel")
        sim.step()
        assert sim.cfg.variable("c") == [1] * 6
        sim.step()
        assert sim.cfg.variable("c") == [2] * 6

    def test_run_matches_dict_accounting(self):
        net = grid(3, 3)
        outcomes = []
        for backend in ("dict", "kernel"):
            sdr = SDR(Unison(net))
            cfg = sdr.random_configuration(Random(11))
            sim = Simulator(
                sdr, DistributedRandomDaemon(0.5), config=cfg, seed=11, backend=backend
            )
            res = sim.run(max_steps=500)
            outcomes.append(
                (
                    res.steps,
                    res.moves,
                    res.rounds,
                    sim.moves_per_rule,
                    sim.moves_per_process,
                    sim.cfg.snapshot(),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_daemon_cfg_view_supports_reads(self):
        from repro.core import CentralDaemon

        net = ring(6)
        # priority callback forces the daemon to actually read the lazy view
        daemon = CentralDaemon(priority=lambda cfg, u, rules: cfg[u]["c"])
        sdr = Unison(net)
        sim = Simulator(sdr, daemon, seed=3, backend="kernel")
        assert sim.run(max_steps=20).steps == 20
