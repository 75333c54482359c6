"""Smoke tests: every registered experiment runs on a tiny grid and passes."""

import pytest

from repro.harness import experiments


class TestSmallExperiments:
    def test_t1_t2(self):
        result = experiments.experiment_t1_t2(
            sizes=(6,), topologies=("ring",), trials=1,
            daemons=("distributed-random",),
        )
        assert result.ok
        assert result.table.rows

    def test_t3_t4(self):
        result = experiments.experiment_t3_t4(
            sizes=(6,), topologies=("ring",), trials=1, scenarios=("gradient",)
        )
        assert result.ok

    def test_t5(self):
        result = experiments.experiment_t5(sizes=(6, 8), trials=1)
        assert result.ok
        assert len(result.data["n"]) == 2

    def test_t6_t7(self):
        result = experiments.experiment_t6_t7(
            sizes=(6,), topologies=("random",), trials=1, scenarios=("random",)
        )
        assert result.ok

    def test_t8(self):
        result = experiments.experiment_t8(sizes=(6,), topologies=("ring",), trials=1)
        assert result.ok

    def test_t9(self):
        result = experiments.experiment_t9(n=8, trials=1)
        assert result.ok
        assert len(result.table.rows) == 6  # six instances

    def test_t10(self):
        result = experiments.experiment_t10(sizes=(6,), trials=1)
        assert result.ok

    def test_f1_f2(self):
        result = experiments.figure_f1_f2(sizes=(6, 8, 10), trials=1)
        assert result.figure is not None
        assert "ours_exponent" in result.data

    def test_f3(self):
        result = experiments.figure_f3(n=10, fault_counts=(1, 4), trials=2)
        assert result.figure is not None

    def test_f4(self):
        result = experiments.figure_f4(sizes=(6, 8), trials=1)
        assert result.ok

    def test_f5(self):
        result = experiments.figure_f5(n=8, trials=1)
        assert result.ok

    def test_f6(self):
        result = experiments.figure_f6(sizes=(6, 10), trials=1)
        assert result.table.rows

    def test_p1(self):
        result = experiments.experiment_p1(sizes=(6,), topologies=("ring",), trials=1)
        assert result.ok

    def test_t11(self):
        result = experiments.experiment_t11(
            n=8, trials=1, fault_counts=(1,), cadences=(30,), bursts=2
        )
        assert result.ok
        assert result.table.rows

    def test_t12(self):
        result = experiments.experiment_t12(
            n=8, trials=1, cadences=(30,), mixes=("crash-join",), events=1
        )
        assert result.ok
        assert result.table.rows

    def test_t13(self):
        result = experiments.experiment_t13(
            sizes=(8,), random_trials=5, strategies=("greedy",)
        )
        assert result.ok
        assert "vs 5-seed random baseline" in result.table.render()
        assert [row[1] for row in result.table.rows] == [
            "greedy", "distributed-random"]
        assert [cell["replay_ok"] for cell in result.data["cells"]] == [True]

    def test_f7(self):
        result = experiments.figure_f7(
            sizes=(8,), random_trials=3, strategies=("greedy",)
        )
        assert result.ok
        assert [row[1] for row in result.table.rows] == [
            "distributed-random (worst)", "greedy"]
        assert [cell["replay_ok"] for cell in result.data["cells"]] == [True]

    def test_registry_complete(self):
        assert set(experiments.REGISTRY) == {
            "T1/T2", "T3/T4", "T5", "T6/T7", "T8", "T9", "T10", "T11", "T12",
            "T13", "F1/F2", "F3", "F4", "F5", "F6", "F7", "P1", "A1",
        }

    def test_render_includes_verdict(self):
        result = experiments.experiment_t8(sizes=(6,), topologies=("ring",), trials=1)
        out = result.render()
        assert "RESULT: PASS" in out
