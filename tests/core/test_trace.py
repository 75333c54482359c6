"""Unit tests for :mod:`repro.core.trace`."""

from random import Random

import pytest

from repro.core import (
    DistributedRandomDaemon,
    Network,
    ScriptedDaemon,
    Simulator,
    Trace,
)
from repro.core.trace import StepRecord
from repro.probes import Probe, StopProbe
from repro.reset import SDR
from repro.topology import ring
from repro.unison import Unison
from tests.toys import Countdown

PAIR = Network([(0, 1)])


def make_trace():
    algo = Countdown(PAIR, start=2)
    trace = Trace(record_configurations=True)
    sim = Simulator(
        algo, ScriptedDaemon([[0], [1], [0, 1]]), seed=0, probes=[trace]
    )
    sim.run_to_termination(max_steps=10)
    return trace


class TestStepRecord:
    def test_moves_and_executed(self):
        record = StepRecord(0, {1: "r", 3: "r"}, (1, 3), (), 1)
        assert record.moves == 2
        assert record.executed(1)
        assert not record.executed(0)


class TestTrace:
    def test_records_and_lengths(self):
        trace = make_trace()
        assert len(trace) == 3
        assert [r.moves for r in trace] == [1, 1, 2]

    def test_moves_of_and_rules_of(self):
        trace = make_trace()
        assert trace.moves_of(0) == 2
        assert trace.moves_of(1) == 2
        assert trace.rules_of(0) == ["rule_dec", "rule_dec"]

    def test_steps_with_rule(self):
        trace = make_trace()
        assert trace.steps_with_rule("rule_dec") == [0, 1, 2]
        assert trace.steps_with_rule("rule_other") == []

    def test_configuration_snapshots(self):
        trace = make_trace()
        assert trace.configuration(0).variable("k") == [2, 2]
        assert trace.configuration(3).variable("k") == [0, 0]

    def test_pairs_iteration(self):
        trace = make_trace()
        triples = list(trace.pairs())
        assert len(triples) == 3
        pre, record, post = triples[0]
        assert pre.variable("k") == [2, 2]
        assert post.variable("k") == [1, 2]
        assert record.selection == {0: "rule_dec"}

    def test_without_snapshots_raises(self):
        trace = Trace(record_configurations=False)
        algo = Countdown(PAIR, start=1)
        sim = Simulator(algo, ScriptedDaemon([[0, 1]]), seed=0, probes=[trace])
        sim.run_to_termination(max_steps=5)
        with pytest.raises(ValueError):
            trace.configuration(0)
        with pytest.raises(ValueError):
            list(trace.pairs())


class TestTraceIsAProbe:
    def test_trace_is_a_decode_tier_probe(self):
        trace = Trace()
        assert isinstance(trace, Probe)
        assert trace.wants_decode()
        assert not trace.done()

    def test_add_probe_snapshots_the_live_configuration(self):
        algo = Countdown(PAIR, start=2)
        sim = Simulator(algo, ScriptedDaemon([[0], [1], [0, 1]]), seed=0)
        sim.step()
        trace = Trace(record_configurations=True)
        sim.add_probe(trace)
        sim.run_to_termination(max_steps=10)
        assert len(trace) == 2
        assert trace.configuration(0).variable("k") == [1, 2]
        assert trace.configuration(2).variable("k") == [0, 0]

    def test_same_records_and_snapshots_on_every_driver(self):
        """Dict run, kernel run and a kernel ``step()`` loop record the
        same StepRecords and configuration snapshots."""
        net = ring(8)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(4))

        def traced(backend, stepped):
            trace = Trace(record_configurations=True)
            sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg,
                            seed=4, backend=backend, probes=[trace])
            assert not sim.fusion_available
            if stepped:
                for _ in range(120):
                    sim.step()
            else:
                sim.run(max_steps=120)
            return trace

        reference = traced("dict", stepped=False)
        assert len(reference) == 120
        for backend, stepped in (("kernel", False), ("kernel", True)):
            trace = traced(backend, stepped)
            assert trace.records == reference.records
            assert [c.snapshot() for c in trace.configurations] == \
                [c.snapshot() for c in reference.configurations]

    def test_trace_ends_where_a_stopping_probe_ends_the_run(self):
        """A trace next to a stop predicate records exactly the steps the
        run executed, up to the first normal configuration, on both
        backends."""
        net = ring(8)
        sdr = SDR(Unison(net))
        cfg = sdr.random_configuration(Random(9))

        def traced(backend):
            trace = Trace(record_configurations=True)
            stop = StopProbe(sdr.is_normal, mask="normal")
            sim = Simulator(sdr, DistributedRandomDaemon(0.5), config=cfg,
                            seed=9, backend=backend, probes=[trace, stop])
            result = sim.run(max_steps=10_000)
            assert stop.hit
            assert len(trace) == stop.step == result.steps
            assert sdr.is_normal(trace.configuration(len(trace)))
            return trace

        reference = traced("dict")
        kernel = traced("kernel")
        assert kernel.records == reference.records
        assert [c.snapshot() for c in kernel.configurations] == \
            [c.snapshot() for c in reference.configurations]


class TestTraceUnderDisturbances:
    @pytest.mark.parametrize("backend", ["dict", "kernel"])
    def test_pairs_hold_each_steps_real_configurations(self, backend):
        """Faults landing between steps: each ``pairs()`` triple holds the
        configuration its step ran from and the one it produced, so the
        processes enabled there are the record's ``enabled_before`` and
        ``enabled_after``."""
        sdr = SDR(Unison(ring(8)))
        trace = Trace(record_configurations=True)
        sim = Simulator(sdr, DistributedRandomDaemon(0.5), seed=1,
                        backend=backend, probes=[trace],
                        faults="burst=10,count=2,gap=20,k=3")
        sim.run(max_steps=200)
        assert len(trace._produced) == 2  # both bursts landed mid-run
        for pre, record, post in trace.pairs():
            assert tuple(sdr.enabled_processes(pre)) == record.enabled_before
            assert tuple(sdr.enabled_processes(post)) == record.enabled_after
        # The run ends on the last snapshot.
        assert trace.configuration(len(trace)).snapshot() == sim.cfg.snapshot()

    def test_dict_and_kernel_traces_agree_under_faults(self):
        sdr = SDR(Unison(ring(8)))

        def traced(backend):
            trace = Trace(record_configurations=True)
            Simulator(sdr, DistributedRandomDaemon(0.5), seed=1,
                      backend=backend, probes=[trace],
                      faults="burst=10,count=2,gap=20,k=3").run(max_steps=200)
            return [(pre.snapshot(), record, post.snapshot())
                    for pre, record, post in trace.pairs()]

        assert traced("kernel") == traced("dict")
