"""Executions where a process performs *more* than one wave of SDR moves.

Corollary 4 allows up to ``3n + 3`` SDR moves per process; random starts
almost always show exactly 3 (one join, one feedback, one completion,
because a broadcast floods the whole network before any feedback starts).
These tests construct the multi-segment executions that need more: a
process completing a leftover feedback (``rule_C``) and then being swept up
by a fresh broadcast."""

from repro.analysis import bounds
from repro.core import Configuration, Network, ScriptedDaemon, Simulator
from repro.harness.experiments import SdrMoveCounter
from repro.reset import C, RB, RF, SDR
from repro.reset.analysis import split_segments, segment_rule_sequences_ok
from repro.core import Trace
from repro.unison import Unison

LINE4 = Network([(0, 1), (1, 2), (2, 3)])


def cfg_of(net, *triples):
    assert len(triples) == net.n
    return Configuration([{"st": st, "d": d, "c": c} for st, d, c in triples])


class TestFourMoveProcess:
    def make(self):
        sdr = SDR(Unison(LINE4, period=5))
        # Process 2 is a leftover feedback island (already reset); process 0
        # holds a bad clock that will trigger a full wave afterwards.
        start = cfg_of(LINE4, (C, 0, 2), (C, 0, 0), (RF, 5, 0), (C, 0, 0))
        return sdr, start

    def test_scripted_four_sdr_moves(self):
        sdr, start = self.make()
        script = [
            {2: "rule_C"},    # leftover island completes …
            {0: "rule_R"},    # … then the real reset begins
            {1: "rule_RB"},
            {2: "rule_RB"},   # island process joins a second time
            {3: "rule_RB"},
            {3: "rule_RF"},
            {2: "rule_RF"},
            {1: "rule_RF"},
            {0: "rule_RF"},
            {0: "rule_C"},
            {1: "rule_C"},
            {2: "rule_C"},    # and completes a second time
            {3: "rule_C"},
        ]
        counter = SdrMoveCounter(LINE4.n)
        trace = Trace(record_configurations=True)
        sim = Simulator(
            sdr, ScriptedDaemon(script), config=start, seed=0,
            probes=[trace, counter],
        )
        for _ in script:
            sim.step()
        assert sdr.is_normal(sim.cfg)
        # Process 2 executed C, RB, RF, C — four SDR moves, over one wave's 3.
        assert counter.counts[2] == 4
        assert max(counter.counts) <= bounds.sdr_moves_per_process_bound(LINE4.n)
        # The rule-language theorem still holds per segment:
        assert segment_rule_sequences_ok(sdr, trace)
        assert len(split_segments(sdr, trace)) <= bounds.segments_bound(LINE4.n)

    def test_island_completion_is_enabled_initially(self):
        sdr, start = self.make()
        assert sdr.guard("rule_C", start, 2)
        assert sdr.guard("rule_R", start, 0)


class TestFloodBeforeFeedback:
    def test_no_feedback_while_any_neighbor_is_clean(self):
        """P_RF blocks on C neighbors: a broadcast must cover the whole
        (connected) network before any feedback starts — the structural
        reason one wave costs each process at most 3 moves."""
        sdr = SDR(Unison(LINE4, period=5))
        cfg = cfg_of(LINE4, (RB, 0, 0), (RB, 1, 0), (C, 0, 0), (C, 0, 0))
        assert not sdr.guard("rule_RF", cfg, 1)  # neighbor 2 still C
        assert not sdr.guard("rule_RF", cfg, 0)  # child 1 not fed back
        full = cfg_of(LINE4, (RB, 0, 0), (RB, 1, 0), (RB, 2, 0), (RB, 3, 0))
        assert sdr.guard("rule_RF", full, 3)  # only the deepest may start
