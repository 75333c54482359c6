"""Unit tests for the proof-artifact analyses (Section 4 machinery)."""

from random import Random

import pytest

from repro.analysis import bounds
from repro.core import (
    Configuration,
    DistributedRandomDaemon,
    Network,
    Simulator,
    Trace,
    measure_stabilization,
)
from repro.reset import C, RB, RF, SDR
from repro.reset.analysis import (
    alive_roots,
    attractor_level,
    attractor_p1,
    attractor_p4,
    dead_roots,
    max_branch_depth,
    reset_branches,
    reset_children,
    reset_parents,
    rparent,
    sdr_sequence_in_language,
    segment_rule_sequences_ok,
    split_segments,
)
from repro.topology import by_name, ring
from repro.unison import Unison

PATH = Network([(0, 1), (1, 2)])


def cfg_of(*triples):
    return Configuration([{"st": st, "d": d, "c": c} for st, d, c in triples])


def make(net=PATH, period=5):
    return SDR(Unison(net, period=period))


class TestResetParents:
    def test_rparent_holds_on_broadcast_chain(self):
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RB, 1, 0), (RB, 2, 0))
        assert rparent(sdr, cfg, 0, 1)
        assert rparent(sdr, cfg, 1, 2)
        assert not rparent(sdr, cfg, 1, 0)  # distances wrong way

    def test_rb_parent_covers_rf_child_but_not_reverse(self):
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RF, 1, 0), (RB, 2, 0))
        assert rparent(sdr, cfg, 0, 1)  # st_v = RB case
        assert not rparent(sdr, cfg, 1, 2)  # RF parent, RB child: st differ

    def test_unreset_child_is_not_in_a_branch(self):
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RB, 1, 3), (C, 0, 0))
        assert not rparent(sdr, cfg, 0, 1)  # c=3 violates P_reset

    def test_parents_and_children_views_agree(self):
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RB, 1, 0), (RB, 2, 0))
        assert reset_parents(sdr, cfg, 1) == [0]
        assert reset_children(sdr, cfg, 0) == [1]


class TestBranches:
    def test_branch_enumeration_on_chain(self):
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RB, 1, 0), (RB, 2, 0))
        assert reset_branches(sdr, cfg) == [[0, 1, 2]]

    def test_max_branch_depth(self):
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RB, 1, 0), (RB, 2, 0))
        assert max_branch_depth(sdr, cfg) == {0: 0, 1: 1, 2: 2}

    def test_branch_statuses_match_lemma7(self):
        """Lemma 7.2: along any branch the statuses are RB* RF*."""
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RB, 1, 0), (RF, 2, 0))
        for branch in reset_branches(sdr, cfg):
            statuses = [cfg[u]["st"] for u in branch]
            joined = "".join("B" if s == RB else "F" for s in statuses)
            assert "BF" not in joined[::-1]  # no RB after RF

    def test_normal_configuration_has_no_branches(self):
        sdr = make()
        cfg = cfg_of((C, 0, 0), (C, 0, 0), (C, 0, 1))
        assert reset_branches(sdr, cfg) == []
        assert alive_roots(sdr, cfg) == set()
        assert dead_roots(sdr, cfg) == set()


class TestRootSets:
    def test_alive_and_dead_roots_on_crafted_configs(self):
        sdr = make()
        cfg = cfg_of((RB, 0, 0), (RB, 1, 0), (RF, 2, 0))
        assert 0 in alive_roots(sdr, cfg)
        cfg2 = cfg_of((RF, 0, 0), (RF, 1, 0), (RF, 2, 0))
        assert dead_roots(sdr, cfg2) == {0}


class TestSegments:
    def test_language_membership(self):
        good = [
            [],
            ["rule_C"],
            ["rule_RB"],
            ["rule_R", "rule_RF"],
            ["rule_C", "rule_RB", "rule_RF"],
            ["rule_C", "rule_R"],
        ]
        bad = [
            ["rule_RF", "rule_C"],
            ["rule_RB", "rule_RB"],
            ["rule_C", "rule_C"],
            ["rule_RF", "rule_RF"],
            ["rule_RB", "rule_R"],
        ]
        for seq in good:
            assert sdr_sequence_in_language(seq), seq
        for seq in bad:
            assert not sdr_sequence_in_language(seq), seq

    @pytest.mark.parametrize("seed", range(3))
    def test_recorded_executions_obey_theorem4(self, seed):
        net = by_name("random", 8, seed=seed)
        sdr = SDR(Unison(net))
        trace = Trace(record_configurations=True)
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5),
            config=sdr.random_configuration(Random(seed)), seed=seed, probes=[trace],
        )
        measure_stabilization(sim, sdr.is_normal, max_steps=200_000)
        assert segment_rule_sequences_ok(sdr, trace)
        segments = split_segments(sdr, trace)
        assert 1 <= len(segments) <= bounds.segments_bound(net.n)

    def test_split_segments_requires_snapshots(self):
        sdr = make()
        with pytest.raises(ValueError):
            split_segments(sdr, Trace(record_configurations=False))


class TestAttractors:
    def test_normal_configuration_is_level_4(self):
        sdr = make()
        cfg = cfg_of((C, 0, 0), (C, 0, 1), (C, 0, 1))
        assert attractor_p4(sdr, cfg)
        assert attractor_level(sdr, cfg) == 4

    def test_feedback_only_configuration_is_level_3(self):
        sdr = make()
        cfg = cfg_of((RF, 0, 0), (RF, 1, 0), (RF, 2, 0))
        assert attractor_level(sdr, cfg) == 3

    def test_incoherent_configuration_is_level_0(self):
        sdr = make()
        cfg = cfg_of((C, 0, 0), (C, 0, 2), (C, 0, 2))
        assert not attractor_p1(sdr, cfg)
        assert attractor_level(sdr, cfg) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_attractor_level_is_monotone_along_executions(self, seed):
        """P1 ⊆ P2 ⊆ P3 ⊆ P4 are closed (Lemmas 11–16): the level never
        decreases along any execution."""
        net = ring(7)
        sdr = SDR(Unison(net))
        trace = Trace(record_configurations=True)
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5),
            config=sdr.random_configuration(Random(seed)), seed=seed, probes=[trace],
        )
        measure_stabilization(sim, sdr.is_normal, max_steps=200_000)
        levels = [attractor_level(sdr, cfg) for cfg in trace.configurations]
        assert all(a <= b for a, b in zip(levels, levels[1:]))
        assert levels[-1] == 4
