"""Potential functions score kernel columns without decoding."""

import numpy as np
import pytest

from repro.adversary.potential import (
    POTENTIAL_KINDS,
    EnabledMoves,
    FgaElectionChurn,
    Potential,
    ResetDistanceMass,
    UnisonSkew,
    WeightedPotential,
    default_potential,
    make_potential,
)
from repro.core.daemon import make_daemon
from repro.core.exceptions import DaemonError
from repro.core.simulator import Simulator
from repro.reset import SDR
from repro.topology import ring
from repro.unison import Unison


def kernel_for(algo, seed=0):
    sim = Simulator(algo, make_daemon("synchronous"), seed=seed,
                    backend="kernel")
    assert sim._kernel is not None
    return sim._kernel


class TestEnabledMoves:
    def test_counts_guard_mask_bits(self):
        kernel = kernel_for(SDR(Unison(ring(6))))
        pot = EnabledMoves()
        masks = kernel.program.guard_masks(kernel.read)
        total = sum(
            int(np.count_nonzero(mask))
            for mask in masks.values()
            if mask is not None
        )
        assert pot.score(kernel.read, kernel.program, masks) == float(total)


class TestResetDistanceMass:
    def test_zero_without_status_column(self):
        assert ResetDistanceMass().score({}, program=None, masks={}) == 0.0

    def test_weights_statuses(self):
        kernel = kernel_for(SDR(Unison(ring(4))))
        cols = {name: col.copy() for name, col in kernel.read.items()}
        cols["st"][:] = 0  # all C
        base = ResetDistanceMass().score(cols, kernel.program, {})
        assert base == 0.0
        cols["st"][0] = 1  # one RB: weight 3
        cols["d"][0] = 0
        assert ResetDistanceMass().score(cols, kernel.program, {}) == 3.0
        cols["st"][1] = 2  # plus one RF: weight 2
        cols["d"][1] = 0
        assert ResetDistanceMass().score(cols, kernel.program, {}) == 5.0

    def test_distance_term_is_normalized(self):
        kernel = kernel_for(SDR(Unison(ring(4))))
        cols = {name: col.copy() for name, col in kernel.read.items()}
        cols["st"][:] = 0
        cols["st"][0] = 1
        cols["d"][0] = 2
        score = ResetDistanceMass().score(cols, kernel.program, {})
        assert 3.0 < score < 4.0  # 3 + 2/n, never a whole move


class TestUnisonSkew:
    def test_zero_when_clocks_equal(self):
        kernel = kernel_for(SDR(Unison(ring(5))))
        cols = {name: col.copy() for name, col in kernel.read.items()}
        cols["c"][:] = 7
        assert UnisonSkew().score(cols, kernel.program, {}) == 0.0

    def test_counts_unequal_neighbor_pairs(self):
        kernel = kernel_for(SDR(Unison(ring(4))))
        cols = {name: col.copy() for name, col in kernel.read.items()}
        cols["c"][:] = 0
        cols["c"][0] = 5  # two incident ring edges disagree
        assert UnisonSkew().score(cols, kernel.program, {}) == 2.0


class TestWeightedPotential:
    def test_weighted_sum(self):
        kernel = kernel_for(SDR(Unison(ring(4))))
        e, s = EnabledMoves(), UnisonSkew()
        combo = WeightedPotential([(2.0, e), (0.5, s)])
        masks = kernel.program.guard_masks(kernel.read)
        expected = (2.0 * e.score(kernel.read, kernel.program, masks)
                    + 0.5 * s.score(kernel.read, kernel.program, masks))
        assert combo.score(kernel.read, kernel.program, masks) == expected


class TestDefaultPotential:
    def test_unison_sdr_terms(self):
        kernel = kernel_for(SDR(Unison(ring(4))))
        combo = default_potential(kernel.program)
        names = {p.name for _, p in combo.terms}
        assert "enabled" in names
        assert "reset-mass" in names
        assert "unison-skew" in names
        assert "fga-churn" not in names


class TestRegistry:
    def test_kinds_instantiate(self):
        for kind in POTENTIAL_KINDS:
            assert isinstance(make_potential(kind), Potential)

    def test_unknown_kind(self):
        with pytest.raises(DaemonError):
            make_potential("nope")
