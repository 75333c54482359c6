"""Tests of the input-algorithm requirement checker (Section 3.5).

Both directions: the paper's input algorithms pass every check, and
deliberately broken inputs are caught.
"""

from random import Random

import pytest

from repro.alliance import FGA, dominating_set
from repro.core import (
    DistributedRandomDaemon,
    Network,
    RequirementViolation,
    Simulator,
)
from repro.reset import (
    RequirementObserver,
    SDR,
    check_configuration,
    check_independence,
    check_requirements,
    check_reset_establishes,
)
from repro.topology import ring
from repro.unison import Unison

NET = ring(6)


class TestConformingInputs:
    @pytest.mark.parametrize("seed", range(3))
    def test_unison_passes_static_checks(self, seed):
        sdr = SDR(Unison(NET))
        rng = Random(seed)
        check_requirements(sdr, sdr.random_configuration(rng), rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_fga_passes_static_checks(self, seed):
        f, g = dominating_set(NET)
        sdr = SDR(FGA(NET, f, g))
        rng = Random(seed)
        check_requirements(sdr, sdr.random_configuration(rng), rng)

    def test_unison_passes_dynamic_checks(self):
        sdr = SDR(Unison(NET))
        observer = RequirementObserver(sdr)
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5),
            config=sdr.random_configuration(Random(5)), seed=5,
            probes=[observer],
        )
        sim.run(max_steps=400)

    def test_fga_passes_dynamic_checks(self):
        f, g = dominating_set(NET)
        sdr = SDR(FGA(NET, f, g))
        observer = RequirementObserver(sdr)
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5),
            config=sdr.random_configuration(Random(6)), seed=6,
            probes=[observer],
        )
        sim.run_to_termination(max_steps=100_000)


class BrokenClean(Unison):
    """Violates Requirement 2c: runs even when the neighborhood is dirty."""

    def guard(self, rule, cfg, u):
        return self.p_up(cfg, u)  # P_Clean dropped


class BrokenReset(Unison):
    """Violates Requirement 2e: reset does not establish P_reset."""

    def reset_updates(self, cfg, u):
        return {"c": 1}


class BrokenResetLocality(Unison):
    """Violates Requirement 2b: P_reset reads a neighbor's variable."""

    def p_reset(self, cfg, u):
        v = self.network.neighbors(u)[0]
        return cfg[u]["c"] == 0 and cfg[v]["c"] == 0


class BrokenIcorrectReadsSdr(Unison):
    """Violates Requirement 2a: P_ICorrect reads SDR's status variable."""

    def p_icorrect(self, cfg, u):
        return super().p_icorrect(cfg, u) and cfg[u]["st"] == "C"


class TestViolationsCaught:
    def _dirty_config(self, sdr):
        cfg = sdr.initial_configuration()
        cfg.set(0, "st", "RB")
        cfg.set(1, "c", 2)  # make P_Up(1) hold while ¬P_Clean(1)
        cfg.set(2, "c", 1)
        return cfg

    def test_req_2c_violation(self):
        sdr = SDR(BrokenClean(NET))
        cfg = self._dirty_config(sdr)
        with pytest.raises(RequirementViolation, match="Req 2c"):
            check_configuration(sdr, cfg)

    def test_req_2e_violation(self):
        sdr = SDR(BrokenReset(NET))
        cfg = sdr.initial_configuration()
        with pytest.raises(RequirementViolation, match="Req 2e"):
            check_reset_establishes(sdr, cfg, 0)

    def test_req_2b_violation(self):
        sdr = SDR(BrokenResetLocality(NET))
        cfg = sdr.initial_configuration()
        with pytest.raises(RequirementViolation, match="Req 2b"):
            check_independence(sdr, cfg, Random(0), samples=8)

    def test_req_2a_violation(self):
        sdr = SDR(BrokenIcorrectReadsSdr(NET))
        cfg = sdr.initial_configuration()
        with pytest.raises(RequirementViolation, match="Req 2a"):
            check_independence(sdr, cfg, Random(0), samples=8)

    def test_req_1_violation_dynamic(self):
        class WritesSdrVars(Unison):
            def execute(self, rule, cfg, u):
                return {"c": (cfg[u]["c"] + 1) % self.period, "st": "C"}

        sdr = SDR(WritesSdrVars(NET))
        observer = RequirementObserver(sdr)
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.9),
            config=sdr.initial_configuration(), seed=0, probes=[observer],
            strict=False,
        )
        with pytest.raises(RequirementViolation, match="Req 1"):
            sim.run(max_steps=50)

    def test_req_2d_violation(self):
        class NeverCorrect(Unison):
            def p_icorrect(self, cfg, u):
                return False

            def guard(self, rule, cfg, u):
                return False  # keep 2c satisfied so 2d is what trips

        sdr = SDR(NeverCorrect(NET))
        cfg = sdr.initial_configuration()
        with pytest.raises(RequirementViolation, match="Req 2d"):
            check_configuration(sdr, cfg)
