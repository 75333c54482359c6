"""Runtime validation of the SDR input-algorithm requirements (Section 3.5).

The correctness of ``I ∘ SDR`` rests on ``I`` satisfying Requirements 1 and
2a–2e.  The paper discharges them by hand for U and FGA; this module checks
them *dynamically* along concrete executions (and statically on sampled
configurations), so that new input algorithms can be validated without
re-doing the proofs.

Checks are split into:

* :func:`check_configuration` — per-configuration requirements (2c, 2d);
* :func:`check_independence` — read-set requirements (2a's "no SDR
  variables", 2b's "own variables only"), validated by scrambling the
  variables the predicate must not depend on;
* :func:`check_reset_establishes` — Requirement 2e;
* :class:`RequirementObserver` — a decode-tier probe enforcing all of the
  above plus Requirement 1 (input rules write only input variables) and the
  closure part of 2a along every step of a live execution.
"""

from __future__ import annotations

from random import Random

from ..core.configuration import Configuration
from ..core.exceptions import RequirementViolation
from ..core.trace import StepRecord
from ..probes.base import Probe
from .sdr import DIST, SDR, SDR_RULES, ST

__all__ = [
    "check_configuration",
    "check_independence",
    "check_reset_establishes",
    "check_requirements",
    "RequirementObserver",
]


def check_configuration(sdr: SDR, cfg: Configuration) -> None:
    """Requirements 2c and 2d on one configuration.

    2c: ``¬P_ICorrect(u) ∨ ¬P_Clean(u)`` implies no rule of ``I`` enabled.
    2d: ``P_reset`` on all of ``N[u]`` implies ``P_ICorrect(u)``.
    """
    inp = sdr.input
    for u in sdr.network.processes():
        blocked = not inp.p_icorrect(cfg, u) or not sdr.p_clean(cfg, u)
        if blocked:
            for rule in inp.rule_names():
                if inp.guard(rule, cfg, u):
                    raise RequirementViolation(
                        f"Req 2c: input rule {rule!r} enabled at process {u} although "
                        "¬P_ICorrect ∨ ¬P_Clean holds there"
                    )
        if all(inp.p_reset(cfg, v) for v in sdr.network.closed_neighbors(u)):
            if not inp.p_icorrect(cfg, u):
                raise RequirementViolation(
                    f"Req 2d: all of N[{u}] satisfy P_reset but P_ICorrect({u}) fails"
                )


def check_independence(sdr: SDR, cfg: Configuration, rng: Random, samples: int = 4) -> None:
    """Requirements 2a (first half) and 2b: predicate read-sets.

    ``P_ICorrect(u)`` must be insensitive to SDR's variables anywhere, and
    ``P_reset(u)`` must be insensitive to *every* variable outside ``u``'s
    own ``I``-state.  We scramble the forbidden variables ``samples`` times
    and require identical truth values.
    """
    inp = sdr.input
    n = sdr.network.n
    base_icorrect = [inp.p_icorrect(cfg, u) for u in range(n)]
    base_reset = [inp.p_reset(cfg, u) for u in range(n)]

    for _ in range(samples):
        scrambled = cfg.copy()
        for v in range(n):
            junk = sdr.random_state(v, rng)
            scrambled.set(v, ST, junk[ST])
            scrambled.set(v, DIST, junk[DIST])
        for u in range(n):
            if inp.p_icorrect(scrambled, u) != base_icorrect[u]:
                raise RequirementViolation(
                    f"Req 2a: P_ICorrect({u}) depends on SDR variables"
                )

        scrambled = cfg.copy()
        for v in range(n):
            junk = inp.random_state(v, rng)
            for var, value in junk.items():
                scrambled.set(v, var, value)
        for u in range(n):
            # Restore u's own input variables, keep everyone else junked.
            probe = scrambled.copy()
            for var in inp.variables():
                probe.set(u, var, cfg[u][var])
            if inp.p_reset(probe, u) != base_reset[u]:
                raise RequirementViolation(
                    f"Req 2b: P_reset({u}) depends on other processes' variables"
                )


def check_reset_establishes(sdr: SDR, cfg: Configuration, u: int) -> None:
    """Requirement 2e: applying ``reset(u)`` alone establishes ``P_reset(u)``."""
    updates = sdr.input.reset_updates(cfg, u)
    unknown = set(updates) - set(sdr.input.variables())
    if unknown:
        raise RequirementViolation(
            f"Req 1: reset({u}) writes non-input variables {sorted(unknown)}"
        )
    probe = cfg.copy()
    for var, value in updates.items():
        probe.set(u, var, value)
    if not sdr.input.p_reset(probe, u):
        raise RequirementViolation(f"Req 2e: P_reset({u}) fails right after reset({u})")


def check_requirements(
    sdr: SDR, cfg: Configuration, rng: Random | None = None, samples: int = 4
) -> None:
    """One-shot static check of every sampleable requirement on ``cfg``."""
    rng = rng if rng is not None else Random(0)
    check_configuration(sdr, cfg)
    check_independence(sdr, cfg, rng, samples=samples)
    for u in sdr.network.processes():
        check_reset_establishes(sdr, cfg, u)


class RequirementObserver(Probe):
    """Decode-tier probe validating the requirements along an execution.

    Checks per step:

    * Requirement 1 — input rules only update input variables (verified by
      re-running the action against the pre-step snapshot);
    * Requirement 2c/2d on every reached configuration;
    * Requirement 2e for every process that executed ``rule_RB``/``rule_R``;
    * closure half of 2a — in steps consisting solely of input-rule moves,
      ``P_ICorrect(u)`` never flips from true to false.

    Intended for tests (it snapshots the configuration every step).
    """

    name = "requirements"

    def __init__(self, sdr: SDR):
        self.sdr = sdr
        self._prev: Configuration | None = None
        self._prev_icorrect: list[bool] | None = None

    def on_start(self, sim) -> None:
        check_configuration(self.sdr, sim.cfg)
        self._remember(sim.cfg)

    def _remember(self, cfg: Configuration) -> None:
        self._prev = cfg.copy()
        self._prev_icorrect = [
            self.sdr.input.p_icorrect(cfg, u) for u in self.sdr.network.processes()
        ]

    def on_step(self, sim, record: StepRecord) -> None:
        cfg = sim.cfg
        prev = self._prev
        assert prev is not None and self._prev_icorrect is not None

        input_rules = set(self.sdr.input.rule_names())
        for u, rule in record.selection.items():
            if rule in input_rules:
                updates = self.sdr.input.execute(rule, prev, u)
                illegal = set(updates) - set(self.sdr.input.variables())
                if illegal:
                    raise RequirementViolation(
                        f"Req 1: input rule {rule!r} at {u} writes {sorted(illegal)}"
                    )
            if rule in ("rule_RB", "rule_R") and not self.sdr.input.p_reset(cfg, u):
                raise RequirementViolation(
                    f"Req 2e: P_reset({u}) fails right after {rule}"
                )

        check_configuration(self.sdr, cfg)

        only_input_moves = all(r in input_rules for r in record.selection.values())
        if only_input_moves:
            for u in self.sdr.network.processes():
                if self._prev_icorrect[u] and not self.sdr.input.p_icorrect(cfg, u):
                    raise RequirementViolation(
                        f"Req 2a: P_ICorrect({u}) not closed by an I-only step "
                        f"(step {record.index})"
                    )
        self._remember(cfg)
