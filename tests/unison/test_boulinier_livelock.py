"""A replayed livelock of the reconstructed Boulinier baseline.

On star(3) from the ``gradient`` start, with the default parameters
(``K = 8``, ``α = 3``), a 10-step prefix leads to the clocks
``(−1, 1, −2)`` and a 16-step loop returns to them without ever passing
a legitimate configuration.  Every process moves in every loop, so the
schedule is weakly fair as well as legal under the unfair daemon.  The
loop is replayed 20 times through a strict ``ScriptedDaemon`` on both
backends, which must agree step by step.
"""

from random import Random

import pytest

from repro.core import ScriptedDaemon, Simulator
from repro.harness.runner import ALGORITHMS
from repro.topology import star

PREFIX = [
    {1: "rule_RA"}, {1: "rule_TA"}, {1: "rule_TA"}, {1: "rule_TO"},
    {1: "rule_NA"}, {0: "rule_RA"}, {0: "rule_TA"}, {0: "rule_TA"},
    {2: "rule_RA"}, {2: "rule_TA"},
]
LOOP = [
    {2: "rule_TA"}, {0: "rule_TO", 1: "rule_RA"}, {1: "rule_TA"},
    {2: "rule_TO"}, {2: "rule_NA"}, {0: "rule_RA"}, {0: "rule_TA"},
    {0: "rule_TA"}, {1: "rule_TA"}, {0: "rule_TO", 2: "rule_RA"},
    {1: "rule_TO"}, {1: "rule_NA"}, {0: "rule_RA"}, {0: "rule_TA"},
    {2: "rule_TA"}, {0: "rule_TA"},
]
LOOPS = 20
ANCHOR = (-1, 1, -2)


def replay(backend):
    """The clocks after every step of the scripted lasso."""
    entry = ALGORITHMS["boulinier"]
    algo = entry.build(star(3))
    assert (algo.period, algo.alpha) == (8, 3)
    sim = Simulator(
        algo, ScriptedDaemon(PREFIX + LOOP * LOOPS),
        config=entry.scenarios["gradient"](algo, Random(0)),
        backend=backend, strict=True,
    )
    clocks = []
    for _ in range(len(PREFIX) + len(LOOP) * LOOPS):
        assert sim.step() is not None
        assert not algo.is_legitimate(sim.cfg)
        clocks.append(tuple(sim.cfg[u]["r"] for u in range(3)))
    assert sim.move_count == len(PREFIX) + 18 * LOOPS
    return clocks


@pytest.mark.parametrize("backend", ["dict", "kernel"])
def test_the_loop_returns_to_its_anchor(backend):
    clocks = replay(backend)
    anchors = clocks[len(PREFIX) - 1 :: len(LOOP)]
    assert anchors == [ANCHOR] * (LOOPS + 1)


def test_backends_agree_on_the_livelock():
    assert replay("kernel") == replay("dict")
