"""Tutorial: self-stabilize *your own* algorithm with SDR.

SDR turns any locally checkable algorithm satisfying the Section 3.5
requirements into a self-stabilizing one.  This example builds a greedy
**conflict-free channel assignment** (graph coloring, e.g. radio frequency
allocation) from scratch and hands it to SDR:

* ``P_ICorrect(u)``  — no neighbor uses my channel (locally checkable);
* ``P_reset(u)``     — my channel is my unique identifier (always proper);
* ``reset(u)``       — jump back to the identifier channel;
* one improvement rule — move to the smallest free channel, tie-broken by
  identifier so concurrent moves never create new conflicts (keeps
  ``P_ICorrect`` closed, Requirement 2a).

The runtime requirement checker validates the contract dynamically while
the composition stabilizes from arbitrary channel assignments.

Run:  python examples/custom_algorithm.py
"""

from random import Random

from repro import DistributedRandomDaemon, SDR, Simulator, topology
from repro.core import measure_stabilization
from repro.reset import InputAlgorithm, RequirementObserver


class ChannelAssignment(InputAlgorithm):
    """Greedy descending channel assignment (identified network)."""

    name = "channels"
    mutually_exclusive_rules = True

    # -- the SDR contract ------------------------------------------------
    def p_icorrect(self, cfg, u):
        return all(cfg[v]["chan"] != cfg[u]["chan"] for v in self.network.neighbors(u))

    def p_reset(self, cfg, u):
        return cfg[u]["chan"] == self.network.id_of(u)

    def reset_updates(self, cfg, u):
        return {"chan": self.network.id_of(u)}

    # -- the algorithm itself ---------------------------------------------
    def _smallest_free(self, cfg, u):
        taken = {cfg[v]["chan"] for v in self.network.neighbors(u)}
        chan = 0
        while chan in taken:
            chan += 1
        return chan

    def _wants_move(self, cfg, u):
        return self.p_icorrect(cfg, u) and self._smallest_free(cfg, u) < cfg[u]["chan"]

    def variables(self):
        return ("chan",)

    def rule_names(self):
        return ("rule_improve",)

    def guard(self, rule, cfg, u):
        self.check_rule(rule)
        if not (self.p_clean(cfg, u) and self._wants_move(cfg, u)):
            return False
        # Local tie-break: move only if no moving neighbor has a larger id
        # (keeps simultaneous moves conflict-free, so P_ICorrect is closed).
        my_id = self.network.id_of(u)
        return all(
            not self._wants_move(cfg, v) or self.network.id_of(v) < my_id
            for v in self.network.neighbors(u)
        )

    def execute(self, rule, cfg, u):
        self.check_rule(rule)
        return {"chan": self._smallest_free(cfg, u)}

    def initial_state(self, u):
        return {"chan": self.network.id_of(u)}

    def random_state(self, u, rng):
        return {"chan": rng.randrange(2 * self.network.n)}


def main() -> None:
    net = topology.random_connected(12, p=0.3, seed=3)
    algo = SDR(ChannelAssignment(net))

    start = algo.random_configuration(Random(1))  # arbitrary channels + statuses
    conflicts = sum(
        1 for u, v in net.edges() if start[u]["chan"] == start[v]["chan"]
    )
    print(f"network {net}; starting with {conflicts} channel conflicts")

    observer = RequirementObserver(algo)  # validates Requirements 1, 2a-2e live
    sim = Simulator(
        algo, DistributedRandomDaemon(0.5), config=start, seed=1,
        probes=[observer],
    )
    detector, _ = measure_stabilization(sim, algo.is_normal)
    print(f"conflict-free after {detector.rounds} rounds / {detector.moves} moves")

    sim.run(max_steps=5_000)  # let the improvement rule finish (it is silent)
    channels = sim.cfg.variable("chan")
    print("final channels:", channels)
    assert all(channels[u] != channels[v] for u, v in net.edges())
    print(f"channels used: {len(set(channels))} (graph degree Δ={net.max_degree})")
    print("requirement checker observed no violation — the contract holds.")


if __name__ == "__main__":
    main()
