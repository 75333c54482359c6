"""Silent self-stabilizing leader election (max identifier) substrate.

The mono-initiator reset of Arora & Gouda [4] assumes an *identified*
network in which a root can be agreed upon; our
:class:`~repro.baselines.mono_reset.MonoReset` simplifies this to a
distinguished root.  This module supplies the missing ingredient as its own
silent self-stabilizing layer, in the classical max-id flooding style
(cf. the polynomial-step leader election literature the paper cites [2]):

Each process maintains

* ``lid``  — the identifier of its believed leader;
* ``ldist`` — its believed distance to that leader (capped at ``n − 1``).

A process's *best offer* is the largest ``(lid, −dist)`` among its own
``(id_u, 0)`` and every neighbor's ``(lid_v, ldist_v + 1)`` with
``ldist_v + 1 ≤ n − 1``.  The single rule re-points a process at its best
offer.  *Fake* identifiers (corrupted ``lid`` values larger than any real
id) cannot sustain themselves: they have no process offering distance 0, so
every round their minimum claimed distance grows until the ``n − 1`` cap
eliminates them.

Terminal configurations: every process knows the true maximum identifier
and its exact BFS distance to it — which also yields a *rooted spanning
tree* for free (:meth:`LeaderElection.parent_of`), completing the substrate
stack a faithful Arora–Gouda deployment needs.
"""

from __future__ import annotations

from random import Random
from typing import Any

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration
from ..core.graph import Network

__all__ = ["LeaderElection", "LID", "LDIST"]

LID = "lid"
LDIST = "ldist"


class LeaderElection(Algorithm):
    """Max-identifier leader election with distance-bounded flooding."""

    name = "leader-election"
    mutually_exclusive_rules = True

    def __init__(self, network: Network):
        super().__init__(network)
        self._true_leader = max(network.processes(), key=network.id_of)
        import networkx as nx

        graph = network.to_networkx()
        self._true_dist = nx.single_source_shortest_path_length(
            graph, self._true_leader
        )

    # ------------------------------------------------------------------
    @property
    def true_leader(self) -> int:
        """The process holding the maximum identifier."""
        return self._true_leader

    def _best_offer(self, cfg: Configuration, u: int) -> tuple[int, int]:
        """``(lid, dist)`` of the strongest claim visible to ``u``.

        Claims are ranked by larger ``lid`` first, then smaller distance.
        """
        best_lid, best_dist = self.network.id_of(u), 0
        cap = self.network.n - 1
        for v in self.network.neighbors(u):
            lid, dist = cfg[v][LID], cfg[v][LDIST] + 1
            if dist <= cap and (lid, -dist) > (best_lid, -best_dist):
                best_lid, best_dist = lid, dist
        return best_lid, best_dist

    # ------------------------------------------------------------------
    def variables(self) -> tuple[str, ...]:
        return (LID, LDIST)

    def rule_names(self) -> tuple[str, ...]:
        return ("rule_elect",)

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        self.check_rule(rule)
        return (cfg[u][LID], cfg[u][LDIST]) != self._best_offer(cfg, u)

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        self.check_rule(rule)
        lid, dist = self._best_offer(cfg, u)
        return {LID: lid, LDIST: dist}

    def initial_state(self, u: int) -> dict[str, Any]:
        return {LID: self.network.id_of(u), LDIST: 0}

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        # Corrupted lid may exceed every real identifier (a fake leader).
        fake_ceiling = max(self.network.ids) + self.network.n
        return {
            LID: rng.randrange(fake_ceiling + 1),
            LDIST: rng.randrange(self.network.n),
        }

    # ------------------------------------------------------------------
    def rule_set(self):
        """IR definition: best-offer flooding as one declarative rule
        (:func:`repro.baselines.kernelized.leader_rule_set`); identifiers
        that would overflow its composite claim key leave
        :meth:`kernel_program` ``None`` (dict backend only)."""
        from ..ir import rule_set_of
        from .kernelized import leader_rule_set

        return rule_set_of(leader_rule_set, self.network.n)

    def param_values(self):
        return {"ids": self.network.ids}

    # ------------------------------------------------------------------
    # Output views
    # ------------------------------------------------------------------
    def elected(self, cfg: Configuration) -> bool:
        """Whether every process agrees on the true leader at the true
        distance (the terminal configurations)."""
        true_id = self.network.id_of(self._true_leader)
        return all(
            cfg[u][LID] == true_id and cfg[u][LDIST] == self._true_dist[u]
            for u in self.network.processes()
        )

    def parent_of(self, cfg: Configuration, u: int) -> int | None:
        """Tree parent in the converged configuration (``None`` at the
        leader): the smallest-index neighbor one step closer to the leader."""
        if cfg[u][LDIST] == 0:
            return None
        target = cfg[u][LDIST] - 1
        for v in self.network.neighbors(u):
            if cfg[v][LDIST] == target and cfg[v][LID] == cfg[u][LID]:
                return v
        return None

    def spanning_tree_edges(self, cfg: Configuration) -> list[tuple[int, int]]:
        """The rooted spanning tree induced by a converged election."""
        edges = []
        for u in self.network.processes():
            parent = self.parent_of(cfg, u)
            if parent is not None:
                edges.append((parent, u))
        return edges
