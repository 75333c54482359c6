"""Silent self-stabilizing BFS spanning tree with a distinguished root.

Substrate for the mono-initiator reset baseline
(:mod:`repro.baselines.mono_reset`).  Each process maintains

* ``dist`` — its believed distance to the root, capped at ``n``;
* ``parent`` — the neighbor it routes through (``None`` at the root).

The root pins ``(dist, parent) = (0, None)``; every other process keeps
``dist = min(min_neighbor_dist + 1, n)`` with ``parent`` a neighbor
achieving the minimum.  Terminal configurations are exactly the BFS trees
rooted at the distinguished process.  (Round complexity is ``O(D)``; move
complexity of this classical scheme under the unfair daemon can be very
large from adversarial states — see Devismes & Johnen [22] — which is part
of why the paper's SDR avoids global structures.)
"""

from __future__ import annotations

from random import Random
from typing import Any

import networkx as nx

from ..core.algorithm import Algorithm
from ..core.configuration import Configuration
from ..core.graph import Network

__all__ = ["BfsTree", "DIST_VAR", "PARENT_VAR"]

DIST_VAR = "tdist"
PARENT_VAR = "tparent"


class BfsTree(Algorithm):
    """Distinguished-root self-stabilizing BFS spanning tree."""

    name = "bfs-tree"
    mutually_exclusive_rules = True

    def __init__(self, network: Network, root: int = 0):
        super().__init__(network)
        if not 0 <= root < network.n:
            raise ValueError(f"root {root} out of range")
        self.root = root
        # Ground truth for initial states and verification.
        graph = network.to_networkx()
        self._true_dist = nx.single_source_shortest_path_length(graph, root)

    # ------------------------------------------------------------------
    def _best(self, cfg: Configuration, u: int) -> tuple[int, int]:
        """``(min neighbor dist, argmin neighbor)`` with index tie-break."""
        best_v = min(self.network.neighbors(u), key=lambda v: (cfg[v][DIST_VAR], v))
        return cfg[best_v][DIST_VAR], best_v

    def _coherent(self, cfg: Configuration, u: int) -> bool:
        if u == self.root:
            return cfg[u][DIST_VAR] == 0 and cfg[u][PARENT_VAR] is None
        best_dist, _ = self._best(cfg, u)
        want = min(best_dist + 1, self.network.n)
        parent = cfg[u][PARENT_VAR]
        return (
            cfg[u][DIST_VAR] == want
            and parent is not None
            and self.network.are_neighbors(u, parent)
            and cfg[parent][DIST_VAR] == best_dist
        )

    # ------------------------------------------------------------------
    def variables(self) -> tuple[str, ...]:
        return (DIST_VAR, PARENT_VAR)

    def rule_names(self) -> tuple[str, ...]:
        return ("rule_tree",)

    def guard(self, rule: str, cfg: Configuration, u: int) -> bool:
        self.check_rule(rule)
        return not self._coherent(cfg, u)

    def execute(self, rule: str, cfg: Configuration, u: int) -> dict[str, Any]:
        self.check_rule(rule)
        if u == self.root:
            return {DIST_VAR: 0, PARENT_VAR: None}
        best_dist, best_v = self._best(cfg, u)
        return {DIST_VAR: min(best_dist + 1, self.network.n), PARENT_VAR: best_v}

    # ------------------------------------------------------------------
    def initial_state(self, u: int) -> dict[str, Any]:
        """A *correct* BFS tree (the baseline's clean-substrate start)."""
        if u == self.root:
            return {DIST_VAR: 0, PARENT_VAR: None}
        dist = self._true_dist[u]
        parent = min(
            v for v in self.network.neighbors(u) if self._true_dist[v] == dist - 1
        )
        return {DIST_VAR: dist, PARENT_VAR: parent}

    def random_state(self, u: int, rng: Random) -> dict[str, Any]:
        neighbors = self.network.neighbors(u)
        parent = None if rng.random() < 0.2 else neighbors[rng.randrange(len(neighbors))]
        return {DIST_VAR: rng.randrange(self.network.n + 1), PARENT_VAR: parent}

    # ------------------------------------------------------------------
    def rule_set(self):
        """IR definition: the tree rule as one declarative guarded rule
        (:func:`repro.baselines.kernelized.bfs_rule_set`)."""
        from ..ir import rule_set_of
        from .kernelized import bfs_rule_set

        return rule_set_of(bfs_rule_set, self.network.n)

    def param_values(self):
        return {"is_root": tuple(u == self.root for u in self.network.processes())}

    # ------------------------------------------------------------------
    def children(self, cfg: Configuration, u: int) -> list[int]:
        """Neighbors currently claiming ``u`` as their tree parent."""
        return [v for v in self.network.neighbors(u) if cfg[v][PARENT_VAR] == u]

    def is_correct_tree(self, cfg: Configuration) -> bool:
        """Whether the layer encodes a true BFS tree of the network."""
        return all(self._coherent(cfg, u) for u in self.network.processes()) and all(
            cfg[u][DIST_VAR] == self._true_dist[u] for u in self.network.processes()
        )
