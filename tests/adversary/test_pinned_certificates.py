"""Searched schedules are pinned: certificate digests of fixed cells.

A search's certificate digest covers its whole schedule, the initial and
final configurations and the measured rounds, so any change to a
ranking, a score, a tie-break or the rollout mechanics shows up here.
Cells are ``run_network_trial(algorithm, by_name("ring", n, seed=4),
seed=0, scenario=..., adversary=strategy)``.
"""

import pytest

from repro.harness.runner import run_network_trial
from repro.topology import by_name

PINNED = [
    ("unison", "split", 8, "greedy",
     "28fc452c34f42f29f6243ee815913714f29fb3f8c03afb2762d9127277c1646d"),
    ("unison", "split", 8, "beam",
     "9aabd15bd3a3f5e5834aef4398aa8f7543436898d0e2d5c802591d68d7d12d78"),
    ("unison", "split", 8, "beam-2x2",
     "017188da697135ac2d90fb57a987bb03ac43eaf4a90188c93d9678c06817e7b9"),
    ("unison", "split", 8, "delay",
     "59c3ad697772e7b290ff0fe6be5f31670d79126fcf74ca7f8e78dd5b340120a3"),
    ("unison", "split", 12, "greedy",
     "b6b9023ca63ee7f0e465748ac29a0059a0d714ed098f1a9d108e72e0e0c0c9b9"),
    ("unison", "split", 12, "beam",
     "3a42b7e09275a7c7684d49429e0c9ae326a031ba95121ac25d3c0a6a10dbe4b3"),
    ("unison", "split", 12, "beam-2x2",
     "dd40e69406391e0586cb3bd922c7c5e9a963e6633870b0513f731139dd308b1c"),
    ("unison", "split", 12, "delay",
     "e7efbf5413a669172b9f2327d3aafe1a139e638a57ea27f201a6de2080e7bfaf"),
    ("fga", "random", 8, "greedy",
     "3c22747d84f6b544dea0a2b9a9f380538fcc6997cab7ddb7ead38027237d9072"),
    ("fga", "random", 8, "beam",
     "f021e843de76085aaca6d0442d1e463edf3b4f093a412ea2fb31795fd20e9748"),
    ("fga", "random", 8, "beam-2x2",
     "6f2bca34dc0f8d785efdd17c2b5ed417b8f1fe1a7064b09943b2fe2106f17c46"),
    ("fga", "random", 8, "delay",
     "d3ec1e8cd5387c60519ed8bd89cd336b77b3db7d1ebb032eaace10dd971381f3"),
    ("fga", "random", 12, "beam",
     "ba2735a853dd0259018b0a9c3275a269db4c640951e6a4d04866607cc5021a9c"),
]


@pytest.mark.parametrize(
    "algorithm,scenario,n,strategy,digest", PINNED,
    ids=[f"{alg}-{scen}-n{n}-{strat}" for alg, scen, n, strat, _ in PINNED],
)
def test_certificate_digest_pinned(algorithm, scenario, n, strategy, digest):
    trial = run_network_trial(algorithm, by_name("ring", n, seed=4), seed=0,
                              scenario=scenario, adversary=strategy)
    extra = trial.extra["adversary"]
    assert extra["replay"]["ok"]
    assert extra["digest"] == digest
