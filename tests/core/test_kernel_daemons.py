"""Vectorized daemons and RNG streams: exact twins of the dict zoo.

The fused kernel loop replaces the dict daemons with array
implementations that must consume the *same* seeded ``Random`` stream in
the *same* order — otherwise traces silently diverge between the fused
and step-by-step drivers.  These tests pin that contract directly, below
the simulator: same selections, same post-call generator state, for
thousands of randomized enabled sets.
"""

from random import Random

import numpy as np
import pytest

from repro.adversary import AdversarialDaemon
from repro.core.daemon import (
    CentralDaemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    ScriptedDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
    make_daemon,
)
from repro.core.kernel.daemons import (
    MTStream,
    PyStream,
    open_stream,
    vectorize,
)
from repro.topology import grid, ring, random_connected

KINDS = (
    "synchronous",
    "central",
    "distributed-random",
    "weakly-fair",
    "locally-central",
)


class TestStreams:
    def test_mtstream_mirrors_random_doubles(self):
        probe, ref = Random(2024), Random(2024)
        stream = MTStream(probe)
        drawn = np.concatenate([stream.random_vec(k) for k in (1, 7, 64, 3)])
        expected = np.array([ref.random() for _ in range(75)])
        assert np.array_equal(drawn, expected)

    def test_mtstream_mirrors_randrange(self):
        probe, ref = Random(99), Random(99)
        stream = MTStream(probe)
        for bound in (1, 2, 3, 7, 100, 2**20):
            assert stream.randrange(bound) == ref.randrange(bound)

    def test_mtstream_mirrors_shuffle(self):
        probe, ref = Random(5), Random(5)
        stream = MTStream(probe)
        mine, theirs = list(range(41)), list(range(41))
        stream.shuffle(mine)
        ref.shuffle(theirs)
        assert mine == theirs

    def test_mtstream_close_syncs_state(self):
        probe, ref = Random(31337), Random(31337)
        stream = MTStream(probe)
        stream.random_vec(13)
        stream.randrange(5)
        stream.close()
        for _ in range(13):
            ref.random()
        ref.randrange(5)
        assert probe.getstate() == ref.getstate()
        # ... and the two Randoms continue identically.
        assert [probe.random() for _ in range(5)] == [ref.random() for _ in range(5)]

    def test_kernel_drive_leaves_the_dict_engines_random_state(self):
        """After a fused distributed-random run, the trial's ``Random``
        is exactly where the dict engine leaves it."""
        from repro.core.simulator import Simulator
        from repro.reset.sdr import SDR
        from repro.unison.unison import Unison

        net = random_connected(14, seed=6)
        states = {}
        for backend in ("kernel", "dict"):
            algo = SDR(Unison(net))
            sim = Simulator(
                algo, make_daemon("distributed-random", net),
                config=algo.random_configuration(Random(4)), seed=9,
                backend=backend,
            )
            sim.run(max_steps=400)
            assert sim.step_count == 400
            states[backend] = sim.rng.getstate()
        assert states["kernel"] == states["dict"]

    def test_pystream_draws_through_the_random(self):
        probe, ref = Random(8), Random(8)
        stream = PyStream(probe)
        assert np.array_equal(
            stream.random_vec(9), np.array([ref.random() for _ in range(9)])
        )
        assert stream.randrange(7) == ref.randrange(7)
        assert probe.getstate() == ref.getstate()

    def test_open_stream_scalar_preference(self):
        assert isinstance(open_stream(Random(0), scalar=True), PyStream)

    def test_open_stream_requires_vanilla_random(self):
        """SystemRandom has no twister state and a subclass may override
        random(): both must get the always-correct PyStream, exactly like
        vectorize() refuses daemon subclasses."""
        from random import SystemRandom

        class StubRandom(Random):
            def random(self):
                return 0.5

        assert isinstance(open_stream(SystemRandom()), PyStream)
        stub_stream = open_stream(StubRandom(0))
        assert isinstance(stub_stream, PyStream)
        assert stub_stream.random_vec(3).tolist() == [0.5, 0.5, 0.5]
        assert isinstance(open_stream(Random(0)), MTStream)


class TestVectorize:
    def test_standard_kinds_have_twins(self):
        net = ring(8)
        for kind in KINDS:
            assert vectorize(make_daemon(kind, net), net) is not None

    def test_unvectorizable_daemons(self):
        net = ring(8)
        assert vectorize(ScriptedDaemon([{0: "r"}]), net) is None
        assert vectorize(AdversarialDaemon(lambda *a: 0.0), net) is None
        assert vectorize(CentralDaemon(priority=lambda *a: 0.0), net) is None
        random_rules = DistributedRandomDaemon(0.5)
        random_rules.rule_choice = "random"
        assert vectorize(random_rules, net) is None

    def test_daemon_subclasses_are_refused(self):
        class Custom(SynchronousDaemon):
            def select(self, cfg, enabled, rng, step):  # pragma: no cover
                return super().select(cfg, enabled, rng, step)

        assert vectorize(Custom(), ring(8)) is None


class TestSelectionEquality:
    """Twin selections equal dict selections, stream state included."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selection_and_stream_equal(self, kind, seed):
        net = random_connected(14, p=0.3, seed=seed + 1)
        dict_daemon = make_daemon(kind, net)
        twin = vectorize(make_daemon(kind, net), net)
        twin.load_state(dict_daemon)
        rng_dict, rng_vec = Random(seed), Random(seed)
        driver = Random(1000 + seed)

        for step in range(60):
            count = driver.randrange(1, net.n + 1)
            procs = sorted(driver.sample(range(net.n), count))
            enabled = {u: ("rule",) for u in procs}
            selection = dict_daemon.select(None, enabled, rng_dict, step)
            stream = open_stream(rng_vec, scalar=twin.scalar_stream)
            chosen = twin.select(np.asarray(procs, dtype=np.int64), stream)
            stream.close()
            assert sorted(selection) == chosen.tolist(), (kind, seed, step)
            assert rng_dict.getstate() == rng_vec.getstate(), (kind, seed, step)

    def test_weakly_fair_state_bridges(self):
        net = grid(3, 3)
        dict_daemon = WeaklyFairDaemon(p=0.3, patience=3)
        dict_daemon._waiting = {0: 2, 4: 1}
        twin = vectorize(WeaklyFairDaemon(p=0.3, patience=3), net)
        twin.load_state(dict_daemon)
        rng = Random(0)
        stream = open_stream(rng)
        twin.select(np.array([0, 4, 7]), stream)
        stream.close()
        twin.store_state(dict_daemon)
        assert set(dict_daemon._waiting) == {0, 4, 7}


class TestLocallyCentralIndependence:
    def test_chosen_set_is_independent_and_maximal(self):
        net = grid(4, 4)
        twin = vectorize(LocallyCentralDaemon(net), net)
        enabled = np.arange(net.n, dtype=np.int64)
        stream = open_stream(Random(3), scalar=True)
        chosen = twin.select(enabled, stream)
        chosen_set = set(chosen.tolist())
        for u in chosen_set:
            assert not chosen_set & set(net.neighbors(u))
        for u in range(net.n):  # maximality
            assert u in chosen_set or chosen_set & set(net.neighbors(u))
