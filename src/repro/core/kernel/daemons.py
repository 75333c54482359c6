"""Vectorized daemon programs for the fused kernel run loop.

The dict daemons (:mod:`repro.core.daemon`) observe the enabled map as a
``{process: rules}`` dict and return a selection dict — fine at the
boundary, but inside the fused loop both dicts are pure overhead.  Each
class here is the array twin of one scheduler: it consumes *enabled
process indices* (ascending, trial-local) and returns the *chosen*
indices, touching no Python dicts.

The twins are drop-in replacements, not approximations: every one draws
from the **same seeded** :class:`random.Random` **stream in the same
order** as its dict counterpart, so an execution driven by a twin is
step-for-step identical to one selecting through the dict daemon (the
property suite asserts equality of traces, accounting, and post-run
generator state).  Stream identity
is delivered by :class:`RandomStream`:

* :class:`MTStream` mirrors CPython's Mersenne Twister with numpy's
  ``MT19937`` bit generator seeded from ``Random.getstate()`` — the
  ``random()`` doubles (two 32-bit words via ``genrand_res53``), the
  ``getrandbits``-based ``_randbelow`` rejection loop, and Fisher–Yates
  ``shuffle`` are reproduced word for word, and ``close()`` writes the
  advanced state back into the Python ``Random``.  Coin vectors for a
  whole step then cost one ``random_raw`` call instead of one Python
  method call per enabled process.
* :class:`PyStream` is the always-correct fallback (numpy too old, or
  the mirror self-test fails): it simply calls into the wrapped
  ``Random``.

:func:`vectorize` maps a daemon instance to its twin, or ``None`` when
the daemon cannot be vectorized (scripted/adversarial daemons, a
priority-scored central daemon, ``rule_choice="random"``, or a daemon
subclass with overridden behavior) — the simulator then drives its lane
through :class:`repro.core.kernel.adapters.DaemonAdapter`, which calls
the daemon itself.
"""

from __future__ import annotations

from random import Random

import numpy as np

from ..daemon import (
    CentralDaemon,
    Daemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
)

__all__ = [
    "RandomStream",
    "MTStream",
    "PyStream",
    "open_stream",
    "VectorDaemon",
    "VectorSynchronous",
    "VectorCentral",
    "VectorDistributedRandom",
    "VectorWeaklyFair",
    "VectorLocallyCentral",
    "vectorize",
]

#: 1 / 2**53 — the genrand_res53 scale factor of CPython's random().
_RES53 = 1.0 / 9007199254740992.0


# ======================================================================
# Random streams
# ======================================================================
class RandomStream:
    """Draws from a ``Random``'s stream; vectorized where possible.

    The three operations are exactly the ones the daemon zoo performs:
    ``random_vec(k)`` (k independent coins), ``randrange(n)`` (CPython's
    ``_randbelow`` consumption), and ``shuffle(list)``.  ``close()``
    must leave the wrapped ``Random`` exactly where the dict daemon's
    execution would have left it.
    """

    def random_vec(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def randrange(self, n: int) -> int:
        raise NotImplementedError

    def shuffle(self, x: list) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class PyStream(RandomStream):
    """Fallback stream: every draw goes through the Python ``Random``."""

    __slots__ = ("rng",)

    def __init__(self, rng: Random):
        self.rng = rng

    def random_vec(self, k: int) -> np.ndarray:
        random = self.rng.random
        return np.fromiter((random() for _ in range(k)), dtype=np.float64, count=k)

    def randrange(self, n: int) -> int:
        return self.rng.randrange(n)

    def shuffle(self, x: list) -> None:
        self.rng.shuffle(x)

    def close(self) -> None:
        pass


class MTStream(RandomStream):
    """numpy mirror of a CPython ``Random``'s Mersenne Twister stream.

    ``numpy.random.Generator(MT19937).random(k)`` produces *bit-for-bit*
    the sequence ``[rng.random() for _ in range(k)]`` — both implement
    ``genrand_res53`` over the same twister — so a whole step's coins are
    one C call.  The bit generator is never pre-fetched: its position is
    always the exact number of 32-bit words the mirrored ``Random`` would
    have consumed, making ``close()`` a direct state write-back.
    """

    __slots__ = ("_rng", "_gauss", "_bg", "_gen", "_dirty")

    def __init__(self, rng: Random):
        version, internal, gauss = rng.getstate()
        if version != 3:
            raise ValueError(f"unsupported Random state version {version}")
        self._rng = rng
        self._gauss = gauss
        # Any seed: the state is overwritten next, and a fixed one skips
        # gathering OS entropy.
        self._bg = np.random.MT19937(0)
        self._bg.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(internal[:-1], dtype=np.uint32),
                "pos": internal[-1],
            },
        }
        self._gen = np.random.Generator(self._bg)
        self._dirty = False

    # ------------------------------------------------------------------
    def random_vec(self, k: int) -> np.ndarray:
        """``k`` doubles, exactly as ``[rng.random() for _ in range(k)]``."""
        self._dirty = True
        return self._gen.random(k)

    def randrange(self, n: int) -> int:
        """CPython's ``_randbelow_with_getrandbits`` word for word."""
        k = n.bit_length()
        if k > 32:  # pragma: no cover - enabled sets are far smaller
            raise OverflowError("randrange bound exceeds one MT word")
        shift = 32 - k
        self._dirty = True
        raw = self._bg.random_raw
        while True:
            r = int(raw(1)[0]) >> shift
            if r < n:
                return r

    def shuffle(self, x: list) -> None:
        """Fisher–Yates exactly as ``Random.shuffle``.

        One raw word per draw keeps the stream exact but costs a C call
        per element — scalar-heavy daemons use :class:`PyStream` instead.
        """
        randbelow = self.randrange
        for i in reversed(range(1, len(x))):
            j = randbelow(i + 1)
            x[i], x[j] = x[j], x[i]

    def close(self) -> None:
        """Write the advanced twister state back into the ``Random``."""
        if not self._dirty:
            return
        state = self._bg.state["state"]
        internal = tuple(state["key"].tolist()) + (int(state["pos"]),)
        self._rng.setstate((3, internal, self._gauss))
        self._dirty = False


_MIRROR_OK: bool | None = None


def _mirror_ok() -> bool:
    """One-time self-test that :class:`MTStream` tracks this interpreter."""
    global _MIRROR_OK
    if _MIRROR_OK is None:
        try:
            probe, ref = Random(987654321), Random(987654321)
            stream = MTStream(probe)
            ok = np.array_equal(
                stream.random_vec(8),
                np.array([ref.random() for _ in range(8)]),
            )
            ok = ok and all(stream.randrange(7) == ref.randrange(7) for _ in range(8))
            a, b = list(range(23)), list(range(23))
            stream.shuffle(a)
            ref.shuffle(b)
            ok = ok and a == b
            stream.close()
            ok = ok and probe.getstate() == ref.getstate()
            _MIRROR_OK = bool(ok)
        except Exception:
            _MIRROR_OK = False
    return _MIRROR_OK


def open_stream(rng: Random, scalar: bool = False) -> RandomStream:
    """The fastest stream whose draws provably match ``rng``'s.

    ``scalar=True`` requests a stream for scalar-heavy consumers
    (shuffles, single randranges): the Python ``Random`` itself wins
    there, so no mirror is set up.  The mirror requires a *vanilla*
    ``random.Random`` — exact type, like :func:`vectorize`'s daemon
    checks — since a subclass overriding ``random()`` (or
    ``SystemRandom``, which has no twister state at all) would make the
    mirrored stream diverge from the one the dict daemon draws;
    such generators get the always-correct :class:`PyStream`.
    """
    if not scalar and type(rng) is Random and _mirror_ok():
        return MTStream(rng)
    return PyStream(rng)


# ======================================================================
# Vector daemons
# ======================================================================
class VectorDaemon:
    """Array twin of one dict daemon: picks the activated index vector.

    ``select`` receives the enabled process indices in ascending order
    (trial-local) and returns the chosen subset, ascending, non-empty.
    The twins leave rule choice to the guard masks (``rule_choice ==
    "first"``); a daemon that picks rules itself sets :attr:`picks_rules`
    and leaves the rule index of each chosen process in :attr:`kinds`.
    """

    #: Whether ``select`` ever draws from the stream (synchronous does
    #: not, letting callers skip stream setup entirely).
    uses_rng: bool = True

    #: Whether ``select`` also picks each chosen process's rule, leaving
    #: the rule indices (aligned with the chosen vector) in ``kinds``.
    #: Only a single-lane drive honors it.
    picks_rules: bool = False
    kinds = None

    #: Whether draws are scalar-dominated (shuffles, single randranges):
    #: such daemons get a plain :class:`PyStream`, coin-vector daemons
    #: the :class:`MTStream` mirror.
    scalar_stream: bool = False

    def select(self, enabled_idx: np.ndarray, stream: RandomStream) -> np.ndarray:
        raise NotImplementedError

    # State bridging with the dict daemon instance (weakly-fair only).
    def load_state(self, daemon: Daemon) -> None:
        """Import mutable scheduling state from the dict daemon."""

    def store_state(self, daemon: Daemon) -> None:
        """Export mutable scheduling state back into the dict daemon."""

    def refresh_topology(self, csr) -> None:
        """Adopt a churn-mutated adjacency (no-op for topology-blind
        daemons).  The driver calls this after every applied churn
        occurrence with the program's patched
        :class:`~repro.core.kernel.csr.CSRAdjacency`."""


class VectorSynchronous(VectorDaemon):
    """Everybody moves; no randomness."""

    uses_rng = False

    def select(self, enabled_idx, stream):
        return enabled_idx


class VectorCentral(VectorDaemon):
    """One uniformly random enabled process per step (no priority)."""

    scalar_stream = True

    def select(self, enabled_idx, stream):
        j = stream.randrange(enabled_idx.shape[0])
        return enabled_idx[j : j + 1]


class VectorDistributedRandom(VectorDaemon):
    """Independent coin per enabled process, exactly one draw each."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        self.p = p

    def select(self, enabled_idx, stream):
        coins = stream.random_vec(enabled_idx.shape[0])
        chosen = enabled_idx[coins < self.p]
        if chosen.shape[0] == 0:
            j = stream.randrange(enabled_idx.shape[0])
            chosen = enabled_idx[j : j + 1]
        return chosen


class VectorWeaklyFair(VectorDaemon):
    """Coin daemon with bounded waiting, counters as one int column.

    The dict daemon short-circuits ``overdue or rng.random() < p`` — an
    overdue process consumes *no* coin — so the twin draws coins only
    for the non-overdue enabled processes, in ascending order.
    """

    __slots__ = ("p", "patience", "_waiting", "_mask", "_last_enabled")

    def __init__(self, p: float, patience: int, n: int):
        self.p = p
        self.patience = patience
        self._waiting = np.zeros(n, dtype=np.int64)
        self._mask = np.zeros(n, dtype=np.bool_)
        self._last_enabled: np.ndarray | None = None

    def select(self, enabled_idx, stream):
        mask, waiting = self._mask, self._waiting
        mask.fill(False)
        mask[enabled_idx] = True
        np.add(waiting, 1, out=waiting, where=mask)
        waiting[~mask] = 0
        self._last_enabled = enabled_idx

        overdue = waiting[enabled_idx] >= self.patience
        accept = overdue
        fresh = ~overdue
        count = int(fresh.sum())
        if count:
            accept = overdue.copy()
            accept[fresh] = stream.random_vec(count) < self.p
        chosen = enabled_idx[accept]
        if chosen.shape[0] == 0:
            j = stream.randrange(enabled_idx.shape[0])
            chosen = enabled_idx[j : j + 1]
        waiting[chosen] = 0
        return chosen

    def load_state(self, daemon):
        self._waiting.fill(0)
        for u, count in daemon._waiting.items():
            self._waiting[u] = count
        self._last_enabled = None

    def store_state(self, daemon):
        if self._last_enabled is not None:
            waiting = self._waiting
            daemon._waiting = {
                int(u): int(waiting[u]) for u in self._last_enabled.tolist()
            }


class VectorLocallyCentral(VectorDaemon):
    """Greedy maximal independent set over a shuffled enabled order."""

    scalar_stream = True

    __slots__ = ("_indptr", "_indices", "_blocked")

    def __init__(self, network):
        indptr, indices = network.csr()
        self._indptr = indptr
        self._indices = indices
        self._blocked = np.zeros(network.n, dtype=np.bool_)

    def select(self, enabled_idx, stream):
        order = enabled_idx.tolist()
        stream.shuffle(order)
        blocked = self._blocked
        blocked.fill(False)
        indptr, indices = self._indptr, self._indices
        chosen = []
        for u in order:
            if blocked[u]:
                continue
            chosen.append(u)
            blocked[u] = True
            blocked[indices[indptr[u] : indptr[u + 1]]] = True
        chosen.sort()
        return np.asarray(chosen, dtype=np.int64)

    def refresh_topology(self, csr) -> None:
        """Track churn: the dict twin reads ``network.neighbors`` live,
        so the snapshot must follow every topology mutation."""
        self._indptr = csr.indptr
        self._indices = csr.indices


def vectorize(daemon: Daemon, network) -> VectorDaemon | None:
    """The array twin of ``daemon``, or ``None`` when not vectorizable.

    Exact-type checks on purpose: a subclass overriding ``select`` would
    silently change scheduling, so unknown types select through the
    daemon itself rather than guessing.
    """
    if daemon.rule_choice != "first":
        return None
    kind = type(daemon)
    if kind is SynchronousDaemon:
        return VectorSynchronous()
    if kind is CentralDaemon and daemon._priority is None:
        return VectorCentral()
    if kind is DistributedRandomDaemon:
        return VectorDistributedRandom(daemon.p)
    if kind is WeaklyFairDaemon:
        return VectorWeaklyFair(daemon.p, daemon.patience, network.n)
    if kind is LocallyCentralDaemon:
        return VectorLocallyCentral(network)
    return None
