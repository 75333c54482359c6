"""Potential functions: how "far from done" a configuration is.

The adversarial searches in :mod:`repro.adversary.search` rank candidate
moves by the *successor* configuration's potential — a scalar that is
large while the execution still owes many moves and shrinks as it
approaches a legitimate configuration.  Each potential is a vectorized
column function: it scores a ``{variable: ndarray}`` column mapping (the
kernel's read buffer or a scratch successor buffer) together with the
guard masks the caller already evaluated on it, without decoding a
:class:`~repro.core.configuration.Configuration`.

The potentials mirror the quantities the paper's proofs charge moves
against:

* :class:`EnabledMoves` — the generic "enabled moves preserved"
  heuristic: count of enabled ``(process, rule)`` pairs.  Keeping this
  large delays termination regardless of the algorithm.
* :class:`ResetDistanceMass` — SDR work in flight: broadcast/feedback
  statuses plus normalized reset distances (Corollary 4 charges up to
  ``3n+3`` moves per process to the reset waves).
* :class:`UnisonSkew` — clock disorder of the unison layer: the number
  of neighbor pairs with unequal clocks.  Theorem 6's ``O(D·n²)`` move
  bound is driven by how long clocks stay incoherent.
* :class:`FgaElectionChurn` — pending alliance elections: granted
  pointers and quit requests (Lemma 25 charges ``8δΔ+18δ+24`` moves per
  process to election churn).

:func:`default_potential` inspects a kernel program's schema and
combines the applicable terms; the searches use it when no explicit
potential is given.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..alliance.fga import CANQ, PTR
from ..core.exceptions import DaemonError
from ..reset.sdr import DIST, RB, RF, ST, STATUSES
from ..unison.unison import CLOCK

__all__ = [
    "Potential",
    "EnabledMoves",
    "ResetDistanceMass",
    "UnisonSkew",
    "FgaElectionChurn",
    "WeightedPotential",
    "default_potential",
    "make_potential",
    "POTENTIAL_KINDS",
]

Columns = Mapping[str, np.ndarray]

#: Schema codes of the SDR statuses (enum columns store the index into
#: the declared value tuple).
_RB_CODE = STATUSES.index(RB)
_RF_CODE = STATUSES.index(RF)


class Potential:
    """Scalar score of a configuration given as columns (higher = farther).

    ``score(cols, program, masks)``: ``masks`` are the guard masks of
    ``cols`` (``program.evaluate(cols)[0]``), which the search evaluated
    once per successor.
    """

    name = "potential"

    def score(self, cols: Columns, program, masks) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EnabledMoves(Potential):
    """Count of enabled ``(process, rule)`` pairs — the generic heuristic.

    A schedule that keeps many moves enabled has not spent the
    execution's capacity; preferring successors with a large enabled set
    is the algorithm-agnostic way to prolong runs.
    """

    name = "enabled"

    def score(self, cols: Columns, program, masks) -> float:
        total = 0
        for mask in masks.values():
            if mask is not None:
                total += int(np.count_nonzero(mask))
        return float(total)


class ResetDistanceMass(Potential):
    """SDR reset work in flight: statuses plus normalized distances.

    Broadcast (``RB``) processes still owe a feedback and a completion
    move, feedback (``RF``) ones a completion move; the distance term
    (normalized by ``n`` so it never outweighs a whole move) prefers
    deep reset trees, which take more rounds to collapse.
    """

    name = "reset-mass"

    def score(self, cols: Columns, program, masks) -> float:
        st = cols.get(ST)
        if st is None:
            return 0.0
        rb = st == _RB_CODE
        rf = st == _RF_CODE
        mass = 3.0 * np.count_nonzero(rb) + 2.0 * np.count_nonzero(rf)
        d = cols.get(DIST)
        if d is not None:
            active = rb | rf
            if active.any():
                n = max(int(st.shape[0]), 1)
                mass += float(np.clip(d[active], 0, n).sum()) / n
        return float(mass)


class UnisonSkew(Potential):
    """Clock disorder of the unison layer: unequal neighbor pairs.

    Counts directed edge slots whose endpoint clocks differ, halved
    (each undirected edge contributes twice).  A coherent wave has zero
    skew; the adversary prefers successors that keep clocks ragged,
    which is exactly what drives Theorem 6's ``O(D·n²)`` move bound.
    """

    name = "unison-skew"

    def score(self, cols: Columns, program, masks) -> float:
        c = cols.get(CLOCK)
        csr = getattr(program, "csr", None)
        if c is None or csr is None:
            return 0.0
        return float(np.count_nonzero(csr.pull(c) != csr.own(c))) / 2.0


class FgaElectionChurn(Potential):
    """Pending FGA alliance elections: quit requests and granted pointers."""

    name = "fga-churn"

    def score(self, cols: Columns, program, masks) -> float:
        total = 0.0
        canq = cols.get(CANQ)
        if canq is not None:
            total += 2.0 * np.count_nonzero(canq)
        ptr = cols.get(PTR)
        if ptr is not None:
            total += float(np.count_nonzero(ptr >= 0))
        return total


class WeightedPotential(Potential):
    """Weighted sum of component potentials."""

    name = "weighted"

    def __init__(self, terms: Sequence[tuple[float, Potential]]):
        self.terms = tuple(terms)

    def score(self, cols: Columns, program, masks) -> float:
        return sum(w * p.score(cols, program, masks) for w, p in self.terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{w:g}*{p.name}" for w, p in self.terms)
        return f"WeightedPotential({inner})"


def default_potential(program) -> WeightedPotential:
    """Combine the potentials applicable to ``program``'s schema.

    The enabled-moves term dominates (a lost enabled pair is a move the
    execution can never spend); the algorithm-specific terms break ties
    between successors with equally large enabled sets.
    """
    names = {var.name for var in program.schema.vars}
    terms: list[tuple[float, Potential]] = [(4.0, EnabledMoves())]
    if ST in names:
        terms.append((1.0, ResetDistanceMass()))
    if CLOCK in names:
        terms.append((1.0, UnisonSkew()))
    if CANQ in names:
        terms.append((1.0, FgaElectionChurn()))
    return WeightedPotential(terms)


_POTENTIALS = {
    "enabled": EnabledMoves,
    "reset-mass": ResetDistanceMass,
    "unison-skew": UnisonSkew,
    "fga-churn": FgaElectionChurn,
}

#: Potential names :func:`make_potential` accepts.
POTENTIAL_KINDS = tuple(sorted(_POTENTIALS))


def make_potential(name: str) -> Potential:
    """Instantiate a registered potential by name."""
    try:
        return _POTENTIALS[name]()
    except KeyError:
        raise DaemonError(
            f"unknown potential {name!r}; choose from {sorted(_POTENTIALS)}"
        ) from None
