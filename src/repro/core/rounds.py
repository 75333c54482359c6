"""Round accounting via the neutralization definition (paper, Section 2.4).

A process ``v`` is *neutralized* during a step ``γi ↦ γi+1`` if ``v`` is
enabled in ``γi``, not enabled in ``γi+1``, and not activated in that step.
The first round of an execution is the minimal prefix in which every process
enabled in the first configuration either executes a rule or is neutralized;
subsequent rounds are defined inductively on the remaining suffix.

:class:`RoundCounter` implements this definition *exactly*: it tracks the
set of processes that still owe a move-or-neutralization for the current
round and closes the round the moment that set empties.
:class:`ArrayRoundCounter` is its vectorized twin for the fused kernel
loop: the owing set becomes a per-process boolean column updated with a
handful of numpy operations per step, and the two interconvert losslessly
so a simulator's counter carries across array drives without disturbing
the count.
"""

from __future__ import annotations

from typing import Iterable

try:  # ArrayRoundCounter only; the set-based counter stays numpy-free.
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    np = None  # type: ignore[assignment]

__all__ = ["RoundCounter", "ArrayRoundCounter"]


class RoundCounter:
    """Incremental, definition-faithful round counter.

    Usage: call :meth:`start` with the processes enabled in ``γ0``; after
    every step, call :meth:`observe_step` with the activated set and the
    enabled sets before/after the step.  :attr:`completed` is the number of
    full rounds elapsed so far.
    """

    def __init__(self):
        self.completed = 0
        self._pending: set[int] = set()
        self._started = False

    def start(self, enabled_now: Iterable[int]) -> None:
        """Begin counting with the first configuration's enabled set."""
        self._pending = set(enabled_now)
        self._started = True
        self.completed = 0

    @property
    def pending(self) -> frozenset[int]:
        """Processes still owing a move/neutralization in the current round."""
        return frozenset(self._pending)

    def observe_step(
        self,
        activated: Iterable[int],
        enabled_before: Iterable[int],
        enabled_after: Iterable[int],
    ) -> int:
        """Account one step; returns the number of rounds completed by it.

        A pending process is resolved when it is activated, or when it flips
        from enabled to disabled without being activated (neutralization).
        When the pending set empties, the round ends *at this step's
        post-configuration* and the next round's pending set is exactly the
        processes enabled there.
        """
        if not self._started:
            raise RuntimeError("RoundCounter.start() was not called")
        if not self._pending:
            # γ0 was terminal, or counting resumed at a terminal suffix.
            return 0

        # Reuse caller-provided snapshots: the simulator already holds the
        # activated selection (a dict) and frozen enabled sets, so only wrap
        # plain iterables — no throwaway copies on the hot path.
        if not isinstance(activated, (set, frozenset, dict)):
            activated = frozenset(activated)
        if not isinstance(enabled_before, (set, frozenset)):
            enabled_before = frozenset(enabled_before)
        if not isinstance(enabled_after, (set, frozenset)):
            enabled_after = frozenset(enabled_after)

        resolved = {
            v
            for v in self._pending
            if v in activated or (v in enabled_before and v not in enabled_after)
        }
        self._pending -= resolved

        if self._pending:
            return 0
        # Round boundary: the suffix starts at the post-step configuration.
        self.completed += 1
        self._pending = set(enabled_after)
        return 1

    def resume(self, completed: int, pending: Iterable[int]) -> None:
        """Restore counter state (used when leaving the fused kernel loop)."""
        self.completed = completed
        self._pending = set(pending)
        self._started = True

    def rebase(self, enabled_now: Iterable[int]) -> int:
        """Re-anchor the pending set after an in-place configuration change.

        Fault injection rewrites the configuration *between* steps: no
        process moves, but guards flip arbitrarily.  Pending processes the
        fault disabled are neutralized (resolved); faults add no new
        debt to the current round.  If that resolves the whole pending
        set, the round closes at the injected configuration and the next
        round starts from its enabled set — mirroring
        :meth:`observe_step`'s boundary rule.  Returns rounds completed.
        """
        if not self._started:
            raise RuntimeError("RoundCounter.start() was not called")
        enabled_now = set(enabled_now)
        if not self._pending:
            # Terminal suffix (or fresh boundary) woken by the fault: a new
            # round starts at the injected configuration, nothing completes.
            self._pending = enabled_now
            return 0
        self._pending &= enabled_now
        if self._pending:
            return 0
        self.completed += 1
        self._pending = enabled_now
        return 1


class ArrayRoundCounter:
    """:class:`RoundCounter` over per-process boolean columns, per block.

    Semantics are identical — the pending *set* becomes a pending *mask*
    (the enabled-since-round-start bitmap) and one step's resolution is
    four boolean array operations instead of a set comprehension.  The
    columns may hold several independent executions side by side (the
    batched driver's trials, ``blocks`` blocks of ``n`` processes each):
    every block counts its own rounds in ``completed[block]``, and one
    step's resolution still costs four array operations for all of them.
    Conversions to and from :class:`RoundCounter` (single block) bridge
    a simulator's counter and its array drives.
    """

    __slots__ = ("completed", "_pending", "_scratch", "_open", "_starts",
                 "_n", "_single", "started")

    def __init__(self, n: int, blocks: int = 1):
        #: Completed rounds per block.
        self.completed = [0] * blocks
        self._pending = np.zeros(n * blocks, dtype=np.bool_)
        self._scratch = np.empty(n * blocks, dtype=np.bool_)
        #: Per block: whether a round is open (something is pending).
        self._open = np.zeros(blocks, dtype=np.bool_)
        self._starts = np.arange(0, n * blocks, n, dtype=np.int64)
        self._n = n
        self._single = blocks == 1
        self.started = False

    # ------------------------------------------------------------------
    @classmethod
    def from_counter(cls, counter: RoundCounter, n: int) -> "ArrayRoundCounter":
        """Seed from a set-based counter (mid-execution states included)."""
        arc = cls(n)
        arc.completed[0] = counter.completed
        pending = list(counter.pending)
        arc._pending[pending] = True
        arc.started = counter._started
        arc._open[0] = bool(pending)
        return arc

    def into_counter(self, counter: RoundCounter) -> None:
        """Write this (single-block) counter's state back into ``counter``."""
        counter.resume(self.completed[0], np.flatnonzero(self._pending).tolist())

    # ------------------------------------------------------------------
    def start(self, enabled_mask) -> None:
        self._pending[:] = enabled_mask
        self._open[:] = np.logical_or.reduceat(enabled_mask, self._starts)
        self.started = True
        self.completed = [0] * len(self.completed)

    def observe_step(self, activated_idx, enabled_before, enabled_after) -> None:
        """Account one step; masks are per-process booleans.

        ``activated_idx`` is the index vector of activated processes;
        ``enabled_before``/``enabled_after`` the enabled masks around the
        step.  Mirrors :meth:`RoundCounter.observe_step` exactly, block
        by block; a block that did not step has equal masks and no
        activations, so its pending set is untouched.
        """
        pending, scratch = self._pending, self._scratch
        # pending &= ~(activated ∪ (enabled_before ∖ enabled_after))
        pending[activated_idx] = False
        np.logical_not(enabled_after, out=scratch)
        scratch &= enabled_before
        np.logical_not(scratch, out=scratch)
        pending &= scratch
        if self._single:
            if not pending.any() and self._open[0]:
                self._close(0, enabled_after)
            return
        owing = np.logical_or.reduceat(pending, self._starts)
        for block in np.flatnonzero(self._open & ~owing).tolist():
            self._close(block, enabled_after)

    def rebase(self, enabled_now, block: int = 0) -> None:
        """Vectorized twin of :meth:`RoundCounter.rebase` for one block."""
        lo = block * self._n
        pending = self._pending[lo : lo + self._n]
        enabled_now = enabled_now[lo : lo + self._n]
        if self._open[block]:
            pending &= enabled_now
            if pending.any():
                return
            self.completed[block] += 1
        pending[:] = enabled_now
        self._open[block] = enabled_now.any()

    def _close(self, block: int, enabled_now) -> None:
        """The block's pending set emptied: a round completes."""
        self.completed[block] += 1
        lo = block * self._n
        block_now = enabled_now[lo : lo + self._n]
        self._pending[lo : lo + self._n] = block_now
        self._open[block] = block_now.any()

    def truncate(self, blocks: int) -> None:
        """Keep only the leading ``blocks`` blocks in the working columns
        (their counts survive; the dropped blocks' counts are final)."""
        size = blocks * self._n
        self._pending = self._pending[:size]
        self._scratch = self._scratch[:size]
        self._open = self._open[:blocks]
        self._starts = self._starts[:blocks]
        self._single = blocks == 1
