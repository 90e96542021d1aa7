"""Online allocation algorithms.

Every arriving subset must be routed to a partition immediately and
irrevocably.  Algorithms are told the universe and the minimum element
frequency ``fmin`` of the full stream up front (knowing ``fmin`` in advance
is what separates the competitive strategies from the doomed ones), but see
the subsets only one at a time.
"""

from __future__ import annotations

import operator
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .core import (
    Allocation,
    ShrinkState,
    Subset,
    SubsetSequence,
    Universe,
    count_covers,
    frequencies,
)
from .offline import (
    ExpectationTracker,
    TrackerProbe,
    color_budget,
)


class OnlineAlgorithm(ABC):
    """Contract: ``init`` once per stream, then one ``assign`` per subset.

    ``assign`` returns a non-negative partition id; returning an id never
    used before opens a fresh partition.  ``finish`` is called after the
    last subset (only the external-process adapter needs it).
    """

    @abstractmethod
    def init(self, universe: Universe, fmin: int) -> None: ...

    @abstractmethod
    def assign(self, subset: Subset) -> int: ...

    def finish(self) -> None:
        pass


class GreedyCover(OnlineAlgorithm):
    """Fill one partition until it covers the universe, then move on.

    Guarantees one cover whenever the whole stream is a cover, and that is
    all it can promise: it never risks an incomplete partition."""

    def init(self, universe: Universe, fmin: int) -> None:
        self._n = universe.n
        self._current = 0
        self._covered: set[int] = set()

    def assign(self, subset: Subset) -> int:
        pid = self._current
        self._covered.update(subset.members)
        if len(self._covered) == self._n:
            self._current += 1
            self._covered = set()
        return pid


class RandColour(OnlineAlgorithm):
    """Assign each subset a uniformly random partition out of a fixed
    budget.  The budget defaults to max(1, floor(fmin / ln(n ln n)))."""

    def __init__(self, seed: int = 0, num_colors: int | None = None):
        self.seed = seed
        self._requested = num_colors
        self.num_colors = 0

    def init(self, universe: Universe, fmin: int) -> None:
        self.num_colors = color_budget(self._requested, universe.n, fmin)
        self._rng = random.Random(self.seed)

    def assign(self, subset: Subset) -> int:
        return self._rng.randrange(self.num_colors)


class PolyOn(OnlineAlgorithm):
    """Deterministic streaming recoloring.

    Each arriving subset is first shrunk (elements past their fmin-th
    occurrence are ignored), then treated as a fresh vertex of the dual
    hypergraph and colored with the argmin rule of the expectation tracker.
    Every element edge is assumed to end up with exactly fmin vertices, so
    the unseen remainder of edge i counts fmin minus the shrunk occurrences
    so far.  The color is the partition id.  When the stream really does
    contain every element at least fmin times, the number of covers is at
    least num_colors - floor(n * num_colors * (1-1/num_colors)**fmin).
    """

    def __init__(self, num_colors: int | None = None,
                 probe: TrackerProbe | None = None):
        self._requested = num_colors
        self.probe = probe
        self.num_colors = 0
        self.tracker: ExpectationTracker | None = None

    def init(self, universe: Universe, fmin: int) -> None:
        self.num_colors = color_budget(self._requested, universe.n, fmin)
        self.tracker = ExpectationTracker(
            self.num_colors, [fmin] * universe.n, probe=self.probe)
        self._shrink = ShrinkState(fmin)

    def assign(self, subset: Subset) -> int:
        shrunk = self._shrink.push(subset)
        return self.tracker.recolor(self.tracker.steps, shrunk.members)


@dataclass(frozen=True)
class OnlineRunResult:
    """Outcome of streaming one sequence through one algorithm."""

    allocation: Allocation
    covers: int
    underfull: tuple[int, ...] = ()


def assign_all(algo: OnlineAlgorithm, subsets: SubsetSequence,
               log: list[int]) -> None:
    """The driver loop: feed ``subsets`` to ``algo`` in order and append
    each returned id to ``log`` once it is an integer (negative ids fail
    later, in ``Allocation``)."""
    for s in subsets:
        pid = algo.assign(s)
        try:
            pid = operator.index(pid)
        except TypeError:
            raise ValueError(f"algorithm returned non-integer id {pid!r}")
        log.append(pid)


def run_online(algo: OnlineAlgorithm, subsets: SubsetSequence,
               universe: Universe, fmin: int, *,
               audit: bool = True) -> OnlineRunResult:
    """Drive an online algorithm over a full sequence.

    With ``audit`` on, elements whose true frequency came in under the
    declared ``fmin`` are reported in ``underfull``; the cover count is
    reported as-is either way.
    """
    algo.init(universe, fmin)
    log: list[int] = []
    assign_all(algo, subsets, log)
    algo.finish()
    alloc = Allocation(tuple(log))
    covers = count_covers(alloc, subsets, universe)
    underfull: tuple[int, ...] = ()
    if audit:
        freq = frequencies(subsets, universe)
        underfull = tuple(
            i for i, c in enumerate(freq.counts) if c < fmin)
    return OnlineRunResult(alloc, covers, underfull)
