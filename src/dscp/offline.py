"""Offline solvers and the shared recoloring engine.

Contains the exact branch-and-bound solver for small instances, the
one-pass derandomized recoloring algorithm ``polyoff``, and the pairing
construction that certifies the offline side of adversarial game
transcripts.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

import numpy as np

from .core import (
    MAX_CELLS,
    Allocation,
    Coloring,
    SubsetSequence,
    Universe,
    frequencies,
)

if TYPE_CHECKING:  # pragma: no cover
    from .adversary import AdversaryTranscript


EXACT_LIMIT = 14


class LimitExceededError(ValueError):
    """Instance too large for the exact solver."""


class TranscriptError(ValueError):
    """A game transcript is internally inconsistent."""


def default_num_colors(n: int, fmin: int) -> int:
    """Default color budget max(1, floor(fmin / ln(n ln n))).

    This is the largest budget for which the expected invalid-color count
    n*c*(1-1/c)**fmin of a uniformly random coloring stays below c/ln(n),
    so almost every color class becomes a cover.
    """
    if n < 2:
        return max(1, fmin)
    return max(1, math.floor(fmin / math.log(n * math.log(n))))


def color_budget(requested: int | None, n: int, fmin: int) -> int:
    """The requested color count, else ``default_num_colors(n, fmin)``;
    refuses a budget below 1."""
    budget = default_num_colors(n, fmin) if requested is None else requested
    if budget < 1:
        raise ValueError("need at least one color")
    return budget


class TrackerProbe:
    """Optional observer for ExpectationTracker steps.

    Records every recolor step and, every ``recompute_every`` steps,
    cross-checks the incrementally maintained expectation against a
    from-scratch recomputation.
    """

    def __init__(self, recompute_every: int = 0):
        self.recompute_every = recompute_every
        self.steps = 0
        self.checks = 0
        self.max_rel_err = 0.0
        self.max_increase = 0.0

    def after_recolor(self, tracker: "ExpectationTracker",
                      before: float, after: float) -> None:
        self.steps += 1
        self.max_increase = max(self.max_increase, after - before)
        if self.recompute_every and self.steps % self.recompute_every == 0:
            scratch = tracker.recompute()
            err = abs(after - scratch) / max(1.0, abs(after), abs(scratch))
            self.max_rel_err = max(self.max_rel_err, err)
            self.checks += 1


class ExpectationTracker:
    """Expected invalid-color count under one-vertex-at-a-time recoloring.

    Edge ``e`` has a fixed total size ``s_e`` (its vertex count, or the
    assumed count in streaming use), ``r_e`` vertices recolored so far and a
    set of colors present among them.  Vertices not yet recolored are
    treated as independently uniform over the colors, so color ``c`` is
    missing from ``e`` with probability 0 if some recolored vertex of ``e``
    has color ``c`` and (1 - 1/num_colors)**(s_e - r_e) otherwise.  The
    tracked expectation is the sum of those probabilities over all edges and
    colors; recoloring each vertex with the argmin color never increases it.
    """

    def __init__(self, num_colors: int, edge_sizes: Sequence[int],
                 probe: TrackerProbe | None = None):
        if num_colors < 1:
            raise ValueError("need at least one color")
        self.num_colors = num_colors
        # vertices of each edge not yet recolored; a copy, since it counts down
        try:
            self._left = np.array(edge_sizes, dtype=np.int64)
        except OverflowError:
            raise ValueError(
                "edge sizes must be non-negative and below 2**63") from None
        if self._left.ndim != 1 or (self._left < 0).any():
            raise ValueError("edge sizes must be non-negative")
        beta = 1.0 - 1.0 / num_colors
        # beta ** k for k = 0..max size, up to its first 0.0: every later
        # power is 0.0 too, so reads past the end are clamped to that entry
        # and the table stays small whatever the edge sizes.  beta ** k
        # drops below 2**-1075 (rounds to 0.0) once k > 745.2 / -ln(beta),
        # and -ln(beta) >= 1 / num_colors, so the first 0.0 comes before
        # 747 * num_colors; beta == 0.0 gives [1, 0].
        powers = min(int(self._left.max(initial=0)), 747 * num_colors) + 1
        if max(len(self._left) * num_colors, powers) > MAX_CELLS:
            raise ValueError(f"{num_colors} colors over {len(self._left)} "
                             f"edges need over {MAX_CELLS} tracker cells")
        pw = np.power(beta, np.arange(powers, dtype=np.float64))
        zeros = np.flatnonzero(pw == 0.0)
        self._pow = pw[:zeros[0] + 1] if zeros.size else pw
        self._present = np.zeros((len(self._left), num_colors), dtype=bool)
        self._pcount = np.zeros(len(self._left), dtype=np.int64)
        self.steps = 0
        self.probe = probe
        self._expectation = self.recompute()

    @property
    def expectation(self) -> float:
        return self._expectation

    def recompute(self) -> float:
        """Expectation from per-edge state, ignoring the running total."""
        return float(((self.num_colors - self._pcount)
                      * self._pow.take(self._left, mode="clip")).sum())

    def colors_present(self, edge: int) -> set[int]:
        return {int(c) for c in np.flatnonzero(self._present[edge])}

    def recolor(self, vertex: int, incident_edges: Sequence[int]) -> int:
        """Recolor ``vertex`` with the expectation-minimizing color, apply
        the update and return the color.  Vertices must come in index order:
        ``vertex`` is the step count.

        Ties pick the lowest color id: the color is the argmin of
        ``w @ present`` over the incident edges, with ``w`` each edge's
        weight beta ** (left - 1).  With one incident edge that is its lowest
        absent color while ``w > 0.0``, and color 0 once every color is
        present or ``w`` has underflowed to 0.0.  That case (nearly every
        arrival of a shrunk stream) and the empty one run on scalars; the
        expectation is updated by the same float operations either way.
        """
        if vertex != self.steps:
            raise ValueError(f"vertex {vertex} recolored out of order")
        before = self._expectation
        degree = len(incident_edges)
        if degree == 0:
            color = 0
        else:
            if degree == 1:
                e = incident_edges[0]
                u = self._left.item(e)
                if u < 1:
                    raise ValueError("edge recolored beyond its size")
                pw = self._pow
                top = len(pw) - 1
                w = pw.item(u - 1 if u - 1 < top else top)
                k = self._pcount.item(e)
                # argmin of w * present: the lowest absent color, which is 0
                # when k == 0; all tie at 0 when k == num_colors or w == 0.0
                color = (int(self._present[e].argmin())
                         if w > 0.0 and 0 < k < self.num_colors else 0)
                old_term = ((self.num_colors - k)
                            * pw.item(u if u < top else top))
                self._left[e] = u - 1
                if not self._present.item(e, color):
                    self._present[e, color] = True
                    k += 1
                    self._pcount[e] = k
                self._expectation = before + (
                    (self.num_colors - k) * w - old_term)
            else:
                idx = np.asarray(incident_edges, dtype=np.intp)
                u = self._left[idx]
                if (u < 1).any():
                    raise ValueError("edge recolored beyond its size")
                w = self._pow.take(u - 1, mode="clip")
                # Choosing color c changes the expectation by a
                # c-independent amount minus the total weight of incident
                # edges still missing c; minimizing it means maximizing that
                # saving, i.e. minimizing the weight of edges where c is
                # already present.
                penalty = w @ self._present[idx].astype(np.float64)
                color = int(np.argmin(penalty))
                old_terms = ((self.num_colors - self._pcount[idx])
                             * self._pow.take(u, mode="clip"))
                self._left[idx] -= 1
                newly = ~self._present[idx, color]
                self._present[idx, color] = True
                self._pcount[idx] += newly
                new_terms = (self.num_colors - self._pcount[idx]) * w
                self._expectation = before + float(
                    new_terms.sum() - old_terms.sum())
            # The argmin choice cannot increase the expectation; leave a
            # hair of slack for floating point ties.
            if self._expectation > before + 1e-12 * max(1.0, before):
                raise AssertionError(
                    f"expectation increased {before} -> {self._expectation}")
        self.steps += 1
        if self.probe is not None:
            self.probe.after_recolor(self, before, self._expectation)
        return color


def polyoff(subsets: SubsetSequence, universe: Universe,
            num_colors: int | None = None,
            probe: TrackerProbe | None = None) -> Coloring:
    """Derandomized coloring of the dual hypergraph.

    Walks the subsets in index order and colors each with the tracker's
    argmin rule; the random coloring exists only in the analysis, so the
    output is deterministic.  At least num_colors - floor(E0) colors come
    out valid, where E0 is the tracker expectation before any recoloring.
    """
    freq = frequencies(subsets, universe)
    num_colors = color_budget(num_colors, universe.n, freq.fmin)
    tracker = ExpectationTracker(num_colors, freq.counts, probe=probe)
    colors = [tracker.recolor(j, s.members) for j, s in enumerate(subsets)]
    return Coloring(tuple(colors), num_colors)


@dataclass(frozen=True)
class ExactResult:
    """Optimal cover count plus an allocation achieving it."""

    opt: int
    witness: Allocation


def exact_max_disjoint_covers(subsets: SubsetSequence,
                              universe: Universe) -> ExactResult:
    """Branch-and-bound over subset-to-group assignments.

    Subsets are placed in index order into an existing open group, a brand
    new group or a garbage pile.  A group is closed and counted the moment
    it covers the universe.  The new group's id is open groups + closed
    covers, the next unused id, which breaks group-relabeling symmetry.
    Nodes are pruned when the closed count plus min over elements of (open
    groups containing it + remaining occurrences) cannot beat the best
    known solution.  At most EXACT_LIMIT subsets and elements.
    """
    m, n = len(subsets), universe.n
    if m > EXACT_LIMIT:
        raise LimitExceededError(
            f"{m} subsets exceeds exact-solver limit {EXACT_LIMIT}")
    if n > EXACT_LIMIT:
        raise LimitExceededError(
            f"{n} elements exceeds exact-solver limit {EXACT_LIMIT}")
    if m == 0:
        return ExactResult(0, Allocation(()))

    future = list(frequencies(subsets, universe).counts)  # checks elements
    full = (1 << n) - 1
    masks = [sum(1 << i for i in s.members) for s in subsets]

    GARBAGE = -1
    assign = [GARBAGE] * m
    groups: list[list[int]] = []    # open groups as [id, union mask]
    closed = 0
    best = 0
    best_assign = assign.copy()

    def dfs(j: int) -> None:
        nonlocal closed, best, best_assign
        if j == m:
            if closed > best:
                best = closed
                best_assign = assign.copy()
            return
        for i in range(n):
            avail = future[i]
            for _, gm in groups:
                avail += gm >> i & 1
            if closed + avail <= best:
                return
        s = masks[j]
        for i in subsets[j].members:
            future[i] -= 1
        # existing groups; identical unions are interchangeable, try one
        tried: set[int] = set()
        for slot, group in enumerate(groups):
            gid, gm = group
            if gm in tried:
                continue
            tried.add(gm)
            assign[j] = gid
            if gm | s == full:
                closed += 1
                del groups[slot]
                dfs(j + 1)
                groups.insert(slot, group)
                closed -= 1
            else:
                group[1] = gm | s
                dfs(j + 1)
                group[1] = gm
        # new group
        assign[j] = len(groups) + closed
        if s == full:
            closed += 1
            dfs(j + 1)
            closed -= 1
        else:
            groups.append([assign[j], s])
            dfs(j + 1)
            groups.pop()
        # garbage
        assign[j] = GARBAGE
        dfs(j + 1)
        for i in subsets[j].members:
            future[i] += 1

    dfs(0)

    spare = max((g for g in best_assign if g != GARBAGE), default=-1) + 1
    final = tuple(spare if g == GARBAGE else g for g in best_assign)
    return ExactResult(best, Allocation(final))


def pairing_offline(transcript: "AdversaryTranscript") -> Allocation:
    """Build floor(q/2) disjoint covers from a game transcript.

    Each pair takes the first remaining opening subset of each of the two
    largest remaining partition classes, a tie going to the class whose
    first remaining position is lower.  Any two opening subsets from
    different classes jointly contain every bottleneck element, and the rest
    of the universe is filled with tail singletons.  Everything left over
    joins the first pair's partition, so the result has exactly floor(q/2)
    partitions, each a cover by construction (``play_game`` recounts them).

    From ``sinf_start`` on, the tail must hold the filler laid out by
    ``transcript.view.filler_runs``.  A position that does not hold the
    singleton this layout expects raises ``TranscriptError``.
    """
    q = transcript.q
    n = transcript.universe.n
    seq = transcript.sequence
    live = [list(c) for c in transcript.view.classes]
    pairs: list[tuple[int, int]] = []
    while len(pairs) < q // 2:
        live = sorted((c for c in live if c), key=lambda c: (-len(c), c[0]))
        if len(live) < 2:
            raise TranscriptError(
                f"only {len(pairs)} cross-class pairs for q={q}")
        pairs.append((live[0].pop(0), live[1].pop(0)))

    pos = transcript.sinf_start
    # one past the position of each element's last filler copy
    ends = array("q", [pos]) * n
    for e, copies in transcript.view.filler_runs():
        ends[e] = pos = pos + copies
    used = bytearray(n)
    # at most q // 2 <= 10 ids, so a byte each
    partition_of = bytearray(len(seq))
    for pid, (x, y) in enumerate(pairs):
        partition_of[x] = pid
        partition_of[y] = pid
        # the elements with bits x and y clear, ascending: invisible to both
        # openers, so each needs a singleton
        free = (n - 1) & ~(1 << x | 1 << y)
        skip = ~free
        e = 0
        while True:
            # the k-th pair that needs e takes its k-th copy from the back;
            # a cross-class pair never needs a bottleneck, which has none
            k = used[e]
            used[e] = k + 1
            j = ends[e] - 1 - k
            if j >= len(seq) or seq[j].members != (e,):
                raise TranscriptError(
                    f"ran out of {{{e}}} singletons while pairing")
            partition_of[j] = pid
            e = ((e | skip) + 1) & free
            if not e:
                break
    return Allocation(tuple(partition_of))
