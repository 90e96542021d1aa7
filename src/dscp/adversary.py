"""Adversarial stream constructions and the online-vs-adversary game.

The adversary works over the universe {0,1}^q (element ids read as q-bit
strings, n = 2^q).  It opens with q "bit subsets": subset j holds every
element whose bit j is one.  Whatever partition structure the online
algorithm builds over those q subsets determines, per partition, a
*bottleneck* element (zeros exactly on that partition's bit positions) that
the partition can never contain.  The adversary then doles out the
bottleneck elements in a tail that is exactly scarce enough that only a few
partitions can ever be completed, while an offline rearrangement of the very
same sequence yields floor(q/2) disjoint covers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from typing import Iterator, Sequence

from .core import (
    MAX_CELLS,
    Allocation,
    Subset,
    Universe,
    count_covers,
    id_line,
    instance_lines,
)
from .offline import pairing_offline
from .online import OnlineAlgorithm, assign_all

MAX_BOUND_Q = 40
# a q=18 game peaks near 225 MiB, and memory doubles with each step of q
MAX_GAME_Q = 20

VARIANTS = ("sa", "sb")


def _norm_variant(variant: str) -> str:
    v = variant.lower()
    if v not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return v


def gen_scom(q: int) -> list[Subset]:
    """The q opening subsets: subset j = elements with bit j set.

    Each has size 2^(q-1); element 0 appears in none of them, so the opening
    sequence alone has minimum frequency zero.
    """
    if q < 0:
        raise ValueError("q must not be negative")
    if q > MAX_GAME_Q:
        raise ValueError(f"q must be at most {MAX_GAME_Q}")
    n = 1 << q
    # slices of one list: every subset shares the same int per element
    ids = list(range(n))
    return [Subset(tuple(chain.from_iterable(
        ids[lo:lo + (1 << j)] for lo in range(1 << j, n, 2 << j))))
        for j in range(q)]


def gen_theorem2(n: int, m: int, variant: int) -> list[Subset]:
    """Two arrival orders sharing a prefix that punish fmin-oblivious play.

    Both variants open with {0,1}, {0,2}, ..., {0,n-1}.  Variant 1 then
    sends copies of {0}: the only cover packs all n-1 openers into one
    partition, and the optimum is 1.  Variant 2 instead continues with the
    complements U minus {0,j} and copies of {1}: pairing each opener with
    its complement yields n-1 covers.  A deterministic strategy behaves
    identically on the shared prefix, so it concedes a ratio of n-1 on one
    of the two streams.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if n < 2:
        raise ValueError("n must be at least 2")
    # variant 2's complements take under n x n list cells, the stream m
    if n * n + m > MAX_CELLS:
        raise ValueError(f"n^2 + m = {n * n + m} exceeds {MAX_CELLS} cells")
    opening = [Subset((0, j)) for j in range(1, n)]
    if variant == 1:
        if m < n - 1:
            raise ValueError(f"m must be at least n-1 = {n - 1}")
        return opening + [Subset((0,))] * (m - (n - 1))
    if m < 2 * n - 2:
        raise ValueError(f"m must be at least 2n-2 = {2 * n - 2}")
    complements = [Subset.of(set(range(n)) - {0, j}) for j in range(1, n)]
    return opening + complements + [Subset((1,))] * (m - (2 * n - 2))


@dataclass(frozen=True)
class SplitRecord:
    """A partition too large for cross-partition pairing, halved virtually.

    ``partition`` is the algorithm's original id; ``left``/``right`` are the
    two halves of its bit positions.  The tail is generated as if the halves
    were separate partitions; the merged real partition can complete one
    extra cover, hence the +1 allowance on the online bound.
    """

    partition: int
    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class ScomAllocationView:
    """Post-split structure of an opening allocation: per class the bit
    positions it holds.  Classes are disjoint and union to {0,..,q-1}."""

    q: int
    classes: tuple[tuple[int, ...], ...]
    split: SplitRecord | None = None

    def __post_init__(self):
        if not all(self.classes):
            raise ValueError("empty class")
        if sorted(chain.from_iterable(self.classes)) != list(range(self.q)):
            raise ValueError("classes must partition the positions")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def bottlenecks(self) -> tuple[int, ...]:
        """Bottleneck element per class, in class order.

        The bottleneck of a class with positions B is the element whose
        zeros are exactly B: it avoids every subset of the class and belongs
        to every other opening subset, so the class's partition can never
        supply it."""
        full = (1 << self.q) - 1
        return tuple(full ^ sum(1 << p for p in cls) for cls in self.classes)

    def filler_runs(self) -> Iterator[tuple[int, int]]:
        """The tail's filler, its layout stated once: runs (e, copies) of
        copies of {e}, in this order.  Each non-bottleneck element gets q,
        ascending: enough for floor(q/2) offline covers, and frequency >= q.
        Bottlenecks get none; the rations hold them at exactly q."""
        mine = set(self.bottlenecks).__contains__
        return zip(filterfalse(mine, range(1 << self.q)), repeat(self.q))


def derive_structure(alloc: Allocation, q: int) -> ScomAllocationView:
    """Read the opening allocation and split an oversized partition.

    A partition holding more than ceil(q/2) positions would make
    cross-partition pairing impossible, so its positions are virtually
    halved first (two such partitions would need q+2 positions, so at most
    one is that large).  Bottlenecks are those of the post-split classes,
    distinct because the classes are disjoint and non-empty.
    """
    if len(alloc.partition_of) != q:
        raise ValueError(f"allocation covers {len(alloc.partition_of)} "
                         f"subsets, expected {q}")
    groups = alloc.groups()
    classes: list[tuple[int, ...]] = []
    split: SplitRecord | None = None
    for pid, positions in groups.items():
        d = len(positions)
        if d > (q + 1) // 2:
            left = tuple(positions[: d // 2])
            right = tuple(positions[d // 2:])
            split = SplitRecord(pid, left, right)
            classes.append(left)
            classes.append(right)
        else:
            classes.append(tuple(positions))
    return ScomAllocationView(q, tuple(classes), split)


def gen_tail(view: ScomAllocationView,
             variant: str) -> tuple[list[Subset], list[Subset]]:
    """The adversary's reply to an opening allocation: the rationed
    bottleneck subsets, then the filler laid out by ``view.filler_runs``."""
    variant = _norm_variant(variant)
    sized = list(zip(view.sizes, view.bottlenecks))
    rationed: list[Subset] = []
    if variant == "sa":
        # size-d classes get exactly d copies of their joint bottleneck set
        for d in sorted(set(view.sizes)):
            rationed += [Subset.of(b for s, b in sized if s == d)] * d
    else:
        # nested sets: the k-th subset carries bottlenecks of classes with
        # size >= k, so a size-d class sees its bottleneck d times
        for k in range(1, max(view.sizes) + 1):
            rationed.append(Subset.of(b for s, b in sized if s >= k))
    filler = []
    for e, copies in view.filler_runs():
        filler += [Subset((e,))] * copies
    return rationed, filler


def bound_sa(sizes: Sequence[int], q: int) -> int:
    """Covers the opening classes can finish against the ``sa`` tail: sum
    over class sizes d of min(d, number of classes with that size).

    Partitions opened in the tail are not counted, so this is not yet a
    bound for every online algorithm (the strict xfail
    ``test_play_game_fresh_partitions_within_bound``)."""
    _check_sizes(sizes, q)
    counts = Counter(sizes)
    return sum(min(d, k) for d, k in counts.items())


def bound_sb(sizes: Sequence[int], q: int) -> int:
    """Covers the opening classes can finish against the ``sb`` tail.

    Greedy per ascending class size d: grant A_d = min(count_d, d - granted
    so far).  The cumulative grant through size d can never exceed d because
    only the first d nested tail subsets carry a size-d class's bottleneck.
    Like ``bound_sa`` it does not count partitions opened in the tail.
    """
    _check_sizes(sizes, q)
    counts = Counter(sizes)
    granted = 0
    for d in sorted(counts):
        granted += max(0, min(counts[d], d - granted))
    return granted


def _check_sizes(sizes: Sequence[int], q: int) -> None:
    if any(d < 1 for d in sizes):
        raise ValueError("class sizes must be positive")
    if sum(sizes) != q:
        raise ValueError(f"class sizes sum to {sum(sizes)}, expected {q}")


# the structural bound of each tail variant
BOUNDS = {"sa": bound_sa, "sb": bound_sb}


def _partitions(total: int, cap: int):
    """Integer partitions of ``total`` into parts of at most ``cap``, parts
    non-increasing."""
    if total == 0:
        yield ()
        return
    for part in range(min(cap, total), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def max_bound(q: int, variant: str) -> tuple[int, tuple[int, ...]]:
    """Best opening structure for the online player: the maximum of the
    variant bound over all integer partitions of q, with a witness."""
    variant = _norm_variant(variant)
    if not 1 <= q <= MAX_BOUND_Q:
        raise ValueError(f"q must be in 1..{MAX_BOUND_Q}")
    fn = BOUNDS[variant]
    # max keeps the first maximal partition
    witness = max(_partitions(q, q), key=lambda sizes: fn(sizes, q))
    return fn(witness, q), witness


@dataclass(frozen=True)
class AdversaryTranscript:
    """Everything observed in one game: the full emitted sequence, the
    algorithm's allocation over it, and the derived structure."""

    q: int
    variant: str
    universe: Universe
    sequence: tuple[Subset, ...]
    allocation: Allocation
    view: ScomAllocationView
    sinf_start: int


@dataclass(frozen=True)
class GameResult:
    """Scores of one adversarial game.

    ``t_online`` is what the algorithm finished, ``bound`` the structural
    ceiling for its opening allocation, ``offline`` the pairing
    rearrangement's cover count, and ``ratio_lower`` their quotient (a lower
    bound on the algorithm's competitive ratio for this stream)."""

    t_online: int
    bound: int
    split: bool
    offline: int
    ratio_lower: float
    transcript: AdversaryTranscript


def play_game(algo: OnlineAlgorithm, q: int, variant: str) -> GameResult:
    """Run one full game: opening subsets, adaptive tail, scoring.

    The declared fmin is q (the true minimum frequency of the full emitted
    sequence, whatever the algorithm does).  Two laws are enforced on the
    result: the online cover count never beats the structural bound (+1 if
    a split occurred), and the pairing rearrangement always reaches
    floor(q/2) covers.  The bound counts only the opening classes, so an
    algorithm that closes partitions opened in the tail can break the first
    law (the strict xfail ``test_play_game_fresh_partitions_within_bound``).
    """
    if not 2 <= q <= MAX_GAME_Q:
        raise ValueError(f"q must be in 2..{MAX_GAME_Q}")
    variant = _norm_variant(variant)
    universe = Universe(1 << q)
    opening = gen_scom(q)
    algo.init(universe, q)
    log: list[int] = []
    assign_all(algo, opening, log)
    view = derive_structure(Allocation(tuple(log)), q)
    rationed, filler = gen_tail(view, variant)
    assign_all(algo, rationed, log)
    assign_all(algo, filler, log)
    algo.finish()
    # drop each per-arrival copy as soon as the next one exists
    alloc = Allocation(tuple(log))
    del log
    sequence = tuple(chain(opening, rationed, filler))
    del filler
    t_online = count_covers(alloc, sequence, universe)

    bound = BOUNDS[variant](view.sizes, q)
    allowance = 1 if view.split is not None else 0
    if t_online > bound + allowance:
        raise AssertionError(
            f"online produced {t_online} covers, structural bound is "
            f"{bound}+{allowance}")

    transcript = AdversaryTranscript(
        q=q, variant=variant, universe=universe, sequence=sequence,
        allocation=alloc, view=view, sinf_start=q + len(rationed))
    offline_alloc = pairing_offline(transcript)
    offline = count_covers(offline_alloc, sequence, universe)
    if offline < q // 2:
        raise AssertionError(
            f"pairing produced {offline} covers, expected >= {q // 2}")
    ratio_lower = offline / max(t_online, 1)
    return GameResult(t_online, bound, view.split is not None, offline,
                      ratio_lower, transcript)


def transcript_lines(t: AdversaryTranscript) -> Iterator[str]:
    """A transcript's text in pieces of bounded size: key-value header,
    the allocation line, then the instance body."""
    view = t.view
    split = "none"
    if view.split is not None:
        s = view.split
        split = f"{s.partition}:{_commas(s.left)}/{_commas(s.right)}"
    yield f"q {t.q}\nvariant {t.variant}\nfmin {t.q}\n"
    yield "classes " + "|".join(map(_commas, view.classes)) + "\n"
    yield from id_line("bottlenecks", view.bottlenecks, ",")
    yield f"split {split}\nsinf_start {t.sinf_start}\n"
    yield from id_line("allocation", t.allocation.partition_of)
    yield "instance\n"
    yield from instance_lines(t.universe, t.sequence, t.q)


def _commas(ids: Sequence[int]) -> str:
    return ",".join(str(i) for i in ids)
