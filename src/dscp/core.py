"""Domain types and base operations for disjoint set cover instances.

An instance is a universe of integer elements ``{0, .., n-1}`` together with
an ordered sequence of subsets.  The order matters: online algorithms see the
subsets one at a time and the same subsets in a different order are a
different instance.  A solution partitions the sequence (by index, not by
value) so that as many partitions as possible cover the whole universe.

The dual view used by the coloring algorithms swaps roles: one vertex per
subset, one hyperedge per element, where edge ``i`` connects the indices of
the subsets containing element ``i``.  Coloring vertices with ``c`` colors so
that every edge sees every color is the same thing as splitting the sequence
into ``c`` disjoint set covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Iterable, Iterator, Sequence


# the most cells a dense per-element table (the tracker's n x colors, the
# parser's n) or a generated stream may take before a run is refused
MAX_CELLS = 1 << 24


class MalformedInstanceError(ValueError):
    """An instance references elements outside its universe or cannot be
    parsed from text."""


@dataclass(frozen=True)
class Universe:
    """The element set {0, ..., n-1}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe needs at least one element")


@dataclass(frozen=True, slots=True)
class Subset:
    """An immutable subset of the universe.

    ``members`` is sorted and duplicate free; build from arbitrary iterables
    with :meth:`Subset.of`.
    """

    members: tuple[int, ...] = ()

    @classmethod
    def of(cls, ids: Iterable[int]) -> "Subset":
        return cls(tuple(sorted(set(ids))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


_EMPTY = Subset()

# An instance's subsets in arrival order.  Concatenation of sequences is
# plain list concatenation.
SubsetSequence = Sequence[Subset]


@dataclass(frozen=True)
class Instance:
    """A parsed instance: universe, arrival-ordered subsets and, optionally,
    the minimum element frequency declared in the source file."""

    universe: Universe
    subsets: tuple[Subset, ...]
    fmin: int | None = None


@dataclass(frozen=True)
class FrequencyTable:
    """Per-element occurrence counts over a subset sequence."""

    counts: tuple[int, ...]

    @property
    def fmin(self) -> int:
        return min(self.counts)


@dataclass(frozen=True)
class Allocation:
    """Partition ids per subset index.  Ids are arbitrary non-negative ints;
    gaps are fine (unused ids simply name empty partitions)."""

    partition_of: tuple[int, ...] = ()

    def __post_init__(self):
        if min(self.partition_of, default=0) < 0:
            pid = next(p for p in self.partition_of if p < 0)
            raise ValueError(f"negative partition id {pid}")

    def groups(self) -> dict[int, list[int]]:
        """Map partition id -> subset indices, ids ascending."""
        out: dict[int, list[int]] = {}
        for j, pid in enumerate(self.partition_of):
            out.setdefault(pid, []).append(j)
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class HypergraphView:
    """Dual hypergraph of an instance: vertex j = subset j, edge i = indices
    of the subsets containing element i.  Edge lists are sorted ascending,
    so ``len(edges[i])`` equals the frequency of element i."""

    vertex_count: int
    edges: tuple[tuple[int, ...], ...]

    def edge_sizes(self) -> tuple[int, ...]:
        return tuple(len(e) for e in self.edges)


@dataclass(frozen=True)
class Coloring:
    """A color per vertex, colors drawn from {0, .., num_colors-1}."""

    color_of: tuple[int, ...]
    num_colors: int

    def __post_init__(self):
        if self.num_colors < 1:
            raise ValueError("need at least one color")
        for c in self.color_of:
            if not 0 <= c < self.num_colors:
                raise ValueError(f"color {c} out of range")


def frequencies(subsets: SubsetSequence, universe: Universe) -> FrequencyTable:
    """Count how often each element occurs across the sequence."""
    counts = [0] * universe.n
    for s in subsets:
        for i in s:
            if not 0 <= i < universe.n:
                raise MalformedInstanceError(
                    f"element {i} outside universe of size {universe.n}")
            counts[i] += 1
    return FrequencyTable(tuple(counts))


def is_set_cover(subsets: Iterable[Subset], universe: Universe) -> bool:
    """True iff the union of the given subsets is the whole universe."""
    seen: set[int] = set()
    for s in subsets:
        seen.update(s.members)
    if seen and (min(seen) < 0 or max(seen) >= universe.n):
        raise MalformedInstanceError("subset element outside universe")
    return len(seen) == universe.n


def count_covers(alloc: Allocation, subsets: SubsetSequence,
                 universe: Universe) -> int:
    """Number of partitions of ``alloc`` whose union covers the universe."""
    if len(alloc.partition_of) != len(subsets):
        raise ValueError("allocation and sequence length differ")
    n = universe.n
    ids = alloc.partition_of
    # a flag byte per element and partition while the flags fit in 64 bytes
    # per subset; past that (fresh ids over a large universe) a dict each
    room = 64 * len(ids) // n
    seen: dict[int, bytearray | dict[int, int]] = {}
    last = prev = None
    try:
        # allocations come in runs of one id: look up its flags once per run,
        # and skip a subset object the run has just flagged
        for pid, s in zip(ids, subsets):
            if pid != last:
                got = seen.get(pid)
                if got is None:
                    got = seen[pid] = bytearray(n) if len(seen) < room else {}
                last = pid
            elif s is prev:
                continue
            prev = s
            for i in s.members:
                if i < 0:  # a bytearray index would wrap around
                    raise IndexError
                got[i] = 1
        covers = 0
        for f in seen.values():
            if type(f) is dict and max(f, default=0) >= n:
                raise IndexError
            covers += 0 not in f if type(f) is bytearray else len(f) == n
    except IndexError:
        raise MalformedInstanceError(
            "subset element outside universe") from None
    return covers


def build_hypergraph(subsets: SubsetSequence,
                     universe: Universe) -> HypergraphView:
    """Build the dual hypergraph (vertex per subset, edge per element)."""
    edges: list[list[int]] = [[] for _ in range(universe.n)]
    for j, s in enumerate(subsets):
        for i in s:
            if not 0 <= i < universe.n:
                raise MalformedInstanceError(
                    f"element {i} outside universe of size {universe.n}")
            edges[i].append(j)
    return HypergraphView(len(subsets), tuple(tuple(e) for e in edges))


class ShrinkState:
    """Streaming occurrence cap: an element is kept while it has been seen
    fewer than ``limit`` times, and dropped from every occurrence after the
    limit-th one.  Decisions depend only on the prefix seen so far."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self.limit = limit
        self._seen: dict[int, int] = {}

    def push(self, subset: Subset) -> Subset:
        """The kept part of ``subset``; ``subset`` itself when nothing is
        dropped (subsets are immutable, so sharing is safe)."""
        kept = []
        seen = self._seen
        limit = self.limit
        for i in subset.members:
            c = seen.get(i, 0)
            if c < limit:
                kept.append(i)
            seen[i] = c + 1
        if len(kept) == len(subset.members):
            return subset
        return Subset(tuple(kept)) if kept else _EMPTY


def shrink_stream(subsets: SubsetSequence, fmin: int) -> list[Subset]:
    """Cap every element at its first ``fmin`` occurrences.

    The result has the same length as the input (subsets may come out empty)
    and every element that occurred at least ``fmin`` times occurs exactly
    ``fmin`` times afterwards.
    """
    if fmin < 1:
        raise ValueError("fmin must be at least 1")
    state = ShrinkState(fmin)
    return [state.push(s) for s in subsets]


def validate_polychromatic(h: HypergraphView,
                           coloring: Coloring) -> tuple[int, set[int]]:
    """Count invalid colors: a color is invalid iff some edge contains no
    vertex of that color.  Returns (count, set of invalid colors)."""
    if len(coloring.color_of) != h.vertex_count:
        raise ValueError("coloring length differs from vertex count")
    all_colors = frozenset(range(coloring.num_colors))
    invalid: set[int] = set()
    color_of = coloring.color_of
    for edge in h.edges:
        present = {color_of[v] for v in edge}
        if len(present) < coloring.num_colors:
            invalid.update(all_colors - present)
            if len(invalid) == coloring.num_colors:
                break
    return len(invalid), invalid


# ---------------------------------------------------------------------------
# Instance text format.
#
#   n <N>          header, required first
#   fmin <K>       optional declared minimum frequency
#   <id> <id> ...  one line per subset, arrival order; a blank line is an
#                  empty subset; lines starting with '#' are comments
# ---------------------------------------------------------------------------

# body lines per block; a block's text and rows are all the parser holds
_BLOCK_LINES = 256
# the characters of a block that json may read: translate deletes them all
_BLOCK_CHARS = dict.fromkeys(map(ord, "0123456789 -\n"))


def parse_instance(source: str | Iterable[str]) -> Instance:
    """Parse the line-oriented instance format from a string or from an
    open text file, read line by line; either way lines break where
    ``str.splitlines`` breaks them.  Raises MalformedInstanceError on any
    structural problem."""
    chunks = (source,) if isinstance(source, str) else source
    lines = enumerate((raw.strip() for chunk in chunks
                       for raw in chunk.splitlines()), start=1)
    rows = ((k, line) for k, line in lines if not line.startswith("#"))
    lineno, line = next(rows, (0, None))
    if line is None:
        raise MalformedInstanceError("missing 'n <N>' header")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        got = f", got {line!r}" if line else ""
        raise MalformedInstanceError(
            f"line {lineno}: expected 'n <N>' header{got}")
    n = _parse_int(parts[1], lineno)
    if n < 1:
        raise MalformedInstanceError(f"line {lineno}: n must be >= 1")
    if n > MAX_CELLS:  # before anything is sized by n
        raise MalformedInstanceError(
            f"line {lineno}: n must be at most {MAX_CELLS}")
    fmin: int | None = None
    subsets: list[Subset] = []
    for lineno, line in rows:  # the optional fmin line, else a subset
        if line.startswith("fmin"):
            parts = line.split()
            if len(parts) != 2 or parts[0] != "fmin":
                raise MalformedInstanceError(
                    f"line {lineno}: expected 'fmin <K>', got {line!r}")
            fmin = _parse_int(parts[1], lineno)
            if fmin < 0:
                raise MalformedInstanceError(
                    f"line {lineno}: fmin must be >= 0")
        else:
            subsets.append(_parse_subset(line, lineno, n))
        break
    import json  # here, so that importing the package loads no json
    # The rest in blocks.  One json scan reads a block whose lines are all
    # ids of ASCII digits (and '-') split by single spaces; any other block,
    # and any line with an id out of range, goes through _parse_subset line
    # by line, so results, messages and line numbers are the per-line ones.
    while block := list(islice(rows, _BLOCK_LINES)):
        text = "\n".join(line for _, line in block)
        got = None
        if not text.translate(_BLOCK_CHARS):  # else json reads 1e3, NaN, [1]
            try:
                got = json.loads(
                    "[[" + text.replace(" ", ",").replace("\n", "],[") + "]]")
            except ValueError:  # 007, a double space, a 4301-digit id
                pass
        if got is None:
            subsets.extend(_parse_subset(line, lineno, n)
                           for lineno, line in block)
            continue
        for ids, (lineno, line) in zip(got, block):
            if not all(map(lt, ids, ids[1:])):  # not ascending and distinct
                ids = sorted(set(ids))
            if ids and (ids[0] < 0 or ids[-1] >= n):
                _parse_subset(line, lineno, n)  # raises on the first such id
            subsets.append(Subset(tuple(ids)))
    return Instance(Universe(n), tuple(subsets), fmin)


def _parse_subset(line: str, lineno: int, n: int) -> Subset:
    """One body line; a blank line is the empty subset."""
    try:
        ids = set(map(int, line.split()))
    except ValueError:  # name the first bad token
        ids = [_parse_int(tok, lineno) for tok in line.split()]
    if ids and (min(ids) < 0 or max(ids) >= n):
        i = next(i for i in map(int, line.split()) if not 0 <= i < n)
        raise MalformedInstanceError(
            f"line {lineno}: element {i} outside universe of size {n}")
    return Subset(tuple(sorted(ids)))


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedInstanceError(
            f"line {lineno}: expected integer, got {token!r}") from None


# ids per piece of a streamed id line
_ID_CHUNK = 1 << 16


def id_line(key: str, ids: Sequence[int], sep: str = " ") -> Iterator[str]:
    """The line ``key id<sep>id...`` and its newline, yielded in pieces of
    at most 2^16 ids, so a long line is never built whole."""
    yield key + " "
    for lo in range(0, len(ids), _ID_CHUNK):
        yield (sep if lo else "") + sep.join(
            str(i) for i in ids[lo:lo + _ID_CHUNK])
    yield "\n"


def instance_lines(universe: Universe, subsets: SubsetSequence,
                   fmin: int | None = None) -> Iterator[str]:
    """The text format's lines, each ending in a newline.  A subset object
    that repeats the one before it reuses its line."""
    yield f"n {universe.n}\n"
    if fmin is not None:
        yield f"fmin {fmin}\n"
    prev = line = None
    for s in subsets:
        if s is not prev:
            line = " ".join(str(i) for i in s.members) + "\n"
            prev = s
        yield line


def format_instance(universe: Universe, subsets: SubsetSequence,
                    fmin: int | None = None) -> str:
    """Serialize an instance back to the text format."""
    return "".join(instance_lines(universe, subsets, fmin))
