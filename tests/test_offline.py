"""Offline solver tests: tracker math, derandomized recoloring, exact search
against an independent brute-force oracle, and the pairing construction."""

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from dscp.adversary import gen_theorem2, play_game
from dscp.core import (
    Allocation,
    Coloring,
    Subset,
    Universe,
    build_hypergraph,
    count_covers,
    frequencies,
    is_set_cover,
    validate_polychromatic,
)
from dscp.offline import (
    ExpectationTracker,
    LimitExceededError,
    TrackerProbe,
    TranscriptError,
    default_num_colors,
    exact_max_disjoint_covers,
    pairing_offline,
    polyoff,
)
from dscp.online import GreedyCover, OnlineAlgorithm, PolyOn

U4 = Universe(4)
DEMO = [Subset((0, 1, 3)), Subset((1, 2)), Subset((0, 2))]


def random_subsets(rng, n, m, p=0.5):
    return [Subset(tuple(i for i in range(n) if rng.random() < p))
            for _ in range(m)]


def brute_force_max_covers(seq, universe):
    """Independent oracle: maximum of count_covers over every set partition
    of the subset indices, enumerated recursively."""
    m = len(seq)
    best = 0

    def covers(groups):
        return sum(1 for g in groups
                   if is_set_cover([seq[i] for i in g], universe))

    def rec(j, groups):
        nonlocal best
        if j == m:
            best = max(best, covers(groups))
            return
        for g in groups:
            g.append(j)
            rec(j + 1, groups)
            g.pop()
        groups.append([j])
        rec(j + 1, groups)
        groups.pop()

    rec(0, [])
    return best


# ---------------------------------------------------------------------------
# color budget
# ---------------------------------------------------------------------------

def test_default_num_colors_frozen_values():
    assert default_num_colors(16, 12) == 3
    assert default_num_colors(100, 1000) == 163
    assert default_num_colors(450, 1000) == 126
    assert default_num_colors(64, 48) == 8
    assert default_num_colors(2, 1) == 3
    # degenerate universe: ln(n ln n) is unusable at n = 1
    assert default_num_colors(1, 5) == 5
    assert default_num_colors(1, 0) == 1


def test_default_num_colors_refuses_fmin_past_float_range():
    # refused before fmin / ln(n ln n) is taken as a float
    for n in (2, 3, 450):
        with pytest.raises(ValueError, match=r"^fmin must be below 2\*\*1000"):
            default_num_colors(n, 1 << 1000)
    # the largest fmin kept, over the smallest divisor ln(2 ln 2) < 1
    assert default_num_colors(2, (1 << 1000) - 1) > 1 << 1000


# ---------------------------------------------------------------------------
# expectation tracker
# ---------------------------------------------------------------------------

def test_tracker_initial_expectation():
    t = ExpectationTracker(3, [12] * 16)
    want = 16 * 3 * (2 / 3) ** 12
    assert abs(t.expectation - want) < 1e-12


def test_tracker_two_color_toy():
    # one edge of size two: the first vertex ties (lowest color wins), the
    # second must supply the edge's only missing color
    t = ExpectationTracker(2, [2])
    assert t.recolor(0, [0]) == 0
    assert t.colors_present(0) == {0}
    assert t.recolor(1, [0]) == 1
    assert t.expectation == pytest.approx(0.0, abs=1e-12)


def test_tracker_single_color_always_zero():
    t = ExpectationTracker(1, [3, 3])
    for v in range(3):
        assert t.recolor(v, [0, 1]) == 0
    assert t.expectation == pytest.approx(0.0, abs=1e-12)


def test_tracker_error_paths():
    with pytest.raises(ValueError):
        ExpectationTracker(0, [1])
    with pytest.raises(ValueError):
        ExpectationTracker(2, [-1])
    t = ExpectationTracker(2, [1])
    t.recolor(0, [0])
    with pytest.raises(ValueError):
        t.recolor(0, [0])       # same vertex twice
    with pytest.raises(ValueError):
        t.recolor(1, [0])       # edge already at its size
    assert ExpectationTracker(2, [1]).recolor(0, []) == 0


def test_tracker_refuses_sizes_past_int64():
    # a declared fmin of 2**63 does not fit the int64 countdown
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        ExpectationTracker(2, [2 ** 63])
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        ExpectationTracker(2, [-(2 ** 63) - 1])
    assert ExpectationTracker(2, [2 ** 63 - 1]).expectation == 0.0


def test_tracker_refuses_more_than_max_cells():
    # checked before the n x colors table is allocated
    with pytest.raises(ValueError, match="tracker cells"):
        ExpectationTracker((1 << 24) + 1, [1])
    with pytest.raises(ValueError, match="tracker cells"):
        ExpectationTracker(1 << 23, [1, 1, 1])
    with pytest.raises(ValueError, match="tracker cells"):  # power table
        ExpectationTracker(30000, [1 << 25])
    assert ExpectationTracker(1 << 24, [1]).expectation == (1 << 24) - 1


def test_tracker_recolors_in_index_order():
    t = ExpectationTracker(2, [1, 3])
    t.recolor(0, [0])
    with pytest.raises(ValueError, match="out of order"):
        t.recolor(2, [1])       # skips vertex 1
    assert t.steps == 1
    with pytest.raises(ValueError, match="beyond its size"):
        t.recolor(1, [0, 1])
    # a failed step leaves the tracker untouched, so vertex 1 can retry
    assert t.steps == 1
    assert t.recolor(1, [1]) == 0
    assert t.steps == 2


def test_tracker_monotone_and_consistent():
    rng = random.Random(0x7AC5)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rng.randint(1, 14)
        seq = random_subsets(rng, n, m)
        ell = rng.randint(1, 5)
        probe = TrackerProbe(recompute_every=1)
        sizes = frequencies(seq, Universe(n)).counts
        t = ExpectationTracker(ell, sizes, probe=probe)
        last = t.expectation
        for j, s in enumerate(seq):
            t.recolor(j, s.members)
            assert t.expectation <= last + 1e-12 * max(1.0, last)
            last = t.expectation
        assert probe.steps == m
        assert probe.checks == m
        assert probe.max_rel_err <= 1e-9


def test_probe_recompute_interval():
    probe = TrackerProbe(recompute_every=3)
    t = ExpectationTracker(2, [2] * 4, probe=probe)
    for v in range(7):
        t.recolor(v, [v % 4])
    assert probe.steps == 7
    assert probe.checks == 2


def test_tracker_leaves_caller_sizes_alone():
    sizes = np.array([2, 3], dtype=np.int64)
    t = ExpectationTracker(2, sizes)
    t.recolor(0, [0, 1])
    t.recolor(1, [1])
    assert sizes.tolist() == [2, 3]


class VectorReference:
    """The tracker's update rule in its plain vectorised form, over a power
    table with one entry per possible size: the reference the tracker's
    scalar path and truncated table must match bit for bit."""

    def __init__(self, num_colors, edge_sizes):
        self.num_colors = num_colors
        self.left = np.array(edge_sizes, dtype=np.int64)
        beta = 1.0 - 1.0 / num_colors
        self.pow = np.power(beta, np.arange(int(self.left.max()) + 1,
                                            dtype=np.float64))
        self.present = np.zeros((len(self.left), num_colors), dtype=bool)
        self.pcount = np.zeros(len(self.left), dtype=np.int64)
        self.expectation = float(((num_colors - self.pcount)
                                  * self.pow[self.left]).sum())

    def recolor(self, incident_edges):
        idx = np.asarray(incident_edges, dtype=np.intp)
        if idx.size == 0:
            return 0
        u = self.left[idx]
        w = self.pow[u - 1]
        color = int(np.argmin(w @ self.present[idx].astype(np.float64)))
        old_terms = (self.num_colors - self.pcount[idx]) * self.pow[u]
        self.left[idx] -= 1
        newly = ~self.present[idx, color]
        self.present[idx, color] = True
        self.pcount[idx] += newly
        new_terms = (self.num_colors - self.pcount[idx]) * w
        self.expectation = self.expectation + float(
            new_terms.sum() - old_terms.sum())
        return color


def replay_against_reference(rng, num_colors, sizes, steps):
    """Recolor random incident lists of 0, 1 or 2-4 open edges on both the
    tracker and the reference; colors and expectations must be equal."""
    t = ExpectationTracker(num_colors, sizes)
    ref = VectorReference(num_colors, sizes)
    assert t.expectation == ref.expectation
    for v in range(steps):
        open_edges = [e for e in range(len(sizes)) if ref.left[e] > 0]
        degree = rng.choice([0, 1, 1, 1, rng.randint(2, 4)])
        incident = rng.sample(open_edges, min(degree, len(open_edges)))
        assert t.recolor(v, incident) == ref.recolor(incident)
        assert t.expectation == ref.expectation
    return t


def test_recolor_scalar_path_matches_vector_rule():
    rng = random.Random(0x5CA1)
    for num_colors in (1, 2, 3, 7):
        for _ in range(25):
            sizes = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
            replay_against_reference(rng, num_colors, sizes, sum(sizes))
    # edges of 2000 with 2 colors: w underflows to 0.0 while a color is
    # still absent, and every color then ties at 0
    t = replay_against_reference(rng, 2, [2000, 2000, 5], 300)
    assert t.colors_present(0) == {0}


def test_tracker_power_table_is_bounded():
    # past its first 0.0 the table is clamped, not stored: one entry more
    # than the index where 0.5 ** k underflows, whatever the edge size;
    # both recolor paths read the clamped entry
    t = replay_against_reference(random.Random(0xB0), 2, [5000, 3000, 4],
                                 2000)
    assert len(t._pow) <= 1076
    assert ExpectationTracker(1, [5000])._pow.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# polyoff
# ---------------------------------------------------------------------------

def test_polyoff_single_color_single_cover():
    col = polyoff(DEMO, U4, num_colors=1)
    assert col.num_colors == 1
    assert count_covers(Allocation(col.color_of), DEMO, U4) == 1


def test_polyoff_demo_two_colors_capped_by_fmin():
    col = polyoff(DEMO, U4, num_colors=2)
    covers = count_covers(Allocation(col.color_of), DEMO, U4)
    assert covers <= frequencies(DEMO, U4).fmin == 1


def test_polyoff_validates_num_colors():
    with pytest.raises(ValueError):
        polyoff(DEMO, U4, num_colors=0)


def test_polyoff_guarantee():
    # valid colors >= num_colors - floor(E0) with E0 the tracker value
    # before any recoloring, computed here independently
    rng = random.Random(0x90FF)
    for _ in range(80):
        n = rng.randint(1, 8)
        seq = random_subsets(rng, n, rng.randint(1, 14))
        ell = rng.randint(1, 5)
        col = polyoff(seq, Universe(n), num_colors=ell)
        h = build_hypergraph(seq, Universe(n))
        invalid, _ = validate_polychromatic(h, col)
        beta = 1.0 - 1.0 / ell
        e0 = sum(ell * beta ** c
                 for c in frequencies(seq, Universe(n)).counts)
        assert invalid <= math.floor(e0 + 1e-9)


def test_polyoff_forced_full_validity():
    # n=16, fmin=12, 3 colors: the start bound 48*(2/3)^12 < 1 forces every
    # color to come out valid
    rng = random.Random(0x163)
    for trial in range(10):
        seq = random_subsets(rng, 16, 40)
        while frequencies(seq, Universe(16)).fmin < 12:
            seq.append(Subset(tuple(range(16))))
        seq = seq[:60]
        col = polyoff(seq, Universe(16), num_colors=3)
        assert count_covers(Allocation(col.color_of), seq, Universe(16)) == 3


def test_polyoff_default_budget_uses_fmin():
    seq = [Subset(tuple(range(16)))] * 12
    col = polyoff(seq, Universe(16))
    assert col.num_colors == default_num_colors(16, 12) == 3


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def test_exact_demo():
    res = exact_max_disjoint_covers(DEMO, U4)
    assert res.opt == 1
    assert count_covers(res.witness, DEMO, U4) == 1


def test_exact_two_disjoint_copies():
    cover = [Subset((0, 1)), Subset((2, 3))]
    seq = cover + cover
    res = exact_max_disjoint_covers(seq, U4)
    assert res.opt == 2


def test_exact_theorem2_variant2():
    seq = gen_theorem2(4, 8, 2)
    assert exact_max_disjoint_covers(seq, U4).opt == 3


def test_exact_empty_sequence():
    res = exact_max_disjoint_covers([], U4)
    assert res.opt == 0
    assert res.witness == Allocation(())


def test_exact_limits():
    with pytest.raises(LimitExceededError):
        exact_max_disjoint_covers([Subset((0,))] * 15, Universe(2))
    with pytest.raises(LimitExceededError):
        exact_max_disjoint_covers([Subset((0,))], Universe(15))


def test_exact_matches_brute_force():
    rng = random.Random(0xACE)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(0, 7)
        seq = random_subsets(rng, n, m, p=rng.choice([0.3, 0.5, 0.8]))
        universe = Universe(n)
        res = exact_max_disjoint_covers(seq, universe)
        assert res.opt == brute_force_max_covers(seq, universe)
        assert count_covers(res.witness, seq, universe) == res.opt
        assert res.opt <= frequencies(seq, universe).fmin


def test_exact_witnesses_pinned():
    # Many allocations reach the optimum; the digest pins the one the
    # search order returns, not just the count.
    rng = random.Random(0x5EED)
    h = hashlib.sha256()
    for _ in range(300):
        n = rng.randint(1, 8)
        m = rng.randint(0, 11)
        seq = random_subsets(rng, n, m, p=rng.choice([0.3, 0.5, 0.8]))
        res = exact_max_disjoint_covers(seq, Universe(n))
        h.update(repr((res.opt, res.witness.partition_of)).encode())
    assert h.hexdigest() == (
        "a9e82ce719dd297244015e8fb97813365a94f0db063f839ec724d330ddea40b5")


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

class Scripted(OnlineAlgorithm):
    """Plays a fixed opening, then dumps everything into one partition."""

    name = "scripted"

    def __init__(self, opening, default=0):
        self.opening = list(opening)
        self.default = default

    def init(self, universe, fmin):
        self._left = list(self.opening)

    def assign(self, subset):
        if self._left:
            return self._left.pop(0)
        return self.default


def test_pairing_own_partitions_q4():
    game = play_game(Scripted([0, 1, 2, 3]), 4, "sb")
    alloc = pairing_offline(game.transcript)
    # two largest classes are popped first: pairs (S0, S1) and (S2, S3)
    assert alloc.partition_of[:4] == (0, 0, 1, 1)
    seq = game.transcript.sequence
    assert count_covers(alloc, seq, game.transcript.universe) == 2
    for pid, idx in alloc.groups().items():
        assert is_set_cover([seq[j] for j in idx], game.transcript.universe)


def test_pairing_all_in_one_q4_split():
    game = play_game(Scripted([0, 0, 0, 0]), 4, "sa")
    assert game.split
    alloc = pairing_offline(game.transcript)
    assert count_covers(alloc, game.transcript.sequence,
                        game.transcript.universe) == 2


def test_pairing_q2_single_pair():
    game = play_game(Scripted([0, 1]), 2, "sa")
    assert game.offline == 1


def test_pairing_detects_missing_singletons():
    game = play_game(Scripted([0, 1, 2, 3]), 4, "sb")
    starved = dataclasses.replace(
        game.transcript,
        sequence=game.transcript.sequence[:game.transcript.sinf_start])
    with pytest.raises(TranscriptError):
        pairing_offline(starved)


PAIRING_PINS = {
    (6, "sa"):
        "3f7f2ba83f103af416c1ea8e872c9a871dcce93bd9e4b40743ecf6e5ee962680",
    (6, "sb"):
        "3f7f2ba83f103af416c1ea8e872c9a871dcce93bd9e4b40743ecf6e5ee962680",
    (9, "sa"):
        "b60b6c1726ef666a0aa4ae15203ed4e00c7c91263d4b65e6217c3e4e5a7408f6",
    (9, "sb"):
        "bc63a743fc7f51bf41efd8788dfa22884572d07bf63cf96e5c7ed0a47197586c",
    (12, "sa"):
        "9170375fe45cbbd76a1898ef4bdf7bb92ada2b0c1d984ba059c81b9e065741c6",
    (12, "sb"):
        "9170375fe45cbbd76a1898ef4bdf7bb92ada2b0c1d984ba059c81b9e065741c6",
}


def alloc_digest(alloc):
    return hashlib.sha256(
        ",".join(map(str, alloc.partition_of)).encode()).hexdigest()


@pytest.mark.parametrize("q,variant", sorted(PAIRING_PINS))
@pytest.mark.parametrize("algo", [GreedyCover, PolyOn])
def test_pairing_allocation_pinned(q, variant, algo):
    # both algorithms open with one partition, so they share the digest
    game = play_game(algo(), q, variant)
    assert alloc_digest(pairing_offline(game.transcript)) == \
        PAIRING_PINS[q, variant]


@pytest.mark.parametrize("opening,variant,digest", [
    ((0, 0, 0, 1, 1, 2, 2, 3, 4), "sa",
     "d62b97cdefb584161713185850cd69d98c961b74f4027adf7004a03be630f8bb"),
    ((0, 0, 0, 1, 1, 2, 2, 3, 4), "sb",
     "a857b841e7eb6633cee897b76a44f6be0dac5531da4ee3efb19fd19ef6ca24b6"),
    ((0, 1, 2, 3, 4, 5) * 2, "sb",
     "300996f16a5bf352371f15b48dfb5356e19f5fe0f2fb3f66dfa8d4112e3ac455"),
    ((5,) * 7 + (1, 1, 2, 9, 9), "sa",
     "18e18782c905590df080bedf374b65e30a13c77c34f81018a6f68f0e7f7239e1"),
    ((5,) * 7 + (1, 1, 2, 9, 9), "sb",
     "200b30bbeee68dce058916ed65e91ab2aa468b61026e9ce1ed822369f8877239"),
])
def test_pairing_allocation_pinned_scripted(opening, variant, digest):
    game = play_game(Scripted(opening), len(opening), variant)
    assert alloc_digest(pairing_offline(game.transcript)) == digest


def test_pairing_rejects_displaced_singleton():
    # the filler is read by its layout: a copy of a needed singleton that
    # was replaced by another singleton is missing, even though spare
    # copies of it remain elsewhere in the tail
    game = play_game(Scripted([0, 1, 2, 3]), 4, "sb")
    t = game.transcript
    seq = list(t.sequence)
    last = max(j for j, s in enumerate(seq) if s.members == (0,))
    seq[last] = Subset((15,))
    seq.append(Subset((0,)))
    displaced = dataclasses.replace(
        t, sequence=tuple(seq),
        allocation=Allocation(t.allocation.partition_of + (0,)))
    with pytest.raises(TranscriptError,
                       match=r"ran out of \{0\} singletons"):
        pairing_offline(displaced)

