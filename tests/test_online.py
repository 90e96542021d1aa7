"""Online algorithm tests: the three built-in strategies and the driver."""

import math
import random
import statistics

import pytest

from dscp.cli import random_instance
from dscp.core import Subset, Universe, frequencies
from dscp.offline import TrackerProbe, default_num_colors
from dscp.online import (
    GreedyCover,
    OnlineAlgorithm,
    PolyOn,
    RandColour,
    run_online,
)

U4 = Universe(4)
DEMO = [Subset((0, 1, 3)), Subset((1, 2)), Subset((0, 2))]


def random_subsets(rng, n, m, p=0.5):
    return [Subset(tuple(i for i in range(n) if rng.random() < p))
            for _ in range(m)]


def instance_with_fmin(rng, n, m, want):
    """Random sequence padded with full subsets until fmin >= want."""
    seq = random_subsets(rng, n, m)
    while frequencies(seq, Universe(n)).fmin < want:
        seq.append(Subset(tuple(range(n))))
    return seq


# ---------------------------------------------------------------------------
# GreedyCover
# ---------------------------------------------------------------------------

def test_greedy_advances_after_each_cover():
    seq = [Subset((0,)), Subset((1,)), Subset((0, 1))]
    res = run_online(GreedyCover(), seq, Universe(2), 2)
    assert res.allocation.partition_of == (0, 0, 1)
    assert res.covers == 2


def test_greedy_never_covering():
    seq = [Subset((0,))] * 5
    res = run_online(GreedyCover(), seq, Universe(2), 1)
    assert res.allocation.partition_of == (0,) * 5
    assert res.covers == 0


def test_greedy_full_subsets():
    seq = [Subset(tuple(range(3)))] * 4
    res = run_online(GreedyCover(), seq, Universe(3), 4)
    assert res.allocation.partition_of == (0, 1, 2, 3)
    assert res.covers == 4


def test_greedy_one_cover_when_stream_covers(seed=0x6EE0):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(1, 7)
        seq = random_subsets(rng, n, rng.randint(1, 12))
        universe = Universe(n)
        covers_all = len({i for s in seq for i in s}) == n
        res = run_online(GreedyCover(), seq, universe, 1)
        assert (res.covers >= 1) == covers_all


# ---------------------------------------------------------------------------
# RandColour
# ---------------------------------------------------------------------------

def test_randcolour_single_color():
    algo = RandColour(seed=5, num_colors=1)
    res = run_online(algo, DEMO, U4, 1)
    assert res.allocation.partition_of == (0, 0, 0)
    assert res.covers == 1


def test_randcolour_deterministic_per_seed():
    seq = [Subset((0, 1))] * 20
    a = run_online(RandColour(seed=11, num_colors=4), seq, Universe(2), 20)
    b = run_online(RandColour(seed=11, num_colors=4), seq, Universe(2), 20)
    c = run_online(RandColour(seed=12, num_colors=4), seq, Universe(2), 20)
    assert a.allocation.partition_of == b.allocation.partition_of
    assert a.allocation.partition_of != c.allocation.partition_of


def test_randcolour_budgets():
    algo = RandColour()
    algo.init(Universe(16), 12)
    assert algo.num_colors == default_num_colors(16, 12) == 3
    fixed = RandColour(num_colors=7)
    fixed.init(Universe(16), 12)
    assert fixed.num_colors == 7


def test_randcolour_mean_covers_meets_bound():
    # fixed instance with every frequency >= 12, three colors: the expected
    # number of invalid colors is at most 48*(2/3)^12 ~= 0.370, so the mean
    # cover count over many seeds stays near 3
    rng = random.Random(0x0B5E)
    seq = instance_with_fmin(rng, 16, 40, 12)
    universe = Universe(16)
    counts = [run_online(RandColour(seed=s, num_colors=3), seq, universe, 12,
                         audit=False).covers
              for s in range(500)]
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(len(counts))
    assert mean >= 3 - 16 * 3 * (2 / 3) ** 12 - 3 * se


# ---------------------------------------------------------------------------
# PolyOn
# ---------------------------------------------------------------------------

def test_polyon_demo_degenerate_single_color():
    res = run_online(PolyOn(), DEMO, U4, 1)
    assert res.allocation.partition_of == (0, 0, 0)
    assert res.covers == 1


def test_polyon_ids_stay_inside_budget():
    rng = random.Random(0x1D5)
    for _ in range(30):
        n = rng.randint(2, 8)
        seq = instance_with_fmin(rng, n, rng.randint(1, 12), 1)
        fmin = frequencies(seq, Universe(n)).fmin
        algo = PolyOn()
        res = run_online(algo, seq, Universe(n), fmin)
        assert all(0 <= pid < algo.num_colors
                   for pid in res.allocation.partition_of)


def test_polyon_is_deterministic():
    rng = random.Random(0xD0)
    seq = instance_with_fmin(rng, 8, 20, 2)
    a = run_online(PolyOn(), seq, Universe(8), 2)
    b = run_online(PolyOn(), seq, Universe(8), 2)
    assert a.allocation.partition_of == b.allocation.partition_of


def test_polyon_guarantee_on_honest_instances():
    rng = random.Random(0x60A)
    for _ in range(40):
        n = rng.randint(2, 10)
        seq = instance_with_fmin(rng, n, rng.randint(5, 20), rng.randint(1, 6))
        fmin = frequencies(seq, Universe(n)).fmin
        algo = PolyOn()
        res = run_online(algo, seq, Universe(n), fmin)
        ell = algo.num_colors
        floor_bound = math.floor(n * ell * (1 - 1 / ell) ** fmin) if ell > 1 \
            else 0
        assert res.covers >= max(0, ell - floor_bound)


def test_polyon_guarantee_on_shuffled_orders():
    # the guarantee holds for every arrival order, not just the drawn one
    rng = random.Random(0x5AF1)
    for seed in range(60):
        n = rng.randint(2, 16)
        base, fmin = random_instance(n, rng.uniform(0.2, 0.7),
                                     rng.randint(2, 20), rng.randint(1, 6),
                                     seed)
        for _ in range(8):
            seq = list(base)
            rng.shuffle(seq)
            probe = TrackerProbe(recompute_every=1)
            algo = PolyOn(probe=probe)
            res = run_online(algo, seq, Universe(n), fmin, audit=False)
            ell = algo.num_colors
            floor_bound = math.floor(n * ell * (1 - 1 / ell) ** fmin)
            assert res.covers >= ell - floor_bound, (seed, seq)
            assert probe.max_increase <= 1e-9
            assert probe.max_rel_err <= 1e-9


def test_polyon_tracker_never_increases():
    rng = random.Random(0x7E4)
    probe = TrackerProbe()
    seq = instance_with_fmin(rng, 12, 60, 6)
    run_online(PolyOn(probe=probe), seq, Universe(12), 6, audit=False)
    assert probe.steps == len(seq)
    assert probe.max_increase <= 1e-9


def test_polyon_underfull_audit():
    seq = [Subset((0, 1)), Subset((0,))]
    res = run_online(PolyOn(), seq, Universe(3), 5)
    assert res.underfull == (0, 1, 2)
    quiet = run_online(PolyOn(), seq, Universe(3), 5, audit=False)
    assert quiet.underfull == ()


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------

class BadPid(OnlineAlgorithm):
    name = "bad"

    def __init__(self, value):
        self.value = value

    def init(self, universe, fmin):
        pass

    def assign(self, subset):
        return self.value


def test_run_online_rejects_bad_ids():
    with pytest.raises(ValueError):
        run_online(BadPid(-1), DEMO, U4, 1)
    with pytest.raises(ValueError):
        run_online(BadPid("zero"), DEMO, U4, 1)
    with pytest.raises(ValueError):
        run_online(BadPid(1.5), DEMO, U4, 1)


def test_run_online_empty_sequence():
    res = run_online(GreedyCover(), [], U4, 1)
    assert res.covers == 0
    assert len(res.allocation.partition_of) == 0


def test_covers_never_exceed_true_fmin():
    rng = random.Random(0xEC4)
    for _ in range(60):
        n = rng.randint(1, 8)
        seq = instance_with_fmin(rng, n, rng.randint(1, 12), 1)
        true_fmin = frequencies(seq, Universe(n)).fmin
        for algo in (GreedyCover(), RandColour(seed=3), PolyOn()):
            res = run_online(algo, seq, Universe(n), true_fmin, audit=False)
            assert res.covers <= true_fmin


def test_prefix_causality_all_algorithms():
    rng = random.Random(0xCAFE)
    for _ in range(25):
        n = rng.randint(2, 8)
        seq = instance_with_fmin(rng, n, rng.randint(2, 14), 2)
        cut = rng.randint(0, len(seq))
        for make in (GreedyCover, lambda: RandColour(seed=9), PolyOn):
            full = run_online(make(), seq, Universe(n), 2, audit=False)
            head = run_online(make(), seq[:cut], Universe(n), 2, audit=False)
            assert (head.allocation.partition_of
                    == full.allocation.partition_of[:cut])
