"""Core model tests: frequencies, covers, hypergraph, shrinking, parsing.

The small worked instance used throughout is U = {0,1,2,3} with subsets
{0,1,3}, {1,2}, {0,2}; its dual hypergraph has edges
e0={v0,v2}, e1={v0,v1}, e2={v1,v2}, e3={v0}.
"""

import copy
import dataclasses
import io
import pickle
import random

import pytest

from dscp.core import (
    MAX_CELLS,
    Allocation,
    Coloring,
    Instance,
    MalformedInstanceError,
    ShrinkState,
    Subset,
    Universe,
    build_hypergraph,
    count_covers,
    format_instance,
    frequencies,
    id_line,
    instance_lines,
    is_set_cover,
    parse_instance,
    shrink_stream,
    validate_polychromatic,
)

U4 = Universe(4)
DEMO = [Subset((0, 1, 3)), Subset((1, 2)), Subset((0, 2))]


def random_subsets(rng, n, m, p=0.5):
    return [Subset(tuple(i for i in range(n) if rng.random() < p))
            for _ in range(m)]


# ---------------------------------------------------------------------------
# basic types
# ---------------------------------------------------------------------------

def test_subset_of_sorts_and_dedupes():
    s = Subset.of([3, 1, 3, 0, 1])
    assert s.members == (0, 1, 3)
    assert 1 in s and 2 not in s
    assert list(s) == [0, 1, 3]
    assert len(s) == 3
    assert bool(s)
    assert not Subset()


def test_universe_validates():
    with pytest.raises(ValueError):
        Universe(0)


def test_allocation_groups_and_sizes():
    alloc = Allocation((1, 0, 1, 3))
    assert len(alloc.partition_of) == 4
    assert alloc.groups() == {0: [1], 1: [0, 2], 3: [3]}
    with pytest.raises(ValueError):
        Allocation((0, -1))


def test_coloring_validates_range():
    Coloring((0, 1, 0), 2)
    with pytest.raises(ValueError):
        Coloring((0, 2), 2)
    with pytest.raises(ValueError):
        Coloring((), 0)


# ---------------------------------------------------------------------------
# frequencies / covers
# ---------------------------------------------------------------------------

def test_frequencies_demo_instance():
    table = frequencies(DEMO, U4)
    assert table.counts == (2, 2, 2, 1)
    assert table.fmin == 1


def test_frequencies_empty_and_singletons():
    assert frequencies([], U4).counts == (0, 0, 0, 0)
    assert frequencies([], U4).fmin == 0
    singles = [Subset((i,)) for i in range(4)]
    assert frequencies(singles, U4).fmin == 1


def test_frequencies_rejects_out_of_range():
    with pytest.raises(MalformedInstanceError):
        frequencies([Subset((4,))], U4)


def test_is_set_cover():
    assert is_set_cover([DEMO[0], DEMO[1]], U4)
    assert not is_set_cover([], Universe(1))
    assert is_set_cover([Subset(tuple(range(7)))], Universe(7))
    with pytest.raises(MalformedInstanceError):
        is_set_cover([Subset((9,))], U4)


def test_count_covers_demo():
    assert count_covers(Allocation((0, 0, 0)), DEMO, U4) == 1
    assert count_covers(Allocation((0, 1, 2)), DEMO, U4) == 0
    full = [Subset(tuple(range(4)))] * 2
    assert count_covers(Allocation((0, 1)), full, U4) == 2
    with pytest.raises(MalformedInstanceError):
        count_covers(Allocation((0, 0, 1)), [*full, Subset((4,))], U4)


def test_count_covers_rejects_out_of_range():
    full = Subset(tuple(range(4)))
    for bad in (Subset((-1,)), Subset((4,))):
        with pytest.raises(MalformedInstanceError):
            count_covers(Allocation((0,)), [bad], U4)
        # also inside a partition that covers without it
        with pytest.raises(MalformedInstanceError):
            count_covers(Allocation((0, 0, 1)), [full, bad, full], U4)


def test_count_covers_fresh_ids_stay_small():
    # a fresh id per subset over a large universe: a flag byte per element
    # and partition would take 50 MB here
    import tracemalloc

    n, m = 1_000_000, 50
    seq = [Subset((i, n - 1)) for i in range(m)]
    tracemalloc.start()
    try:
        assert count_covers(Allocation(tuple(range(m))), seq,
                            Universe(n)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_count_covers_flags_and_dicts_agree():
    # n=100 over 10 subsets leaves room for 6 flag arrays: ids 0..5 get
    # flags, the rest dicts
    u = Universe(100)
    full = Subset(tuple(range(100)))
    ids = tuple(range(8)) + (0, 7)
    seq = [Subset((i,)) for i in range(8)] + [full, full]
    assert count_covers(Allocation(ids), seq, u) == 2
    for bad in (Subset((-1,)), Subset((100,))):
        with pytest.raises(MalformedInstanceError):
            count_covers(Allocation(ids), seq[:7] + [bad] + seq[8:], u)


def test_count_covers_repeated_objects_match_recount():
    # runs of one subset object, as the game's filler sends them, under ids
    # that leave a partition and come back to it
    a, b = Subset((0, 1)), Subset((2, 3))
    cases = [([a, a, b, b], [0, 1, 1, 0]), ([a, a, a, a], [0, 0, 1, 0]),
             ([a, a, b, b, b], [0, 0, 1, 0, 0])]
    rng = random.Random(0x5EE)
    for _ in range(300):
        pool = random_subsets(rng, 4, 3, p=0.7)
        seq = [s for s in pool for _ in range(rng.randint(1, 4))]
        cases.append((seq, [rng.randrange(3) for _ in seq]))
    for seq, ids in cases:
        alloc = Allocation(tuple(ids))
        assert count_covers(alloc, seq, U4) == sum(
            len({i for j in g for i in seq[j]}) == 4
            for g in alloc.groups().values())


def test_count_covers_repeated_out_of_range_raises():
    for bad in (Subset((-1,)), Subset((4,))):
        for ids in ((0, 0, 0), (0, 1, 1), (1, 0, 0)):
            with pytest.raises(MalformedInstanceError):
                count_covers(Allocation(ids), [bad] * 3, U4)


def test_subset_is_slotted_and_round_trips():
    s = Subset((1, 5, 9))
    assert not hasattr(Subset((1,)), "__dict__")
    twins = [pickle.loads(pickle.dumps(s, proto))
             for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*twins, copy.deepcopy(s)]:
        assert twin == s and twin is not s and twin.members == (1, 5, 9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.members = ()


def test_count_covers_length_mismatch():
    with pytest.raises(ValueError):
        count_covers(Allocation((0,)), DEMO, U4)


def test_count_covers_never_exceeds_fmin():
    rng = random.Random(0xC0)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(0, 8)
        seq = random_subsets(rng, n, m)
        alloc = Allocation(tuple(rng.randrange(4) for _ in range(m)))
        covers = count_covers(alloc, seq, Universe(n))
        assert covers <= frequencies(seq, Universe(n)).fmin
        groups = alloc.groups().values()
        assert covers == sum(
            len({i for j in g for i in seq[j]}) == n for g in groups)


# ---------------------------------------------------------------------------
# hypergraph
# ---------------------------------------------------------------------------

def test_build_hypergraph_demo():
    h = build_hypergraph(DEMO, U4)
    assert h.vertex_count == 3
    assert h.edges == ((0, 2), (0, 1), (1, 2), (0,))
    assert h.edge_sizes() == (2, 2, 2, 1)


def test_build_hypergraph_degenerate():
    full = build_hypergraph([Subset(tuple(range(4)))], U4)
    assert full.edges == ((0,), (0,), (0,), (0,))
    singles = build_hypergraph([Subset((i,)) for i in range(4)], U4)
    assert all(len(e) == 1 for e in singles.edges)


def test_edge_sizes_match_frequencies():
    rng = random.Random(0xED6E)
    for _ in range(100):
        n = rng.randint(1, 9)
        seq = random_subsets(rng, n, rng.randint(0, 12))
        h = build_hypergraph(seq, Universe(n))
        assert h.edge_sizes() == frequencies(seq, Universe(n)).counts


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def test_shrink_stream_worked_example():
    seq = [Subset((0, 1)), Subset((0, 2)), Subset((0,)), Subset((1, 2))]
    out = shrink_stream(seq, 2)
    assert [s.members for s in out] == [(0, 1), (0, 2), (), (1, 2)]


def test_shrink_stream_demo_fmin_1():
    out = shrink_stream(DEMO, 1)
    assert [s.members for s in out] == [(0, 1, 3), (2,), ()]


def test_shrink_stream_noop_when_cap_is_high():
    assert shrink_stream(DEMO, 99) == list(DEMO)
    with pytest.raises(ValueError):
        shrink_stream(DEMO, 0)


def test_shrink_stream_caps_frequencies():
    rng = random.Random(0x5321)
    for _ in range(100):
        n = rng.randint(1, 8)
        seq = random_subsets(rng, n, rng.randint(0, 15))
        fmin = rng.randint(1, 5)
        out = shrink_stream(seq, fmin)
        assert len(out) == len(seq)
        before = frequencies(seq, Universe(n)).counts
        after = frequencies(out, Universe(n)).counts
        assert after == tuple(min(c, fmin) for c in before)


def test_shrink_push_matches_recount_and_shares_subsets():
    # against a plain recount; a subset that loses nothing comes back as
    # the same object
    rng = random.Random(0x5A4E)
    for _ in range(50):
        n = rng.randint(1, 6)
        seq = random_subsets(rng, n, rng.randint(1, 15))
        fmin = rng.randint(1, 4)
        state = ShrinkState(fmin)
        seen = [0] * n
        want = []
        for s in seq:
            want.append(Subset(tuple(i for i in s if seen[i] < fmin)))
            for i in s:
                seen[i] += 1
            got = state.push(s)
            assert got == want[-1]
            if got.members == s.members:
                assert got is s
        assert shrink_stream(seq, fmin) == want


def test_shrink_stream_is_prefix_causal():
    rng = random.Random(0xCA)
    for _ in range(50):
        n = rng.randint(1, 6)
        seq = random_subsets(rng, n, rng.randint(1, 12))
        fmin = rng.randint(1, 4)
        whole = shrink_stream(seq, fmin)
        cut = rng.randint(0, len(seq))
        assert shrink_stream(seq[:cut], fmin) == whole[:cut]


# ---------------------------------------------------------------------------
# polychromatic validation
# ---------------------------------------------------------------------------

def test_validate_single_color_trivial():
    h = build_hypergraph(DEMO, U4)
    assert validate_polychromatic(h, Coloring((0, 0, 0), 1)) == (0, set())


def test_validate_demo_two_colors():
    h = build_hypergraph(DEMO, U4)
    count, bad = validate_polychromatic(h, Coloring((0, 1, 1), 2))
    # color 0 is missing from e2 = {v1,v2}; color 1 is missing from e3 = {v0}
    assert (count, bad) == (2, {0, 1})


def test_validate_single_vertex_edge():
    # edge 0 = {v0} carries only v0's color, so the other color is invalid
    h = build_hypergraph([Subset((0, 1)), Subset((1,))], Universe(2))
    count, bad = validate_polychromatic(h, Coloring((0, 1), 2))
    assert count == 1 and bad == {1}


def test_validate_length_mismatch():
    h = build_hypergraph(DEMO, U4)
    with pytest.raises(ValueError):
        validate_polychromatic(h, Coloring((0,), 1))


def test_valid_colors_are_covers():
    rng = random.Random(0xBEEF)
    for _ in range(100):
        n = rng.randint(1, 7)
        m = rng.randint(1, 10)
        seq = random_subsets(rng, n, m)
        ell = rng.randint(1, 4)
        col = Coloring(tuple(rng.randrange(ell) for _ in range(m)), ell)
        h = build_hypergraph(seq, Universe(n))
        count, bad = validate_polychromatic(h, col)
        assert count == len(bad) <= ell
        # each valid color's class really is a set cover, and the count of
        # valid colors equals count_covers of the same assignment
        for c in range(ell):
            members = [seq[j] for j in range(m) if col.color_of[j] == c]
            assert is_set_cover(members, Universe(n)) == (c not in bad)
        assert (ell - count
                == count_covers(Allocation(col.color_of), seq, Universe(n)))


def test_shrinking_preserves_validity_upward():
    rng = random.Random(0x517)
    for _ in range(100):
        n = rng.randint(1, 7)
        m = rng.randint(1, 12)
        seq = random_subsets(rng, n, m)
        fmin = rng.randint(1, 4)
        ell = rng.randint(1, 4)
        col = Coloring(tuple(rng.randrange(ell) for _ in range(m)), ell)
        h = build_hypergraph(seq, Universe(n))
        h_shrunk = build_hypergraph(shrink_stream(seq, fmin), Universe(n))
        _, bad = validate_polychromatic(h, col)
        _, bad_shrunk = validate_polychromatic(h_shrunk, col)
        assert bad <= bad_shrunk


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_instance_basic():
    text = "# demo\nn 4\nfmin 1\n0 1 3\n1 2\n0 2\n"
    inst = parse_instance(text)
    assert inst.universe.n == 4
    assert inst.fmin == 1
    assert [s.members for s in inst.subsets] == [(0, 1, 3), (1, 2), (0, 2)]


def test_parse_instance_blank_line_is_empty_subset():
    inst = parse_instance("n 2\n0 1\n\n1\n")
    assert [s.members for s in inst.subsets] == [(0, 1), (), (1,)]
    assert inst.fmin is None


def test_parse_instance_errors():
    with pytest.raises(MalformedInstanceError):
        parse_instance("")                      # no header
    with pytest.raises(MalformedInstanceError):
        parse_instance("0 1\nn 2\n")            # body before header
    with pytest.raises(MalformedInstanceError):
        parse_instance("n x\n")                 # bad integer
    with pytest.raises(MalformedInstanceError):
        parse_instance("n 2\n5\n")              # element out of range
    with pytest.raises(MalformedInstanceError):
        parse_instance("n 2\nfmin -1\n")        # negative fmin


def test_format_parse_round_trip(tmp_path):
    rng = random.Random(0xF0F0)
    path = tmp_path / "inst.txt"
    for _ in range(50):
        n = rng.randint(1, 8)
        seq = random_subsets(rng, n, rng.randint(0, 10))
        if rng.random() < 0.5:
            seq.insert(rng.randint(0, len(seq)), Subset())
        fmin = rng.choice([None, rng.randint(0, 5)])
        lines = format_instance(Universe(n), seq, fmin).splitlines(True)
        body = 1 if fmin is None else 2
        for _ in range(rng.randint(0, 3)):
            lines.insert(rng.randint(body, len(lines)), "# note 1 2\n")
        text = "".join(lines)
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            from_file = parse_instance(fh)
        for inst in (parse_instance(text),
                     parse_instance(io.StringIO(text, newline="\n")),
                     from_file):
            assert inst.universe.n == n
            assert list(inst.subsets) == seq
            assert inst.fmin == fmin


# every line break of str.splitlines, each on its own and as CRLF
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")

# 600 body lines, more than two blocks of the parser's 256: a comment inside
# the second block (line 303), then a bad token on line 404
LONG_BODY = ("n 5\nfmin 1\n" + "0 1 4\n" * 300 + "# note\n" + "2 3\n" * 100
             + "0 x\n" + "1\n" * 199)

PARSE_CASES = [
    "n 3\nfmin 1\n0 1\n2\n",
    "# head\n  n 3 \n# between\nfmin 2\n\n 2 0 0 \n# tail",
    "n 2\n\n\n1\n",          # blank lines are empty subsets
    "n 2\n0\nfmin 1\n",        # fmin after the body is a body line
    "n 4\nfmin 3\n1",           # no final newline
    "\n",                        # errors from here on
    "n 4\nfminx 3\n1\n",
    "",
    "# only\n",
    "0 1\nn 2\n",
    "n\n",
    "n x\n",
    "n 0\n",
    "n 2\nfmin\n",
    "n 2\nfmin -1\n",
    "n 2\nfmin x\n",
    "n 2\n0 x 5\n",
    "n 2\n1 5 -1\n",
    "n 16777217\n",
    LONG_BODY.replace("\n0 x\n", "\n0 1\n"),  # read in three blocks
    LONG_BODY,                   # a bad token in the second block
]


def _outcome(parse):
    try:
        inst = parse()
    except MalformedInstanceError as exc:
        return str(exc)
    return inst.universe.n, [s.members for s in inst.subsets], inst.fmin


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_parse_streamed_matches_whole(tmp_path, brk):
    path = tmp_path / "inst.txt"
    for case in PARSE_CASES:
        text = case.replace("\n", brk)
        whole = _outcome(lambda: parse_instance(text))
        assert whole == _outcome(lambda: parse_instance(case))
        # stdin's mode: no newline translation
        assert _outcome(lambda: parse_instance(
            io.StringIO(text, newline="\n"))) == whole
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            assert _outcome(lambda: parse_instance(fh)) == whole


def test_parse_error_messages_and_lines():
    assert _outcome(lambda: parse_instance("")) == "missing 'n <N>' header"
    assert _outcome(lambda: parse_instance("# c\n\n")) == \
        "line 2: expected 'n <N>' header"
    assert _outcome(lambda: parse_instance("# c\r\nn 2\f0 x\n")) == \
        "line 3: expected integer, got 'x'"
    assert _outcome(lambda: parse_instance("n 2\n# c\n1 5 -1")) == \
        "line 3: element 5 outside universe of size 2"
    assert _outcome(lambda: parse_instance("n 4\nfminx 3\n1\n")) == \
        "line 2: expected 'fmin <K>', got 'fminx 3'"
    assert _outcome(lambda: parse_instance("n 4\nfmin5\n")) == \
        "line 2: expected 'fmin <K>', got 'fmin5'"
    assert _outcome(lambda: parse_instance(LONG_BODY)) == \
        "line 404: expected integer, got 'x'"
    assert _outcome(lambda: parse_instance(
        LONG_BODY.replace("0 x", "0 1 9", 1))) == \
        "line 404: element 9 outside universe of size 5"
    n, subsets, fmin = _outcome(lambda: parse_instance(
        LONG_BODY.replace("0 x", "4 0 4", 1)))
    assert (n, len(subsets), fmin) == (5, 600, 1)
    assert subsets[299:302] == [(0, 1, 4), (2, 3), (2, 3)]
    assert subsets[400:402] == [(0, 4), (1,)]


def _parse_line_by_line(text):
    """The parser's per-line rules on their own, as a reference: every body
    line through int() and a set, in the order of the text."""
    lines = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    rows = [(k, line) for k, line in lines if not line.startswith("#")]
    if not rows:
        raise MalformedInstanceError("missing 'n <N>' header")

    def number(token, lineno):
        try:
            return int(token)
        except ValueError:
            raise MalformedInstanceError(
                f"line {lineno}: expected integer, got {token!r}") from None

    lineno, line = rows[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        got = f", got {line!r}" if line else ""
        raise MalformedInstanceError(
            f"line {lineno}: expected 'n <N>' header{got}")
    n = number(parts[1], lineno)
    if n < 1:
        raise MalformedInstanceError(f"line {lineno}: n must be >= 1")
    if n > MAX_CELLS:
        raise MalformedInstanceError(
            f"line {lineno}: n must be at most {MAX_CELLS}")
    fmin, body = None, rows[1:]
    if body and body[0][1].startswith("fmin"):
        (lineno, line), body = body[0], body[1:]
        parts = line.split()
        if len(parts) != 2 or parts[0] != "fmin":
            raise MalformedInstanceError(
                f"line {lineno}: expected 'fmin <K>', got {line!r}")
        fmin = number(parts[1], lineno)
        if fmin < 0:
            raise MalformedInstanceError(f"line {lineno}: fmin must be >= 0")
    subsets = []
    for lineno, line in body:
        ids = [number(tok, lineno) for tok in line.split()]
        bad = [i for i in ids if not 0 <= i < n]
        if bad:
            raise MalformedInstanceError(
                f"line {lineno}: element {bad[0]} outside universe of size {n}")
        subsets.append(Subset(tuple(sorted(set(ids)))))
    return Instance(Universe(n), tuple(subsets), fmin)


# tokens a block scan must not read the way json would: some are ids to
# int() (+3, 007, -0, the Arabic-Indic three, 1_0), the rest are errors
ODD_TOKENS = ("+3", "007", "-0", "-1", "1.5", "1e3", "true", "NaN",
              "Infinity", "[1]", "1,2", "\u0663", "1_0", "1\t2", "1  2",
              "9" * 4301)


def _fuzz_line(rng, n, odd=None):
    """A body line: canonical ids, unsorted and duplicate ids, blank or a
    comment; ``odd`` is a token put at a random place, or an int id, maybe
    out of range, put among the ids before they are sorted."""
    ids = rng.sample(range(n), rng.randint(0, min(n, 6)))
    if isinstance(odd, int):
        ids.append(odd)
    kind = rng.random()
    if kind < 0.6:
        ids.sort()
    elif kind < 0.7:
        ids.append(rng.choice(ids or [0]))
    elif kind < 0.75 and odd is None:
        return ""
    elif kind < 0.8 and odd is None:
        return rng.choice(["#", "# note 1 2", "#1.5 x"])
    tokens = [str(i) for i in ids]
    if isinstance(odd, str):
        tokens.insert(rng.randint(0, len(tokens)), odd)
    return " ".join(tokens)


def test_parse_blocks_match_line_by_line():
    rng = random.Random(0xB10C)
    outcomes = {"ok": 0, "error": 0}
    for case in range(200):
        n = rng.choice([1, 3, 12, 40])
        odds = ODD_TOKENS + (-3, -1, n, n + 7, 10 ** 6)
        head = ["# head"] * rng.randint(0, 1) + [f"n {n}"]
        if rng.random() < 0.5:
            head.append(f"fmin {rng.randint(0, 9)}")
        odd_rate = rng.choice([0.0, 0.002, 0.02])
        body = [_fuzz_line(rng, n, rng.choice(odds)
                           if rng.random() < odd_rate else None)
                for _ in range(rng.randint(0, 700))]
        if case % 2 and body:  # each odd token in turn, on one line
            k = rng.randrange(len(body))
            body[k] = _fuzz_line(rng, n, odds[case // 2 % len(odds)])
        text = rng.choice(["\n", "\r\n", "\x85"]).join(head + body)
        want = _outcome(lambda: _parse_line_by_line(text))
        assert _outcome(lambda: parse_instance(text)) == want
        assert _outcome(lambda: parse_instance(
            io.StringIO(text, newline="\n"))) == want
        outcomes["error" if isinstance(want, str) else "ok"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_parse_caps_header_n():
    assert parse_instance(f"n {MAX_CELLS}\n").universe.n == 1 << 24
    with pytest.raises(MalformedInstanceError,
                       match="^line 2: n must be at most 16777216$"):
        parse_instance(f"# big\nn {MAX_CELLS + 1}\n0\n")


def test_id_line_pieces():
    assert list(id_line("allocation", ())) == ["allocation ", "\n"]
    assert "".join(id_line("witness", (3, 1), ",")) == "witness 3,1\n"
    ids = list(range((1 << 17) + 5))
    pieces = list(id_line("underfull", ids, ","))
    assert len(pieces) == 5
    assert max(len(p.strip(",").split(",")) for p in pieces) == 1 << 16
    assert "".join(pieces) == "underfull " + ",".join(map(str, ids)) + "\n"


def test_instance_lines_reuse_repeated_subset():
    s, t = Subset((0, 2)), Subset((1,))
    lines = list(instance_lines(Universe(3), [s, s, t, s], 2))
    assert lines == ["n 3\n", "fmin 2\n"] + [
        " ".join(str(i) for i in x.members) + "\n" for x in (s, s, t, s)]
    assert lines[3] is lines[2]
    assert parse_instance("".join(lines)).subsets == (s, s, t, s)
