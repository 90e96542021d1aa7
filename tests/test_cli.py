"""Tests for the experiment harness, the external-process protocol and the
command-line interface (exercised through real subprocesses)."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import shlex
import subprocess
import sys
import time

import pytest

from dscp.cli import (
    CSV_FIELDS,
    ExperimentConfig,
    ExperimentRecord,
    MAX_REPLY,
    ExternalAlgorithm,
    ProtocolViolationError,
    emit_results,
    make_algorithm,
    random_instance,
    run_experiment,
    stable_seed,
)
from dscp.core import Subset, Universe, frequencies, parse_instance
from dscp.online import GreedyCover, PolyOn, RandColour, run_online


def run_cli(*args, stdin=""):
    return subprocess.run([sys.executable, "-m", "dscp", *args],
                          input=stdin, capture_output=True, text=True,
                          timeout=120)


def child(code):
    return [sys.executable, "-c", code]


# ---------------------------------------------------------------------------
# seeding and instance generation
# ---------------------------------------------------------------------------

def test_stable_seed_frozen():
    assert stable_seed(0, 0) == 12426054289685354689
    digest = hashlib.sha256(b"7:3:polyon").digest()
    assert stable_seed(7, 3, "polyon") == int.from_bytes(digest[:8], "big")


def test_stable_seed_distinct():
    seeds = {stable_seed(0, t, name)
             for t in range(500) for name in ("a", "b")}
    assert len(seeds) == 1000


def test_random_instance_full_density():
    subsets, declared = random_instance(3, 1.0, 5, 2, seed=0)
    assert subsets == [Subset((0, 1, 2))] * 5
    assert declared == 5


def test_random_instance_topups_only():
    subsets, declared = random_instance(4, 0.5, 0, 3, seed=1)
    assert declared == 3
    assert sorted(subsets, key=lambda s: s.members) == \
        [Subset((i,)) for i in range(4) for _ in range(3)]


def test_random_instance_declared_is_true_fmin():
    rng = random.Random(0xF1)
    for _ in range(20):
        n = rng.randint(1, 12)
        subsets, declared = random_instance(
            n, rng.uniform(0.05, 1.0), rng.randint(0, 30),
            rng.randint(1, 6), seed=rng.getrandbits(32))
        assert frequencies(subsets, Universe(n)).fmin == declared


def test_random_instance_scale():
    subsets, declared = random_instance(60, 0.25, 1200, 300, seed=9)
    assert declared >= 300
    assert frequencies(subsets, Universe(60)).fmin == declared


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(0, 0.5, 1, 1, 0)
    with pytest.raises(ValueError):
        random_instance(2, 0.0, 1, 1, 0)
    with pytest.raises(ValueError):
        random_instance(2, 1.5, 1, 1, 0)
    with pytest.raises(ValueError):
        random_instance(2, 0.5, -1, 1, 0)
    with pytest.raises(ValueError):
        random_instance(2, 0.5, 1, 0, 0)
    with pytest.raises(ValueError, match="cells"):
        random_instance(1 << 12, 0.5, (1 << 12) + 1, 1, 0)


def test_random_instance_bounds_top_ups():
    # the singleton top-ups take up to n x k cells whatever m is
    with pytest.raises(ValueError, match="cells"):
        random_instance(1, 1.0, 0, (1 << 24) + 1, 0)
    with pytest.raises(ValueError, match="cells"):
        random_instance((1 << 24) + 1, 0.5, 0, 1, 0)


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

def test_experiment_config_validation():
    good = dict(n=4, p=0.5, m=3, k=1, trials=1, algorithms=("greedy",))
    ExperimentConfig(**good)
    with pytest.raises(ValueError, match=r"p must be in \(0, 1\]"):
        run_experiment(ExperimentConfig(**{**good, "p": 0.0}))
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "trials": 0})
    with pytest.raises(ValueError, match="target fmin must be at least 1"):
        run_experiment(ExperimentConfig(**{**good, "k": 0}))
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "algorithms": ("external",)})


def test_make_algorithm():
    assert isinstance(make_algorithm("greedy"), GreedyCover)
    assert isinstance(make_algorithm("randcolour", seed=4), RandColour)
    assert isinstance(make_algorithm("polyon", num_colors=2), PolyOn)
    ext = make_algorithm("external", cmd="prog --flag")
    assert isinstance(ext, ExternalAlgorithm)
    assert ext.command == ["prog", "--flag"]
    with pytest.raises(ValueError):
        make_algorithm("external")
    with pytest.raises(ValueError):
        make_algorithm("simplex")


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(n=10, p=0.4, m=8, k=2, trials=3,
                           algorithms=("greedy", "randcolour", "polyon"),
                           seed=3)
    first = [dataclasses.replace(r, millis=0) for r in run_experiment(cfg)]
    second = [dataclasses.replace(r, millis=0) for r in run_experiment(cfg)]
    assert first == second
    assert len(first) == 9
    assert [r.algo for r in first[:3]] == ["greedy", "randcolour", "polyon"]
    for r in first:
        assert 0 <= r.covers <= r.upper_bound
        assert r.fmin >= 2


def test_run_experiment_exact_bound():
    cfg = ExperimentConfig(n=4, p=1.0, m=3, k=1, trials=1,
                           algorithms=("greedy", "polyon"), seed=0)
    greedy, polyon = run_experiment(cfg)
    assert greedy.bound_kind == "exact"
    assert greedy.upper_bound == 3
    assert greedy.covers == 3
    assert greedy.ratio_lower == 1.0
    assert polyon.covers >= 1


def test_emit_results_csv(tmp_path):
    rec = ExperimentRecord(trial=0, n=4, m=3, fmin=3, algo="greedy",
                           covers=3, upper_bound=3, ratio_lower=1.0,
                           seed=42, millis=1)
    out = tmp_path / "r.csv"
    emit_results([rec], "csv", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert lines[1] == "0,4,3,3,greedy,3,3,1.0,42,1"
    assert len(lines) == 2
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows[0]["algo"] == "greedy"
    assert rows[0]["covers"] == "3"


def test_emit_results_csv_matches_csv_writer():
    recs = [ExperimentRecord(trial=t, n=4, m=3, fmin=3, algo=algo,
                             covers=c, upper_bound=3, ratio_lower=r,
                             seed=2**64 - 1, millis=t)
            for t, (algo, c, r) in enumerate([
                ("greedy", 0, float("inf")), ("polyon", 3, 0.1 + 0.2),
                ("randcolour", 2, 1.5), ("greedy", 3, 1e-300)])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit_results(recs, "csv")
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([getattr(r, f) for f in CSV_FIELDS] for r in recs)
    assert buf.getvalue() == want.getvalue()
    assert "0.30000000000000004" in buf.getvalue()


def test_emit_results_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_results([], "csv", str(out))
    assert out.read_text() == ",".join(CSV_FIELDS) + "\n"


def test_emit_results_json_round_trip():
    rec = ExperimentRecord(trial=1, n=8, m=5, fmin=2, algo="polyon",
                           covers=1, upper_bound=2, ratio_lower=2.0,
                           seed=7, millis=0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit_results([rec], "json")
    rows = json.loads(buf.getvalue())
    assert rows == [{"trial": 1, "n": 8, "m": 5, "fmin": 2,
                     "algo": "polyon", "covers": 1, "upper_bound": 2,
                     "ratio_lower": 2.0, "seed": 7, "millis": 0}]


def test_emit_results_json_writes_null_for_zero_covers():
    recs = [ExperimentRecord(trial=t, n=4, m=3, fmin=3, algo="greedy",
                             covers=c, upper_bound=3, ratio_lower=r,
                             seed=0, millis=0)
            for t, (c, r) in enumerate([(0, float("inf")), (2, 1.5)])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit_results(recs, "json")

    def refuse(name):  # Infinity, -Infinity and NaN are not JSON
        raise ValueError(f"not JSON: {name}")

    rows = json.loads(buf.getvalue(), parse_constant=refuse)
    assert [row["ratio_lower"] for row in rows] == [None, 1.5]


def test_emit_results_rejects_impossible_record():
    rec = ExperimentRecord(trial=0, n=4, m=3, fmin=3, algo="greedy",
                           covers=4, upper_bound=3, ratio_lower=0.75,
                           seed=0, millis=0)
    with pytest.raises(ValueError):
        emit_results([rec], "csv", None)
    with pytest.raises(ValueError):
        emit_results([], "yaml", None)


# ---------------------------------------------------------------------------
# external line protocol
# ---------------------------------------------------------------------------

ROUND_ROBIN = """
import sys
i = 0
while True:
    line = sys.stdin.readline()
    if not line or line.startswith("END"):
        break
    if line.startswith("SUBSET"):
        print("ASSIGN", i % 3, flush=True)
        i += 1
"""

INIT_SUM = """
import sys
head = sys.stdin.readline().split()
assert head[0] == "INIT"
pid = int(head[1]) + int(head[2])
while True:
    line = sys.stdin.readline()
    if not line or line.startswith("END"):
        break
    if line.startswith("SUBSET"):
        print("ASSIGN", pid, flush=True)
"""

SUBSET_LEN = """
import sys
sys.stdin.readline()
while True:
    line = sys.stdin.readline()
    if not line or line.startswith("END"):
        break
    parts = line.split()
    if parts and parts[0] == "SUBSET":
        print("ASSIGN", len(parts) - 1, flush=True)
"""


def test_external_round_robin():
    seq = [Subset((0,)), Subset((1,)), Subset((0, 1))] * 2
    algo = ExternalAlgorithm(child(ROUND_ROBIN))
    res = run_online(algo, seq, Universe(2), 2)
    assert res.allocation.partition_of == tuple(i % 3 for i in range(6))


def test_external_receives_init():
    seq = [Subset((0,))] * 2
    algo = ExternalAlgorithm(child(INIT_SUM))
    res = run_online(algo, seq, Universe(4), 2, audit=False)
    assert res.allocation.partition_of == (6, 6)


def test_external_subset_wire_format():
    seq = [Subset((0, 1)), Subset(()), Subset((1,))]
    algo = ExternalAlgorithm(child(SUBSET_LEN))
    res = run_online(algo, seq, Universe(2), 1, audit=False)
    assert res.allocation.partition_of == (2, 0, 1)


def test_external_command_string_is_shell_split():
    algo = ExternalAlgorithm("prog -a 'b c'")
    assert algo.command == ["prog", "-a", "b c"]
    with pytest.raises(ValueError):
        ExternalAlgorithm("")


@pytest.mark.parametrize("reply,fragment", [
    ("print('BANANA', flush=True)", "expected 'ASSIGN"),
    ("print('ASSIGN -1', flush=True)", "negative"),
    ("print('ASSIGN x', flush=True)", "non-integer"),
])
def test_external_bad_replies(reply, fragment):
    code = f"import sys\nsys.stdin.readline()\nsys.stdin.readline()\n{reply}"
    algo = ExternalAlgorithm(child(code))
    with pytest.raises(ProtocolViolationError, match=fragment):
        run_online(algo, [Subset((0,))], Universe(1), 1)


def test_external_child_exits_early():
    algo = ExternalAlgorithm(child("pass"))
    with pytest.raises(ProtocolViolationError):
        run_online(algo, [Subset((0,))], Universe(1), 1)


def test_external_clean_exit_after_last_reply():
    code = """
import sys
sys.stdin.readline()
for _ in range(3):
    sys.stdin.readline()
    print("ASSIGN 0", flush=True)
"""
    seq = [Subset((0,))] * 3
    res = run_online(ExternalAlgorithm(child(code)), seq, Universe(1), 3)
    assert res.allocation.partition_of == (0, 0, 0)
    assert res.covers == 1


def test_external_trailing_output_is_violation():
    code = """
import sys
while True:
    line = sys.stdin.readline()
    if not line:
        break
    if line.startswith("SUBSET"):
        print("ASSIGN 0", flush=True)
    if line.startswith("END"):
        print("TRAILING", flush=True)
        break
"""
    algo = ExternalAlgorithm(child(code))
    with pytest.raises(ProtocolViolationError, match="after the last"):
        run_online(algo, [Subset((0,))], Universe(1), 1)


@pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf])
def test_external_timeout_must_be_positive_and_finite(timeout):
    # refused in the constructor, before any child is started
    with pytest.raises(ValueError, match="timeout"):
        ExternalAlgorithm(child("pass"), timeout=timeout)


def test_external_timeout():
    code = ("import sys, time\nsys.stdin.readline()\nsys.stdin.readline()\n"
            "time.sleep(5)\nprint('ASSIGN 0', flush=True)")
    algo = ExternalAlgorithm(child(code), timeout=0.3)
    start = time.monotonic()
    with pytest.raises(ProtocolViolationError, match="no reply within"):
        run_online(algo, [Subset((0,))], Universe(1), 1)
    # the child is killed at once, not granted the grace of a clean END
    assert time.monotonic() - start < 0.3 + 0.5


def test_external_write_timeout():
    # the child never reads stdin, and the SUBSET line (over 64 KiB) does not
    # fit in the pipe buffer: the write must give up at the move deadline
    algo = ExternalAlgorithm(child("import time; time.sleep(5)"),
                             timeout=0.5)
    try:
        algo.init(Universe(30000), 1)
        start = time.monotonic()
        with pytest.raises(ProtocolViolationError, match="not read within"):
            algo.assign(Subset(tuple(range(30000))))
        assert time.monotonic() - start < 0.5 + 0.5
    finally:
        algo.close()


def test_external_init_again_closes_the_held_child():
    # the first stream stopped between init and finish
    algo = ExternalAlgorithm(child(ROUND_ROBIN))
    algo.init(Universe(2), 1)
    first = algo._proc
    try:
        res = run_online(algo, [Subset((0, 1))], Universe(2), 1)
        assert res.allocation.partition_of == (0,)
        assert first.poll() is not None
    finally:
        first.stdin.close()
        first.stdout.close()
        first.kill()
        first.wait(timeout=5)


def test_external_endless_reply_line_is_refused_at_the_limit():
    code = """
import os, sys
sys.stdin.readline()
sys.stdin.readline()
try:
    while True:
        os.write(1, b"A" * 4096)
except BrokenPipeError:
    pass
"""
    algo = ExternalAlgorithm(child(code))
    start = time.monotonic()
    with pytest.raises(ProtocolViolationError,
                       match=f"reply line longer than {MAX_REPLY} bytes"):
        run_online(algo, [Subset((0,))], Universe(1), 1)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("length,ok", [(MAX_REPLY, True),
                                       (MAX_REPLY + 1, False)])
def test_external_reply_line_limit_is_exact(length, ok):
    reply = "ASSIGN" + " " * (length - len("ASSIGN7")) + "7"
    code = ("import sys\nsys.stdin.readline()\nsys.stdin.readline()\n"
            f"print({reply!r}, flush=True)\nsys.stdin.readline()")
    algo = ExternalAlgorithm(child(code))
    if ok:
        res = run_online(algo, [Subset((0,))], Universe(1), 1)
        assert res.allocation.partition_of == (7,)
    else:
        with pytest.raises(ProtocolViolationError, match="longer than"):
            run_online(algo, [Subset((0,))], Universe(1), 1)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("adversary", "--algo", "greedy", "--variant", "sb"),
    ("gen", "scom"),
])
def test_cli_game_q_cap(args):
    start = time.monotonic()
    proc = run_cli(*args, "--q", "21")
    assert proc.returncode == 1
    assert "q must be" in proc.stderr
    assert time.monotonic() - start < 1.0


def test_cli_gen_theorem2_refuses_more_than_max_cells():
    start = time.monotonic()
    proc = run_cli("gen", "theorem2", "--n", "4097", "--m", "8194",
                   "--variant", "2")
    assert proc.returncode == 1
    assert "cells" in proc.stderr
    assert time.monotonic() - start < 1.0


def test_cli_external_refuses_negative_timeout():
    # a usage error, not a protocol violation by the child
    cmd = shlex.join(child(ROUND_ROBIN))
    proc = run_cli("online", "--algo", "external", "--cmd", cmd,
                   "--timeout", "-1", stdin="n 1\nfmin 1\n0\n")
    assert proc.returncode == 1
    assert "timeout must be" in proc.stderr


def test_cli_gen_scom_refuses_negative_q():
    proc = run_cli("gen", "scom", "--q", "-3")
    assert proc.returncode == 1
    assert proc.stderr == "error: q must not be negative\n"
    proc = run_cli("gen", "scom", "--q", "0")
    assert proc.returncode == 0
    assert proc.stdout == "n 1\n"


def test_cli_gen_scom_round_trip():
    proc = run_cli("gen", "scom", "--q", "3")
    assert proc.returncode == 0
    inst = parse_instance(proc.stdout)
    assert inst.universe.n == 8
    assert [s.members for s in inst.subsets] == [
        (1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7)]
    assert inst.fmin is None


def test_cli_gen_theorem2_declares_fmin():
    proc = run_cli("gen", "theorem2", "--n", "4", "--m", "8",
                   "--variant", "2")
    assert proc.returncode == 0
    inst = parse_instance(proc.stdout)
    assert inst.fmin == 3
    assert len(inst.subsets) == 8


def test_cli_gen_random_to_file(tmp_path):
    out = tmp_path / "inst.txt"
    proc = run_cli("gen", "random", "--n", "6", "--p", "0.5", "--m", "8",
                   "--fmin", "2", "--seed", "7", "-o", str(out))
    assert proc.returncode == 0
    inst = parse_instance(out.read_text())
    _, declared = random_instance(6, 0.5, 8, 2, 7)
    assert inst.fmin == declared


def test_cli_offline_exact_from_stdin():
    gen = run_cli("gen", "theorem2", "--n", "4", "--m", "8", "--variant", "2")
    proc = run_cli("offline", "exact", stdin=gen.stdout)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "covers 3"
    assert lines[1].startswith("allocation ")


def test_cli_offline_polyoff():
    text = "n 4\n0 1 3\n1 2\n0 2\n"
    proc = run_cli("offline", "polyoff", stdin=text)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("colors ")
    assert lines[1].startswith("covers ")
    assert lines[2].startswith("allocation ")


def test_cli_online_greedy():
    text = "n 2\nfmin 2\n0\n1\n0 1\n"
    proc = run_cli("online", "--algo", "greedy", stdin=text)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "algo greedy"
    assert lines[1] == "fmin 2"
    assert lines[2] == "covers 2"
    assert lines[3] == "allocation 0 0 1"


@pytest.mark.parametrize("cmd", [("online", "--algo", "polyon"),
                                 ("offline", "polyoff")])
def test_cli_refuses_colors_past_max_cells(cmd):
    # 2 edges x 2**24+1 colors: refused before the tracker table exists
    start = time.monotonic()
    proc = run_cli(*cmd, "--colors", str((1 << 24) + 1),
                   stdin="n 2\nfmin 2\n0\n1\n0 1\n")
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 1
    assert "tracker cells" in proc.stderr


def test_cli_online_crlf_by_path_and_stdin(tmp_path):
    text = b"# crlf\r\nn 3\r\nfmin 1\r\n0 1\r\n\r\n2\r\n1 2\r\n"
    path = tmp_path / "crlf.txt"
    path.write_bytes(text)
    argv = [sys.executable, "-m", "dscp", "online", "--algo", "polyon"]
    by_path = subprocess.run(argv + [str(path)], capture_output=True,
                             timeout=120)
    by_stdin = subprocess.run(argv, input=text, capture_output=True,
                              timeout=120)
    assert by_path.returncode == by_stdin.returncode == 0
    assert by_path.stdout == by_stdin.stdout
    assert b"\r" not in by_path.stdout
    assert by_path.stdout.splitlines()[-1] == b"allocation 0 0 0 0"


def test_cli_online_allocation_line_spans_chunks():
    # 65,537 subsets: more ids than one piece of the streamed line
    m = (1 << 16) + 1
    proc = run_cli("online", "--algo", "greedy",
                   stdin="n 1\nfmin 1\n" + "0\n" * m)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert [ln for ln in lines if ln.startswith("allocation")] == [
        "allocation " + " ".join(str(p) for p in range(m))]


def test_cli_online_refuses_header_n_past_max_cells():
    # refused at the header, before the frequency table or the underfull
    # audit is sized by n
    start = time.monotonic()
    proc = run_cli("online", "--algo", "greedy",
                   stdin=f"n {(1 << 24) + 1}\nfmin 1\n0\n")
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 1
    assert "line 1: n must be at most 16777216" in proc.stderr


@pytest.mark.parametrize("args,stdin", [
    (("--colors", "2", "--fmin", str(1 << 63)), "n 2\n0 1\n1\n0\n"),
    ((), "n 2\nfmin 100000000000000000000\n0 1\n1\n0\n"),
], ids=["flag", "header"])
def test_cli_polyon_refuses_fmin_past_int64(args, stdin):
    proc = run_cli("online", "--algo", "polyon", *args, stdin=stdin)
    assert proc.returncode == 1
    assert proc.stderr == \
        "error: edge sizes must be non-negative and below 2**63\n"


def test_cli_polyon_keeps_largest_int64_fmin():
    proc = run_cli("online", "--algo", "polyon", "--colors", "2",
                   "--fmin", str((1 << 63) - 1), stdin="n 2\n0 1\n1\n0\n")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "algo polyon", "fmin 9223372036854775807", "covers 1",
        "underfull 0,1", "allocation 0 0 0"]


FMIN_401 = "1" + "0" * 400  # 401 digits, past float range


@pytest.mark.parametrize("args,stdin", [
    (("online", "--algo", "polyon"), f"n 5\nfmin {FMIN_401}\n0 1 2 3 4\n"),
    (("online", "--algo", "randcolour"), f"n 5\nfmin {FMIN_401}\n0 1 2 3\n"),
    (("online", "--algo", "polyon", "--fmin", FMIN_401), "n 5\n0 1 2 3 4\n"),
    (("online", "--algo", "randcolour", "--fmin", FMIN_401), "n 2\n0 1\n"),
    (("online", "--algo", "polyon", "--fmin", str(10 ** 308)), "n 2\n0 1\n"),
    (("online", "--algo", "polyon", "--fmin", str(1 << 1000)), "n 2\n0 1\n"),
    (("experiment", "--n", "5", "--fmin", FMIN_401, "--trials", "1"), ""),
    (("experiment", "--n", "5", "--fmin", f"3,{FMIN_401}"), ""),
], ids=["polyon-header", "randcolour-header", "polyon-flag",
        "randcolour-flag", "1e308-n2", "2**1000", "experiment",
        "experiment-second-cell"])
def test_cli_refuses_fmin_past_float_range(args, stdin):
    proc = run_cli(*args, stdin=stdin)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: fmin must be below 2**1000\n")


PEAK_RSS = """
import resource, sys
from dscp.cli import main
code = main(["online", "--algo", "greedy"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: per-element tables are sized by the header n, "
    "not by the input"))
def test_cli_online_peak_memory_follows_the_input():
    # the child reports its own peak: RUSAGE_CHILDREN here would carry over
    # every earlier child of the test process.  Importing dscp.cli alone
    # takes about 33 MiB, and this 3-line file peaks near 130 MiB
    proc = subprocess.run(child(PEAK_RSS), input="n 2097152\nfmin 1\n0\n",
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=True)
    peak_kib = int(proc.stderr.splitlines()[-1])
    assert peak_kib <= 64 * 1024


def test_cli_online_reports_underfull():
    text = "n 2\nfmin 5\n0\n1\n0 1\n"
    proc = run_cli("online", "--algo", "greedy", stdin=text)
    assert proc.returncode == 0
    assert "underfull 0,1" in proc.stdout.splitlines()


def test_cli_online_rejects_zero_fmin():
    proc = run_cli("online", "--algo", "greedy", stdin="n 2\n0\n")
    assert proc.returncode == 1
    assert "fmin" in proc.stderr


def test_cli_adversary_with_transcript(tmp_path):
    out = tmp_path / "game.txt"
    proc = run_cli("adversary", "--q", "4", "--variant", "sb",
                   "--algo", "greedy", "--save", str(out))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "t_online 1" in lines
    assert "bound 2" in lines
    assert "split yes" in lines
    assert "offline 2" in lines
    body = out.read_text().split("instance\n", 1)[1]
    inst = parse_instance(body)
    assert inst.fmin == 4
    assert inst.universe.n == 16


def test_cli_bound():
    proc = run_cli("bound", "--q", "14", "--variant", "sa")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["max_bound 6", "witness 3,3,3,2,2,1"]
    proc = run_cli("bound", "--q", "4", "--variant", "sb", "--sizes", "2,2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["bound 2"]


def test_cli_experiment_csv():
    proc = run_cli("experiment", "--n", "8", "--fmin", "3", "--trials", "2",
                   "--algos", "greedy,polyon", "--seed", "1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 1 + 2 * 2
    for row in csv.DictReader(io.StringIO(proc.stdout)):
        assert int(row["covers"]) <= int(row["upper_bound"])


def test_cli_experiment_json():
    proc = run_cli("experiment", "--n", "6", "--fmin", "2", "--trials", "1",
                   "--algos", "greedy", "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert len(rows) == 1 and rows[0]["algo"] == "greedy"


@pytest.mark.parametrize("p", ["0", "nan", "inf"])
def test_cli_experiment_refuses_p_outside_unit_interval(p):
    # the default m is k / p; a p that random_instance refuses must reach
    # its check instead of dividing by zero or rounding a nan
    proc = run_cli("experiment", "--n", "4", "--fmin", "2", "--p", p)
    assert proc.returncode == 1
    assert "p must be in (0, 1]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("online", "--algo", "simplex",
                   stdin="n 1\n0\n").returncode == 1
    assert run_cli("gen", "theorem2", "--n", "1", "--m", "8",
                   "--variant", "1").returncode == 1
    assert run_cli("offline", "polyoff", "--seed", "1",
                   stdin="n 1\n0\n").returncode == 1


def test_cli_protocol_violation_exit_2():
    bad_child = f"{sys.executable} -c \"print('BANANA', flush=True)\""
    proc = run_cli("online", "--algo", "external", "--cmd", bad_child,
                   stdin="n 2\nfmin 1\n0 1\n")
    assert proc.returncode == 2
    assert "covers 0" in proc.stdout
    assert "protocol violation" in proc.stderr


def test_cli_adversary_protocol_violation_exit_2():
    bad_child = f"{sys.executable} -c \"print('BANANA', flush=True)\""
    proc = run_cli("adversary", "--q", "4", "--variant", "sb",
                   "--algo", "external", "--cmd", bad_child)
    assert proc.returncode == 2
    assert proc.stdout == "algo external\nt_online 0\n"
    assert "protocol violation" in proc.stderr
