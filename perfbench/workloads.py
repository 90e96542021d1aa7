"""The benchmark's workloads: how each builds its inputs, runs one job and
checks the job's outputs.

A job is a list of operations run back to back in this process (a closed
loop with one client).  Every operation's output is checked with code of the
benchmark's own: cover counts are recounted by plain set unions rather than
``count_covers``, so a faster ``count_covers`` cannot certify itself.  At the
default seed the counts and the sha256 of every allocation must also equal
``reference.json``, recorded from the package when the benchmark was added.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import sys
from pathlib import Path

import dscp.adversary as adversary
import dscp.cli as cli
import dscp.core as core
import dscp.offline as offline
import dscp.online as online

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def reference(name: str, **params):
    """The reference entry of ``name`` if it was recorded with ``params``."""
    ref = REFERENCE.get(name)
    if ref is None or any(ref.get(k) != v for k, v in params.items()):
        return None
    return ref


def alloc_sha256(partition_of) -> str:
    """sha256 of the partition ids joined by commas."""
    return hashlib.sha256(
        ",".join(map(str, partition_of)).encode("ascii")).hexdigest()


def recount(partition_of, subsets, n: int) -> int:
    """Partitions whose subsets' union is exactly {0..n-1}."""
    if len(partition_of) != len(subsets):
        raise ValueError(
            f"allocation has {len(partition_of)} entries for "
            f"{len(subsets)} subsets")
    unions: dict[int, set[int]] = {}
    for pid, subset in zip(partition_of, subsets):
        unions.setdefault(pid, set()).update(subset)
    return sum(1 for u in unions.values()
               if len(u) == n and min(u) == 0 and max(u) == n - 1)


def greedy_covers(subsets, n: int) -> int:
    """Covers the fill-one-partition-at-a-time rule completes."""
    covers, covered = 0, set()
    for subset in subsets:
        covered.update(subset)
        if len(covered) == n:
            covers += 1
            covered = set()
    return covers


class Workload:
    """Base: subclasses fill in inputs, operations and checks.

    ``job_spans`` and ``setup_spans`` name the traced spans that must record
    calls during a job and during set-up; a span left at zero calls would
    silently credit its time to its parent.
    """

    name = ""
    job_spans: frozenset[str] = frozenset()
    setup_spans: frozenset[str] = frozenset()

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def warmup(self) -> None:
        """A small job of the same kind, run as part of set-up."""

    def ops(self, job: int) -> list:
        """The operations of job number ``job``, as zero-argument callables."""
        raise NotImplementedError

    def items(self, op: int, output) -> int:
        raise NotImplementedError

    def fingerprint(self, op: int, output) -> str:
        raise NotImplementedError

    def check(self, op: int, output) -> list[str]:
        """Problems found in one operation's output; empty when correct."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class GameWorkload(Workload):
    """One adversary game per job.  The game is deterministic, so the seed
    changes nothing and the reference values hold on every seed."""

    def __init__(self, name: str, algo: str, q: int, variant: str = "sb",
                 extra_spans=()):
        self.name = name
        self.algo = algo
        self.q = q
        self.variant = variant
        self.job_spans = frozenset({
            "adversary.play_game", "adversary.gen_scom", "core.count_covers",
            "core.Allocation", "offline.pairing_offline", *extra_spans})

    def _play(self, q: int):
        return adversary.play_game(cli.make_algorithm(self.algo), q,
                                   self.variant)

    def warmup(self) -> None:
        self._play(6)

    def ops(self, job: int) -> list:
        return [lambda: self._play(self.q)]

    def items(self, op: int, output) -> int:
        return len(output.transcript.sequence)

    def fingerprint(self, op: int, output) -> str:
        return (f"{output.t_online}:{output.offline}:"
                f"{alloc_sha256(output.transcript.allocation.partition_of)}")

    def check(self, op: int, output) -> list[str]:
        t = output.transcript
        n = t.universe.n
        seq = [s.members for s in t.sequence]
        problems = []
        online_covers = recount(t.allocation.partition_of, seq, n)
        if online_covers != output.t_online:
            problems.append(f"online recount {online_covers} != reported "
                            f"{output.t_online}")
        allowance = 1 if output.split else 0
        if output.t_online > output.bound + allowance:
            problems.append(f"t_online {output.t_online} above bound "
                            f"{output.bound}+{allowance}")
        offline_alloc = offline.pairing_offline(t).partition_of
        offline_covers = recount(offline_alloc, seq, n)
        if offline_covers != output.offline:
            problems.append(f"offline recount {offline_covers} != reported "
                            f"{output.offline}")
        if output.offline < self.q // 2:
            problems.append(f"offline {output.offline} below q//2")
        ref = reference(self.name, q=self.q, variant=self.variant)
        if ref is not None:
            got = {"arrivals": len(seq),
                   "t_online": output.t_online, "offline": output.offline,
                   "online_sha256": alloc_sha256(t.allocation.partition_of),
                   "offline_sha256": alloc_sha256(offline_alloc)}
            for key, value in got.items():
                if ref[key] != value:
                    problems.append(f"{key} {value} != reference {ref[key]}")
        return problems


class CellWorkload(Workload):
    """A criterion-2 cell (n=450, fmin=500, p=0.2), run through the CLI
    three ways.

    Set-up draws the instance from ``stable_seed(2, n, fmin, seed)`` (seed 0
    is criterion 2's first trial) and writes it as text.  A job runs
    ``online --algo polyon``, ``offline polyoff`` and ``online --algo
    external`` with the greedy child, each parsing the file again.
    """

    name = "cell-450"
    job_spans = frozenset({
        "cli.main", "core.parse_instance", "core.frequencies",
        "online.run_online", "online.PolyOn.assign", "core.ShrinkState.push",
        "offline.ExpectationTracker.init",
        "offline.ExpectationTracker.recolor", "offline.polyoff",
        "core.count_covers", "core.Allocation", "cli.ExternalAlgorithm.assign"})
    setup_spans = frozenset({"cli.random_instance"})
    labels = ("polyon", "polyoff", "external")

    def __init__(self, n: int = 450, fmin: int = 500, p: float = 0.2):
        self.n, self.fmin, self.p = n, fmin, p
        child = HERE / "greedy_child.py"
        self.child_cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(child))}"
        self._greedy_sha = None
        self.path = self.small_path = None

    def _write(self, path: Path, n: int, fmin: int, seed: int):
        seq, declared = cli.random_instance(n, self.p, round(fmin / self.p),
                                            fmin, seed)
        path.write_text(core.format_instance(core.Universe(n), seq, declared),
                        encoding="utf-8")
        return seq, declared

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.path = workdir / f"cell-{os.getpid()}.txt"
        self.small_path = workdir / f"cell-small-{os.getpid()}.txt"
        seq, self.declared = self._write(
            self.path, self.n, self.fmin,
            cli.stable_seed(2, self.n, self.fmin, seed))
        self.subsets = [s.members for s in seq]
        self.ell = offline.default_num_colors(self.n, self.declared)
        self._greedy_sha = None
        self._write(self.small_path, 20, 20, seed)

    def _argvs(self, path: Path) -> list[list[str]]:
        f = str(path)
        return [["online", f, "--algo", "polyon"],
                ["offline", "polyoff", f],
                ["online", f, "--algo", "external", "--cmd", self.child_cmd]]

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def warmup(self) -> None:
        for argv in self._argvs(self.small_path):
            self._main(argv)

    def ops(self, job: int) -> list:
        return [lambda argv=argv: self._main(argv)
                for argv in self._argvs(self.path)]

    def items(self, op: int, output) -> int:
        return len(self.subsets)

    def fingerprint(self, op: int, output) -> str:
        rc, text = output
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return f"{op}:{rc}:{digest}"

    def check(self, op: int, output) -> list[str]:
        rc, text = output
        label = self.labels[op]
        if rc != 0:
            return [f"{label}: exit status {rc}"]
        fields = dict(line.split(" ", 1) for line in text.splitlines()
                      if " " in line)
        try:
            covers = int(fields["covers"])
            alloc = [int(tok) for tok in fields["allocation"].split()]
        except (KeyError, ValueError) as exc:
            return [f"{label}: unreadable output ({exc!r})"]
        problems = []
        if len(alloc) != len(self.subsets):
            return [f"{label}: {len(alloc)} ids for {len(self.subsets)} "
                    "subsets"]
        got = recount(alloc, self.subsets, self.n)
        if got != covers:
            problems.append(f"{label}: recount {got} != reported {covers}")
        if label in ("polyon", "polyoff"):
            ell = self.ell
            floor = ell - math.floor(
                self.n * ell * (1 - 1 / ell) ** self.declared)
            if not floor <= covers <= ell:
                problems.append(f"{label}: {covers} covers outside "
                                f"[{floor}, {ell}]")
        else:
            if self._greedy_sha is None:
                run = online.run_online(
                    online.GreedyCover(), tuple(map(core.Subset, self.subsets)),
                    core.Universe(self.n), self.declared, audit=False)
                self._greedy_sha = alloc_sha256(run.allocation.partition_of)
            if alloc_sha256(alloc) != self._greedy_sha:
                problems.append("external: allocation differs from "
                                "in-process GreedyCover")
        if covers > self.declared:
            problems.append(f"{label}: {covers} covers above fmin")
        ref = reference(self.name, n=self.n, fmin=self.fmin, p=self.p,
                        seed=self.seed)
        if ref is not None:
            ref = ref[label]
            if ref["covers"] != covers:
                problems.append(f"{label}: covers {covers} != reference "
                                f"{ref['covers']}")
            if ref["sha256"] != alloc_sha256(alloc):
                problems.append(f"{label}: allocation hash differs from "
                                "reference")
        return problems

    def close(self) -> None:
        for path in (self.path, self.small_path):
            if path is not None:
                with contextlib.suppress(FileNotFoundError):
                    path.unlink()


class GridWorkload(Workload):
    """``run_experiment`` on one small cell that fits the exact solver.

    Job ``j`` uses master seed ``stable_seed(seed, j)``.  The cell has a
    fixed subset count (m=9, plus rare top-ups), so every instance fits the
    exact solver and no single instance dominates a run.  Cells sized as
    fmin/p with top-ups reach 14 subsets, where one branch-and-bound search
    can take seconds and the time per job depends on the seed.
    """

    name = "small-grid"
    job_spans = frozenset({
        "cli.run_experiment", "cli.random_instance",
        "offline.exact_max_disjoint_covers", "core.frequencies",
        "online.run_online", "online.GreedyCover.assign",
        "online.PolyOn.assign", "core.ShrinkState.push",
        "offline.ExpectationTracker.init",
        "offline.ExpectationTracker.recolor", "core.count_covers",
        "core.Allocation"})

    algorithms = ("greedy", "randcolour", "polyon")

    def __init__(self, n: int = 8, p: float = 0.5, m: int = 9, k: int = 2,
                 trials: int = 200):
        self.n, self.p, self.m, self.k, self.trials = n, p, m, k, trials

    def _config(self, master: int, trials: int):
        return cli.ExperimentConfig(n=self.n, p=self.p, m=self.m, k=self.k,
                                    trials=trials, algorithms=self.algorithms,
                                    seed=master)

    def warmup(self) -> None:
        cli.run_experiment(self._config(cli.stable_seed(self.seed, -1), 2))

    def ops(self, job: int) -> list:
        cfg = self._config(cli.stable_seed(self.seed, job), self.trials)
        return [lambda: (job, cli.run_experiment(cfg))]

    def items(self, op: int, output) -> int:
        return len({r.trial for r in output[1]})

    def fingerprint(self, op: int, output) -> str:
        return self.records_sha256(output[1])

    @staticmethod
    def records_sha256(records) -> str:
        rows = [(r.trial, r.n, r.m, r.fmin, r.algo, r.covers, r.upper_bound,
                 r.bound_kind, r.seed) for r in records]
        return hashlib.sha256(repr(rows).encode("ascii")).hexdigest()

    def check(self, op: int, output) -> list[str]:
        job, records = output
        problems = []
        by_trial: dict[int, dict[str, object]] = {}
        for r in records:
            by_trial.setdefault(r.trial, {})[r.algo] = r
        if sorted(by_trial) != list(range(self.trials)):
            problems.append(f"job {job}: trials {sorted(by_trial)}")
        for trial, recs in by_trial.items():
            if tuple(sorted(recs)) != tuple(sorted(self.algorithms)):
                problems.append(f"trial {trial}: algorithms {sorted(recs)}")
                continue
            first = recs["greedy"]
            seq, fmin = cli.random_instance(self.n, self.p, self.m, self.k,
                                            first.seed)
            subsets = [s.members for s in seq]
            want = greedy_covers(subsets, self.n)
            if first.covers != want:
                problems.append(f"trial {trial}: greedy {first.covers} "
                                f"covers, recount {want}")
            for r in recs.values():
                if (r.m, r.fmin, r.bound_kind) != (len(seq), fmin, "exact"):
                    problems.append(f"trial {trial} {r.algo}: m/fmin/bound "
                                    f"{(r.m, r.fmin, r.bound_kind)}")
                if not want <= r.upper_bound <= fmin:
                    problems.append(f"trial {trial}: optimum {r.upper_bound} "
                                    f"outside [{want}, {fmin}]")
                if r.covers > r.upper_bound:
                    problems.append(f"trial {trial} {r.algo}: {r.covers} "
                                    f"covers above optimum {r.upper_bound}")
        ref = reference(self.name, n=self.n, p=self.p, m=self.m, k=self.k,
                        trials=self.trials, seed=self.seed)
        if ref is not None and job == 0:
            covers = {a: sum(r.covers for r in records if r.algo == a)
                      for a in self.algorithms}
            if covers != ref["job0_covers"]:
                problems.append(f"job 0 covers {covers} != reference")
            if ref["job0_records_sha256"] != self.records_sha256(records):
                problems.append("job 0 records differ from reference")
        return problems


def make(name: str) -> Workload:
    if name == "game-polyon":
        return GameWorkload(name, "polyon", 12, extra_spans=(
            "online.PolyOn.assign", "core.ShrinkState.push",
            "offline.ExpectationTracker.init",
            "offline.ExpectationTracker.recolor"))
    if name == "game-greedy":
        return GameWorkload(name, "greedy", 15,
                            extra_spans=("online.GreedyCover.assign",))
    if name == "cell-450":
        return CellWorkload()
    if name == "small-grid":
        return GridWorkload()
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Trace targets: (span name, owner, attribute, observer, keep durations).
# ---------------------------------------------------------------------------

def _observe_recolor(stat, args, result) -> None:
    k = len(args[2])
    counts = stat.counts
    counts["edges"] = counts.get("edges", 0) + k
    if k <= 1:
        counts["small"] = counts.get("small", 0) + 1


def _observe_push(stat, args, result) -> None:
    counts = stat.counts
    counts["pushed"] = counts.get("pushed", 0) + len(args[1])
    counts["kept"] = counts.get("kept", 0) + len(result)


TRACE_TARGETS = (
    ("core.parse_instance", core, "parse_instance", None, False),
    ("core.frequencies", core, "frequencies", None, False),
    ("core.count_covers", core, "count_covers", None, False),
    ("core.Allocation", core.Allocation, "__init__", None, False),
    ("core.ShrinkState.push", core.ShrinkState, "push", _observe_push, False),
    ("online.run_online", online, "run_online", None, False),
    ("online.GreedyCover.assign", online.GreedyCover, "assign", None, False),
    ("online.PolyOn.assign", online.PolyOn, "assign", None, False),
    ("offline.ExpectationTracker.init", offline.ExpectationTracker,
     "__init__", None, False),
    ("offline.ExpectationTracker.recolor", offline.ExpectationTracker,
     "recolor", _observe_recolor, False),
    ("offline.polyoff", offline, "polyoff", None, False),
    ("offline.pairing_offline", offline, "pairing_offline", None, False),
    ("offline.exact_max_disjoint_covers", offline,
     "exact_max_disjoint_covers", None, True),
    ("adversary.play_game", adversary, "play_game", None, False),
    ("adversary.gen_scom", adversary, "gen_scom", None, False),
    ("cli.main", cli, "main", None, False),
    ("cli.random_instance", cli, "random_instance", None, False),
    ("cli.run_experiment", cli, "run_experiment", None, False),
    ("cli.ExternalAlgorithm.assign", cli.ExternalAlgorithm, "assign", None,
     True),
)
