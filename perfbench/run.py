"""Benchmark for the dscp package: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload game-polyon --seed 0 --seconds 30 \
        --trace 0

runs one workload in this process: it imports the package from ``src/``,
sets up (three times; ``setup_s`` is the import time plus the median set-up),
then runs jobs back to back for ``--seconds`` seconds and checks every
output.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds per
job), ``items_per_s``, ``setup_s`` and ``peak_rss_mib``.  ``--trace 1``
spends half the time untraced and half with the package's public functions
wrapped in spans (see ``tracer.py``), and reports the per-layer metrics plus
``trace.overhead_ratio``, the traced median job time over the untraced one.

``--workload all`` runs every workload, each in a fresh process so that
``peak_rss_mib`` is its own, and prints one summary line per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPS = 3
MIN_JOBS = 2
NAMES = ("game-polyon", "game-greedy", "cell-450", "small-grid")

END_TO_END = (
    ("wall_s", "s"), ("items_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mib", "MiB"))

# (metric, unit, span, how): how is "calls" or "self_s" (median per job),
# a (numerator, denominator) pair of pooled counters, or a percentile spec.
PER_LAYER = (
    ("offline.ExpectationTracker.recolor.calls", "count",
     "offline.ExpectationTracker.recolor", "calls"),
    ("offline.ExpectationTracker.recolor.self_s", "s",
     "offline.ExpectationTracker.recolor", "self_s"),
    ("offline.ExpectationTracker.recolor.edges", "edges/call",
     "offline.ExpectationTracker.recolor", ("edges", "calls")),
    ("offline.ExpectationTracker.recolor.small_share", "ratio",
     "offline.ExpectationTracker.recolor", ("small", "calls")),
    ("offline.ExpectationTracker.init.self_s", "s",
     "offline.ExpectationTracker.init", "self_s"),
    ("core.ShrinkState.push.self_s", "s", "core.ShrinkState.push", "self_s"),
    ("core.ShrinkState.push.kept_ratio", "ratio", "core.ShrinkState.push",
     ("kept", "pushed")),
    ("core.count_covers.calls", "count", "core.count_covers", "calls"),
    ("core.count_covers.self_s", "s", "core.count_covers", "self_s"),
    ("core.Allocation.self_s", "s", "core.Allocation", "self_s"),
    ("core.parse_instance.self_s", "s", "core.parse_instance", "self_s"),
    ("core.frequencies.self_s", "s", "core.frequencies", "self_s"),
    ("offline.pairing_offline.self_s", "s", "offline.pairing_offline",
     "self_s"),
    ("offline.polyoff.self_s", "s", "offline.polyoff", "self_s"),
    ("offline.exact_max_disjoint_covers.calls", "count",
     "offline.exact_max_disjoint_covers", "calls"),
    ("offline.exact_max_disjoint_covers.self_s", "s",
     "offline.exact_max_disjoint_covers", "self_s"),
    ("offline.exact_max_disjoint_covers.p50_ms", "ms",
     "offline.exact_max_disjoint_covers", ("pct", 0.5, 1e3)),
    ("offline.exact_max_disjoint_covers.max_s", "s",
     "offline.exact_max_disjoint_covers", ("pct", 1.0, 1.0)),
    ("adversary.play_game.self_s", "s", "adversary.play_game", "self_s"),
    ("adversary.gen_scom.self_s", "s", "adversary.gen_scom", "self_s"),
    ("online.run_online.self_s", "s", "online.run_online", "self_s"),
    ("online.GreedyCover.assign.self_s", "s", "online.GreedyCover.assign",
     "self_s"),
    ("online.PolyOn.assign.self_s", "s", "online.PolyOn.assign", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.random_instance.self_s", "s", "cli.random_instance", "self_s"),
    ("cli.run_experiment.self_s", "s", "cli.run_experiment", "self_s"),
    ("cli.ExternalAlgorithm.assign.calls", "count",
     "cli.ExternalAlgorithm.assign", "calls"),
    ("cli.ExternalAlgorithm.assign.self_s", "s",
     "cli.ExternalAlgorithm.assign", "self_s"),
    ("cli.ExternalAlgorithm.assign.p50_us", "us",
     "cli.ExternalAlgorithm.assign", ("pct", 0.5, 1e6)),
    ("cli.ExternalAlgorithm.assign.p999_us", "us",
     "cli.ExternalAlgorithm.assign", ("pct", 0.999, 1e6)),
)
OVERHEAD = ("trace.overhead_ratio", "ratio")


class Tally:
    """Job times, item counts and operation outcomes of one phase."""

    def __init__(self):
        self.walls: list[float] = []
        self.items: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[dict] = []


def run_job(workload, job: int):
    """Run one job's operations back to back; return the summed wall time
    and each operation's (output, error)."""
    outputs = []
    wall = 0.0
    for op in workload.ops(job):
        start = time.perf_counter()
        try:
            outputs.append((op(), None))
        except Exception as exc:  # a failing operation is a result
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        wall += time.perf_counter() - start
    return wall, outputs


def tally_job(workload, wall: float, outputs, tally: Tally,
              verdicts: dict) -> None:
    """Check a job's outputs and record it.  Each distinct output (by
    fingerprint) is checked once; an operation that raised or whose output
    fails its check counts as failed."""
    items = 0
    for i, (out, error) in enumerate(outputs):
        tally.attempted += 1
        if error is None:
            key = workload.fingerprint(i, out)
            if key not in verdicts:
                verdicts[key] = workload.check(i, out)
            problems = verdicts[key]
            items += workload.items(i, out)
        else:
            problems = [error]
        if problems:
            tally.failed += 1
            tally.problems.extend(problems)
    tally.walls.append(wall)
    tally.items.append(items)


def measure(workload, seconds: float, first_job: int, verdicts: dict,
            tracer=None) -> Tally:
    """Run jobs until the next one would end after ``seconds`` (at least
    MIN_JOBS).  With a tracer, each job's spans are kept and the spans of
    the checks are dropped."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    job = first_job
    while True:
        # every job starts from the same heap: no earlier output alive, no
        # collection owed
        gc.collect()
        wall, outputs = run_job(workload, job)
        if tracer is not None:
            tally.spans.append(tracer.snapshot())
        tally_job(workload, wall, outputs, tally, verdicts)
        del outputs
        if tracer is not None:
            tracer.snapshot()
        job += 1
        done = len(tally.walls)
        if (done >= MIN_JOBS and time.perf_counter()
                + statistics.median(tally.walls) > deadline):
            return tally


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; q=1.0 is the maximum."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(workload, setup_spans: dict, job_spans: list[dict],
                  overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics and the expected spans that recorded no calls."""
    def phase(span):
        return [setup_spans] if span in workload.setup_spans else job_spans

    missing = sorted(
        span for span in workload.job_spans | workload.setup_spans
        if not all(snap.get(span) and snap[span].calls for snap in phase(span)))
    metrics = {}
    for name, unit, span, how in PER_LAYER:
        stats = [snap.get(span) for snap in phase(span)]
        if how in ("calls", "self_s"):
            value = statistics.median(
                getattr(s, how) if s else 0 for s in stats)
        elif how[0] == "pct":
            pooled = [d for s in stats if s for d in s.durations]
            value = percentile(pooled, how[1]) * how[2]
        else:
            num = sum(s.counts.get(how[0], 0) for s in stats if s)
            den = sum(s.calls if how[1] == "calls"
                      else s.counts.get(how[1], 0) for s in stats if s)
            value = num / den if den else 0.0
        metrics[name] = {"value": value, "unit": unit}
    metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    return metrics, missing


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def run_one(args) -> int:
    if not (SRC / "dscp" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy
    import workloads
    import_s = time.perf_counter() - start
    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        print("perfbench: dscp was not imported from src/", file=sys.stderr)
        return 2
    from tracer import Tracer

    workload = workloads.make(args.workload)
    tracer = Tracer() if args.trace else None
    WORKDIR.mkdir(exist_ok=True)
    try:
        setup_times = []
        setup_spans: dict = {}
        for rep in range(SETUP_REPS):
            trace_setup = tracer is not None and rep == SETUP_REPS - 1
            if trace_setup:
                tracer.install(workloads.TRACE_TARGETS)
            start = time.perf_counter()
            workload.setup(args.seed, WORKDIR)
            workload.warmup()
            setup_times.append(time.perf_counter() - start)
            if trace_setup:
                setup_spans = tracer.snapshot()
                tracer.uninstall()
        verdicts: dict = {}
        if tracer is None:
            tallies = [measure(workload, args.seconds, 0, verdicts)]
            peak_rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            plain = measure(workload, args.seconds / 2, 0, verdicts)
            tracer.install(workloads.TRACE_TARGETS)
            try:
                spanned = measure(workload, args.seconds / 2,
                                  len(plain.walls), verdicts, tracer)
            finally:
                tracer.uninstall()
            tallies = [plain, spanned]
    finally:
        workload.close()
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    if tracer is None:
        wall_s = statistics.median(tallies[0].walls)
        values = {"wall_s": wall_s,
                  "items_per_s": statistics.median(tallies[0].items) / wall_s,
                  "setup_s": import_s + statistics.median(setup_times),
                  "peak_rss_mib": peak_rss_mib}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        overhead = (statistics.median(tallies[1].walls)
                    / statistics.median(tallies[0].walls))
        metrics, missing = layer_metrics(workload, setup_spans,
                                         tallies[1].spans, overhead)
        problems.extend(f"expected span {span} recorded no calls"
                        for span in missing)
    correct = failed == 0 and not problems

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "commit": commit(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "loadavg_before": load_before,
           "loadavg_after": os.getloadavg(),
           "jobs": [len(t.walls) for t in tallies],
           "wall_quartiles": [statistics.quantiles(t.walls, n=4)
                              for t in tallies]}
    print("env " + json.dumps(env))
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"fail_rate {failed / attempted:.6f} ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one summary line per workload."""
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n"
                  f"{proc.stderr}")
            status = 1
            continue
        rate = result["failed"] / result["attempted"]
        parts = [f"{k} {v['value']:.6g} {v['unit']}"
                 for k, v in result["metrics"].items()]
        print(f"{name}: fail_rate {rate:.6g} | " + " | ".join(parts))
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stderr, end="")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
