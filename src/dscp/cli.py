"""Command-line front end: generators, solvers, games and the experiment
harness, plus the stdio line protocol for plugging in external algorithms.

Line protocol (child process stdio, one token group per line):

    driver -> child:  INIT <n> <fmin>
    driver -> child:  SUBSET[ <id>]*        (one per arrival; bare SUBSET
                                             for the empty subset)
    child  -> driver: ASSIGN <pid>          (exactly one per SUBSET)
    driver -> child:  END

The driver never sends the next SUBSET before reading the previous ASSIGN,
so irrevocability is enforced on the wire.  Any malformed reply, a reply
line over 64 KiB, a reply after END, a timeout (default 10 s per move, the
send included) or a mid-game child exit is a protocol violation; the run
is scored as zero covers and the process exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import select
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .adversary import (
    BOUNDS,
    VARIANTS,
    gen_scom,
    gen_theorem2,
    max_bound,
    play_game,
    transcript_lines,
)
from .core import (
    MAX_CELLS,
    Allocation,
    Instance,
    Subset,
    Universe,
    count_covers,
    frequencies,
    id_line,
    instance_lines,
    parse_instance,
)
from .offline import (
    LimitExceededError,
    check_fmin,
    exact_max_disjoint_covers,
    polyoff,
)
from .online import (
    GreedyCover,
    OnlineAlgorithm,
    PolyOn,
    RandColour,
    run_online,
)

DEFAULT_TIMEOUT = 10.0
# the longest reply line, in bytes; ASSIGN with the longest pid int() parses
# (4300 digits) fits many times over
MAX_REPLY = 1 << 16

ALGORITHMS = ("greedy", "randcolour", "polyon", "external")


def stable_seed(master: int, *parts: object) -> int:
    """Stable 64-bit sub-seed: the first 8 bytes (big endian) of
    sha256("<master>:<part>:<part>...").  Used to derive per-trial and
    per-algorithm seeds from one master seed, reproducibly across runs,
    platforms and worker pools."""
    text = ":".join(str(p) for p in (master, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def random_instance(n: int, p: float, m: int, k: int,
                    seed: int) -> tuple[list[Subset], int]:
    """Random instance: m subsets drawing each element with probability p,
    then singleton top-ups so every element reaches frequency at least k.

    Returns the sequence and its declared fmin (the true minimum frequency
    of the final sequence, always >= k).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 1:
        raise ValueError("target fmin must be at least 1")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if m < 0:
        raise ValueError("m must be non-negative")
    # the m x n draw plus up to k singleton top-ups per element
    if n * (m + k) > MAX_CELLS:
        raise ValueError(f"{n} x ({m} + {k}) cells exceed {MAX_CELLS}")
    rng = np.random.default_rng(seed)
    hits = rng.random((m, n)) < p
    subsets = [Subset(tuple(np.flatnonzero(row).tolist())) for row in hits]
    counts = hits.sum(axis=0) if m else np.zeros(n, dtype=np.int64)
    for i in range(n):
        short = k - int(counts[i])
        if short > 0:
            subsets.extend([Subset((i,))] * short)
    declared = max(k, int(counts.min()))
    return subsets, declared


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid; random_instance checks n, p, m, k."""

    n: int
    p: float
    m: int
    k: int
    trials: int
    algorithms: tuple[str, ...]
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name in self.algorithms:
            if name not in ALGORITHMS or name == "external":
                raise ValueError(f"unknown experiment algorithm {name!r}")


@dataclass(frozen=True)
class ExperimentRecord:
    """One (trial, algorithm) measurement.

    ``upper_bound`` is the exact optimum when the instance fits the exact
    solver and the declared fmin otherwise; ``bound_kind`` says which, and
    stays out of the serialized output.  ``ratio_lower`` = upper_bound /
    covers is an upper bound on the achieved optimality gap.
    """

    trial: int
    n: int
    m: int
    fmin: int
    algo: str
    covers: int
    upper_bound: int
    ratio_lower: float
    seed: int
    millis: int
    bound_kind: str = "fmin"


CSV_FIELDS = ("trial", "n", "m", "fmin", "algo", "covers", "upper_bound",
              "ratio_lower", "seed", "millis")


def make_algorithm(name: str, *, seed: int = 0,
                   num_colors: int | None = None,
                   cmd: str | None = None,
                   timeout: float = DEFAULT_TIMEOUT) -> OnlineAlgorithm:
    """Build an online algorithm by registry name."""
    if name == "greedy":
        return GreedyCover()
    if name == "randcolour":
        return RandColour(seed=seed, num_colors=num_colors)
    if name == "polyon":
        return PolyOn(num_colors=num_colors)
    if name == "external":
        if not cmd:
            raise ValueError("external algorithm needs --cmd")
        return ExternalAlgorithm(cmd, timeout=timeout)
    raise ValueError(f"unknown algorithm {name!r}")


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run every configured algorithm over ``trials`` seeded instances.

    Each trial draws its instance from stable_seed(master, trial); each
    randomized algorithm is seeded with stable_seed(master, trial, name).
    Records are deterministic given the config, except for ``millis``.
    """
    universe = Universe(cfg.n)
    records: list[ExperimentRecord] = []
    for trial in range(cfg.trials):
        seed = stable_seed(cfg.seed, trial)
        subsets, fmin = random_instance(cfg.n, cfg.p, cfg.m, cfg.k, seed)
        try:
            upper = exact_max_disjoint_covers(subsets, universe).opt
            kind = "exact"
        except LimitExceededError:
            upper, kind = fmin, "fmin"
        for name in cfg.algorithms:
            algo = make_algorithm(
                name, seed=stable_seed(cfg.seed, trial, name))
            start = time.perf_counter()
            result = run_online(algo, subsets, universe, fmin, audit=False)
            millis = int((time.perf_counter() - start) * 1000)
            ratio = upper / result.covers if result.covers else float("inf")
            records.append(ExperimentRecord(
                trial=trial, n=cfg.n, m=len(subsets), fmin=fmin, algo=name,
                covers=result.covers, upper_bound=upper, ratio_lower=ratio,
                seed=seed, millis=millis, bound_kind=kind))
    return records


def emit_results(records: Sequence[ExperimentRecord], fmt: str = "csv",
                 path: str | None = None) -> None:
    """Write records as CSV (fixed header) or JSON (array of objects with
    the same field names) to ``path`` or stdout."""
    for r in records:
        if r.covers > r.upper_bound:
            raise ValueError(
                f"record claims {r.covers} covers above bound "
                f"{r.upper_bound}: {r}")
    if fmt == "csv":
        # every field is an int, a float or a registry name: nothing to quote
        rows = chain([CSV_FIELDS], ([getattr(r, f) for f in CSV_FIELDS]
                                    for r in records))
        lines = (",".join(map(str, row)) + "\n" for row in rows)
    elif fmt == "json":
        rows = [{f: getattr(r, f) for f in CSV_FIELDS} for r in records]
        for row in rows:  # JSON has no infinity: null where CSV writes inf
            if not math.isfinite(row["ratio_lower"]):
                row["ratio_lower"] = None
        lines = (json.dumps(rows, indent=1, allow_nan=False) + "\n",)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    _write_text(lines, path)


# ---------------------------------------------------------------------------
# external algorithm protocol
# ---------------------------------------------------------------------------

class ProtocolViolationError(RuntimeError):
    """The external child process broke the line protocol."""


class ExternalAlgorithm(OnlineAlgorithm):
    """Adapter driving a child process over the stdio line protocol."""

    def __init__(self, command: str | Sequence[str],
                 timeout: float = DEFAULT_TIMEOUT):
        if isinstance(command, str):
            command = shlex.split(command)
        if not command:
            raise ValueError("empty external command")
        if not 0 < timeout < math.inf:
            raise ValueError("timeout must be a positive, finite number")
        self.command = list(command)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._buf = b""

    def init(self, universe: Universe, fmin: int) -> None:
        # a stream that stopped before finish still holds its child
        self.close()
        self._buf = b""
        self._proc = subprocess.Popen(
            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            bufsize=0)
        # writes go through select too, so a child that stops reading
        # cannot block the driver past its deadline
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._send(f"INIT {universe.n} {fmin}",
                   time.monotonic() + self.timeout)

    def assign(self, subset: Subset) -> int:
        deadline = time.monotonic() + self.timeout
        words = ["SUBSET"] + [str(i) for i in subset.members]
        self._send(" ".join(words), deadline)
        line = self._read_line(deadline)
        parts = line.split()
        if len(parts) != 2 or parts[0] != "ASSIGN":
            raise self._violation(f"expected 'ASSIGN <pid>', got {line!r}")
        try:
            pid = int(parts[1])
        except ValueError:
            raise self._violation(f"non-integer partition id {parts[1]!r}")
        if pid < 0:
            raise self._violation(f"negative partition id {pid}")
        return pid

    def finish(self) -> None:
        if self._proc is None:
            return
        # exiting right after the final reply is legal; END is best effort
        # once every subset has been answered
        with contextlib.suppress(ProtocolViolationError):
            self._send("END", time.monotonic() + self.timeout)
        leftover = self._drain()
        self.close(grace=1.0)
        if leftover.strip():
            raise ProtocolViolationError(
                f"output after the last reply: {leftover[:200]!r}")

    def close(self, grace: float = 0.0) -> None:
        """Close the pipes; kill the child unless it exits within ``grace``."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def _violation(self, message: str) -> ProtocolViolationError:
        self.close()
        return ProtocolViolationError(message)

    def _send(self, line: str, deadline: float) -> None:
        if self._proc is None:
            raise RuntimeError("external algorithm not initialized")
        fd = self._proc.stdin.fileno()
        data = (line + "\n").encode("utf-8")
        while data:
            try:
                data = data[os.write(fd, data):]
            except BlockingIOError:
                if not _ready(fd, True, deadline):
                    raise self._violation(
                        f"input not read within {self.timeout} s") from None
            except OSError as exc:
                raise self._violation(
                    f"child stopped reading: {exc}") from None

    def _read_line(self, deadline: float) -> str:
        fd = self._proc.stdout.fileno()
        end = self._buf.find(b"\n")
        while end < 0 and len(self._buf) <= MAX_REPLY:
            if not _ready(fd, False, deadline):
                raise self._violation(
                    f"no reply within {self.timeout} s")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise self._violation("child exited before replying")
            self._buf += chunk
            end = self._buf.find(b"\n", len(self._buf) - len(chunk))
        if not 0 <= end <= MAX_REPLY:
            raise self._violation(
                f"reply line longer than {MAX_REPLY} bytes")
        line, self._buf = self._buf[:end], self._buf[end + 1:]
        return line.decode("utf-8", errors="replace").strip()

    def _drain(self) -> bytes:
        """Collect what the child still writes (briefly, and about
        MAX_REPLY bytes at most) after END."""
        out, self._buf = self._buf, b""
        if self._proc is None:
            return out
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + min(self.timeout, 0.5)
        while len(out) < MAX_REPLY and _ready(fd, False, deadline):
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            out += chunk
        return out


def _ready(fd: int, write: bool, deadline: float) -> bool:
    """Wait until ``fd`` can be written (or read); False at ``deadline``."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return False
    waits = ([], [fd]) if write else ([fd], [])
    return any(select.select(*waits, [], remaining)[:2])


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1 (2 is reserved
    for protocol violations)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_instance(path: str | None) -> Instance:
    if path is None or path == "-":
        return parse_instance(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh)


def _write_text(lines: Iterable[str], path: str | None) -> None:
    """Write text pieces (a string as ``(text,)``) to ``path`` or stdout."""
    if path is None:
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def cmd_gen_theorem2(args) -> int:
    seq = gen_theorem2(args.n, args.m, args.variant)
    universe = Universe(args.n)
    fmin = frequencies(seq, universe).fmin
    _write_text(instance_lines(universe, seq, fmin), args.output)
    return 0


def cmd_gen_scom(args) -> int:
    seq = gen_scom(args.q)
    _write_text(instance_lines(Universe(1 << args.q), seq), args.output)
    return 0


def cmd_gen_random(args) -> int:
    seq, fmin = random_instance(args.n, args.p, args.m, args.fmin, args.seed)
    _write_text(instance_lines(Universe(args.n), seq, fmin), args.output)
    return 0


def cmd_offline_exact(args) -> int:
    inst = _load_instance(args.instance)
    result = exact_max_disjoint_covers(inst.subsets, inst.universe)
    print(f"covers {result.opt}")
    _write_text(id_line("allocation", result.witness.partition_of), None)
    return 0


def cmd_offline_polyoff(args) -> int:
    inst = _load_instance(args.instance)
    coloring = polyoff(inst.subsets, inst.universe, num_colors=args.colors)
    covers = count_covers(Allocation(coloring.color_of), inst.subsets,
                          inst.universe)
    print(f"colors {coloring.num_colors}\ncovers {covers}")
    _write_text(id_line("allocation", coloring.color_of), None)
    return 0


def _run_algorithm(args, score: str, run):
    """Return ``run(algo)`` for ``args.algo``, always closing an external
    child; a protocol violation prints a zero ``score`` and returns None."""
    algo = make_algorithm(args.algo, seed=args.seed, num_colors=args.colors,
                          cmd=args.cmd, timeout=args.timeout)
    try:
        return run(algo)
    except ProtocolViolationError as exc:
        print(f"algo {args.algo}")
        print(f"{score} 0")
        print(f"protocol violation: {exc}", file=sys.stderr)
        return None
    finally:
        if isinstance(algo, ExternalAlgorithm):
            algo.close()


def cmd_online(args) -> int:
    inst = _load_instance(args.instance)
    fmin = args.fmin if args.fmin is not None else inst.fmin
    audit = fmin is not None
    if fmin is None:
        # no element falls under its own true minimum: nothing to audit
        fmin = frequencies(inst.subsets, inst.universe).fmin
    if fmin < 1:
        raise ValueError(
            "instance has fmin < 1; pass --fmin or fix the instance")
    result = _run_algorithm(args, "covers", lambda algo: run_online(
        algo, inst.subsets, inst.universe, fmin, audit=audit))
    if result is None:
        return 2
    print(f"algo {args.algo}\nfmin {fmin}\ncovers {result.covers}")
    if result.underfull:
        _write_text(id_line("underfull", result.underfull, ","), None)
    _write_text(id_line("allocation", result.allocation.partition_of), None)
    return 0


def cmd_adversary(args) -> int:
    game = _run_algorithm(args, "t_online", lambda algo: play_game(
        algo, args.q, args.variant))
    if game is None:
        return 2
    print(f"algo {args.algo}\nq {args.q}\nvariant {args.variant}\n"
          f"t_online {game.t_online}\nbound {game.bound}\n"
          f"split {'yes' if game.split else 'no'}\n"
          f"offline {game.offline}\nratio_lower {game.ratio_lower!r}")
    if args.save:
        _write_text(transcript_lines(game.transcript), args.save)
    return 0


def cmd_bound(args) -> int:
    if args.sizes is not None:
        print(f"bound {BOUNDS[args.variant](args.sizes, args.q)}")
    else:
        value, witness = max_bound(args.q, args.variant)
        print(f"max_bound {value}")
        _write_text(id_line("witness", witness, ","), None)
    return 0


def cmd_experiment(args) -> int:
    algos = tuple(tok for tok in args.algos.split(",") if tok)
    records: list[ExperimentRecord] = []
    for n in args.n:
        for k in args.fmin:
            m = args.m
            if m is None:
                # random_instance refuses any other p
                m = round(check_fmin(k) / args.p) if 0 < args.p <= 1 else 0
            cfg = ExperimentConfig(n=n, p=args.p, m=m, k=k,
                                   trials=args.trials, algorithms=algos,
                                   seed=args.seed)
            records.extend(run_experiment(cfg))
    emit_results(records, args.format, args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dscp",
                     description="Disjoint set cover tools: generators, "
                                 "offline and online solvers, adversarial "
                                 "games and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate instances")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    g_t2 = gen_sub.add_parser("theorem2",
                              help="two-variant worst case for "
                                   "fmin-oblivious online play")
    g_t2.add_argument("--n", type=int, required=True)
    g_t2.add_argument("--m", type=int, required=True)
    g_t2.add_argument("--variant", type=int, choices=(1, 2), required=True)
    g_t2.add_argument("-o", "--output")
    g_t2.set_defaults(func=cmd_gen_theorem2)

    g_sc = gen_sub.add_parser("scom",
                              help="bit-position opening subsets over "
                                   "{0,1}^q")
    g_sc.add_argument("--q", type=int, required=True)
    g_sc.add_argument("-o", "--output")
    g_sc.set_defaults(func=cmd_gen_scom)

    g_rn = gen_sub.add_parser("random", help="seeded random instance")
    g_rn.add_argument("--n", type=int, required=True)
    g_rn.add_argument("--p", type=float, required=True)
    g_rn.add_argument("--m", type=int, required=True)
    g_rn.add_argument("--fmin", type=int, required=True,
                      help="top up every element to this frequency")
    g_rn.add_argument("--seed", type=int, default=0)
    g_rn.add_argument("-o", "--output")
    g_rn.set_defaults(func=cmd_gen_random)

    p_off = sub.add_parser("offline", help="offline solvers")
    off_sub = p_off.add_subparsers(dest="solver", required=True)

    o_ex = off_sub.add_parser("exact", help="exact branch and bound")
    o_ex.add_argument("instance", nargs="?",
                      help="instance file (default stdin)")
    o_ex.set_defaults(func=cmd_offline_exact)

    o_po = off_sub.add_parser("polyoff", help="derandomized recoloring")
    o_po.add_argument("instance", nargs="?")
    o_po.add_argument("--colors", type=int, default=None)
    o_po.set_defaults(func=cmd_offline_polyoff)

    algo_opts = _Parser(add_help=False)
    algo_opts.add_argument("--algo", choices=ALGORITHMS, required=True)
    algo_opts.add_argument("--seed", type=int, default=0)
    algo_opts.add_argument("--colors", type=int, default=None)
    algo_opts.add_argument("--cmd", help="external child command line")
    algo_opts.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)

    p_on = sub.add_parser("online", parents=[algo_opts],
                          help="stream an instance through an online "
                               "algorithm")
    p_on.add_argument("instance", nargs="?")
    p_on.add_argument("--fmin", type=int, default=None,
                      help="override the declared minimum frequency")
    p_on.set_defaults(func=cmd_online)

    p_adv = sub.add_parser("adversary", parents=[algo_opts],
                           help="play the lower-bound game")
    p_adv.add_argument("--q", type=int, required=True)
    p_adv.add_argument("--variant", choices=VARIANTS, required=True)
    p_adv.add_argument("--save", help="write the transcript here")
    p_adv.set_defaults(func=cmd_adversary)

    p_bnd = sub.add_parser("bound", help="structural online-cover bounds")
    p_bnd.add_argument("--q", type=int, required=True)
    p_bnd.add_argument("--variant", choices=VARIANTS, required=True)
    p_bnd.add_argument("--sizes", type=_int_list, default=None,
                       help="comma-separated class sizes; omit to maximize "
                            "over all of them")
    p_bnd.set_defaults(func=cmd_bound)

    p_exp = sub.add_parser("experiment", help="seeded experiment grid")
    p_exp.add_argument("--n", type=_int_list, required=True,
                       help="comma-separated universe sizes")
    p_exp.add_argument("--fmin", type=_int_list, required=True,
                       help="comma-separated target minimum frequencies")
    p_exp.add_argument("--p", type=float, default=0.2)
    p_exp.add_argument("--m", type=int, default=None,
                       help="subsets per instance (default fmin/p)")
    p_exp.add_argument("--trials", type=int, default=5)
    p_exp.add_argument("--algos", default="greedy,randcolour,polyon")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("-o", "--output")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
