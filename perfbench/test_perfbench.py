"""Tests of the benchmark itself: span accounting, binding-site patching,
failure counting and agreement with BENCHMARK.json.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import dscp  # noqa: E402
import dscp.adversary as adversary  # noqa: E402
import dscp.cli as cli  # noqa: E402
import dscp.core as core  # noqa: E402
import dscp.online as online  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_traced_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 3.0

    def inner():
        clock.now += 0.5
        traced_leaf()
        traced_leaf()

    def outer():
        clock.now += 2.0
        traced_inner()
        clock.now += 1.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    stats = tracer.snapshot()
    assert stats["outer"].self_s == 3.0
    assert stats["inner"].self_s == 0.5
    assert stats["leaf"].self_s == 6.0
    assert [stats[k].calls for k in ("outer", "inner", "leaf")] == [1, 1, 2]
    assert tracer.snapshot() == {}


def test_span_records_a_raising_call():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    traced = tracer.wrap("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert tracer.snapshot()["boom"].self_s == 1.0


def test_install_patches_every_binding_site_and_restores():
    originals = {
        (mod.__name__, attr): getattr(mod, attr)
        for mod in (core, online, adversary, cli, dscp.offline)
        for attr in vars(mod)}
    tracer = Tracer()
    tracer.install(workloads.TRACE_TARGETS)
    try:
        for module, attr in [
                (online, "count_covers"), (adversary, "count_covers"),
                (cli, "count_covers"), (adversary, "pairing_offline"),
                (cli, "parse_instance"), (cli, "polyoff"),
                (cli, "exact_max_disjoint_covers"), (cli, "random_instance"),
                (cli, "run_online"), (dscp, "count_covers")]:
            assert hasattr(getattr(module, attr), "__wrapped_span__"), \
                f"{module.__name__}.{attr} not traced"
        wrapped = {id(fn.__wrapped__) for _, owner, attr, _, _ in
                   workloads.TRACE_TARGETS
                   if not isinstance(owner, type)
                   for fn in [getattr(owner, attr)]}
        for name, module in list(sys.modules.items()):
            if name == "dscp" or name.startswith("dscp."):
                for key, value in vars(module).items():
                    assert id(value) not in wrapped, f"{name}.{key} untraced"
        assert hasattr(core.ShrinkState.push, "__wrapped_span__")
    finally:
        tracer.uninstall()
    for (mod_name, attr), value in originals.items():
        assert getattr(sys.modules[mod_name], attr) is value


class TamperedGame(workloads.GameWorkload):
    """A small greedy game whose second job returns a forged allocation."""

    def __init__(self):
        super().__init__("test-game", "greedy", 6)

    def ops(self, job):
        def op():
            result = self._play(self.q)
            if job == 1:
                t = result.transcript
                forged = core.Allocation(tuple(range(len(t.sequence))))
                result = dataclasses.replace(
                    result, transcript=dataclasses.replace(
                        t, allocation=forged))
            return result
        return [op]


class RaisingGame(workloads.GameWorkload):
    def __init__(self):
        super().__init__("test-game", "greedy", 6)

    def ops(self, job):
        if job == 1:
            return [lambda: adversary.play_game(online.GreedyCover(), 1, "sb")]
        return super().ops(job)


def test_tampered_allocation_counts_as_failed():
    tally = run.measure(TamperedGame(), 0.0, 0, {})
    assert (tally.attempted, tally.failed) == (2, 1)
    assert any("recount" in p for p in tally.problems)


def test_raising_job_counts_as_failed():
    tally = run.measure(RaisingGame(), 0.0, 0, {})
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.problems[0].startswith("ValueError")


def test_cell_external_child_matches_in_process_greedy(tmp_path):
    workload = workloads.CellWorkload(n=30, fmin=30)
    workload.setup(0, tmp_path)
    try:
        tally = run.measure(workload, 0.0, 0, {})
    finally:
        workload.close()
    assert tally.problems == []
    assert (tally.attempted, tally.failed) == (6, 0)
    assert workload._greedy_sha is not None


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in run.PER_LAYER] + [run.OVERHEAD]
    spans = {span for _, _, span, _ in run.PER_LAYER}
    assert spans == {name for name, *_ in workloads.TRACE_TARGETS}
    for name in run.NAMES:
        expected = workloads.make(name)
        assert expected.job_spans | expected.setup_spans <= spans
