"""Tests of the benchmark itself: span arithmetic, metric names, tiny runs."""
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.tracing import Span, Tracer, self_times, totals

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    workloads.LoopRef: dict(count=4, lines=3, candidates=3, rollouts=6, sft_epochs=30, dpo_epochs=60),
    workloads.BestOfK: dict(train=6, held=4, lines=3, candidates=3, rollouts=4, k=8),
}


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("c", 8.0, 9.5, 0, "r"),  # overlaps b: covered once, not twice
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])
    assert totals(spans + [Span("a", 20.0, 21.5, None, "r")])["a"] == pytest.approx(4.5)


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = Tracer()
    tracer.run_id = "run-1"
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("leaf"):
                sum(range(10000))
        with tracer.span("mid"):
            pass
    outer, mid, leaf, mid2 = tracer.spans
    assert (outer.parent, mid.parent, leaf.parent, mid2.parent) == (None, 0, 1, 0)
    assert all(s.run_id == "run-1" for s in tracer.spans)
    selfs = self_times(tracer.spans)
    assert all(t >= 0 for t in selfs)
    assert sum(selfs) == pytest.approx(outer.duration)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.fixture
def checkout(tmp_path):
    """A directory laid out like a checkout: src/ and perfbench/ beside each other."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "perfbench").symlink_to(ROOT / "perfbench")
    return tmp_path


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()), ids=list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, checkout, monkeypatch):
    monkeypatch.setattr(workload, "SIZES", TINY[workload])
    monkeypatch.chdir(checkout)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert code == 0, stdout.getvalue()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = workloads.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not list((checkout / ".perfbench").glob("work-*"))


def test_traced_loop_phases_account_for_its_wall_time(checkout, monkeypatch):
    monkeypatch.setattr(workloads.LoopRef, "SIZES", TINY[workloads.LoopRef])
    originals = {name: getattr(workloads.loop, name) for name in ("rollout_all_tasks", "dpo_train")}
    original_mark, original_load = workloads.RunState.mark, workloads.TabularPolicy.__dict__["load"]
    tracer = Tracer()
    tracer.run_id = "t"
    workload = workloads.LoopRef(0, checkout / "w", 1)
    workload.setup(workloads.Probe(Tracer(enabled=False)))
    assert workload.verify(workload.run(workloads.Probe(Tracer(enabled=False)), 0)).failed_checks == []
    probe = workloads.Probe(tracer)
    assert workload.verify(workload.run(probe, 0)).failed_checks == []  # same hashes as untraced
    assert {name: getattr(workloads.loop, name) for name in originals} == originals
    assert workloads.RunState.mark is original_mark
    assert workloads.TabularPolicy.__dict__["load"] is original_load

    base = probe.base("t")
    phases = [s for s in tracer.spans if s.name.startswith("loop.phase.")]
    assert [s.name.split(".")[-1] for s in phases] == list(workloads.PHASES)
    assert all(tracer.spans[s.parent].name == "loop.run" for s in phases)
    assert 0 <= base["loop.unattributed_s"] < 0.5 * sum(s.duration for s in phases)
    assert base["training.dpo_s"] > 0 and base["evaluator.records"] > 0
    assert base["backends.generate_calls"] >= 2 * base["rollout.trajectories"] > 0
    assert base["guidance.guided_attempts"] == base["guidance.records"]

    workload.manifests[workloads.derive_seed(0, "loop-ref", 1)] = []  # as if input 1 had hashed differently
    checks = workload.verify(workload.run(workloads.Probe(Tracer(enabled=False)), 1 + workload.CYCLE)).failed_checks
    assert checks == ["artifact hashes differ between repeats of one input"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "loop-ref", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
