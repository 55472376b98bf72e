"""Metamorphic relations of the loop: a task's records depend on that task and
the settings, never on its neighbours in the suite.

- Task order: a shuffled suite file gives, per trajectory id, the same record
  in all six trajectory and reward files, bit-identical heads in all three
  policies, and the same dataset accounting.
- Suite extension: for suites A and A+B, A's trajectories, rewards, guidance,
  guided trajectories and guided rewards are identical record for record, up
  to training (training sees every task, so A's trained heads may differ).
- Fault locality: when the policy backend fails some requests, every one of
  them included, run-loop completes (exit 0, or 3 when a request died),
  every record up to training outside the failed slots equals the fault-free
  run's, and the manifest counts exactly the placeholder slots. When the
  teacher garbles or drops some failures' guidance, each of those failures
  has a lost guidance record and no guided records, every other record up to
  training equals the fault-free run's, and the manifest counts the lost
  records.
"""
import functools
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from doubles import FaultyTabularBackend, FaultyTeacher

from rlvrloop import loop
from rlvrloop.cli import main
from rlvrloop.evaluator import EvaluationFailure
from rlvrloop.guidance import render_guidance_request
from rlvrloop.loop import RunConfig, RunPaths, read_artifact, run_loop
from rlvrloop.policy import TabularPolicy
from rlvrloop.tasks import TaskDataset, generate_synth_suite, save_tasks

TRAJECTORIES = ("rollouts", "guided_rollouts", "eval_rollouts")
REWARDS = ("rewards", "guided_rewards", "eval_rewards")
POLICIES = ("policy_init", "policy_sft", "policy_final")
# No shrinking: each example reruns whole loop phases, so shrinking a failure would take minutes.
FAST = dict(derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))

suites = st.fixed_dictionaries({
    "count": st.integers(8, 20),
    "lines": st.integers(3, 5),
    "candidates": st.integers(3, 5),
    "seed": st.integers(0, 2**16),
    "rollouts_n": st.integers(4, 8),
})


def run_on(suite: TaskDataset, directory: Path, draw: dict, workers: int) -> RunPaths:
    directory.mkdir()
    save_tasks(suite, directory / "suite.jsonl")
    run_loop(RunConfig(
        output_dir=str(directory / "run"), tasks_path=str(directory / "suite.jsonl"), seed=draw["seed"],
        workers=workers, rollouts_n=draw["rollouts_n"], sft_epochs=10, dpo_epochs=20,
    ))
    return RunPaths(directory / "run")


def heads(path: Path) -> dict:
    policy = TabularPolicy.load(path)
    return {tid: (h.line_logits.tobytes(), h.cand_logits.tobytes()) for tid, h in policy.heads.items()}


@settings(max_examples=6, **FAST)
@given(draw=suites, data=st.data())
def test_task_order_changes_no_record(draw, data):
    suite = generate_synth_suite(draw["count"], draw["lines"], draw["candidates"], draw["seed"])
    shuffled = TaskDataset(tasks=tuple(data.draw(st.permutations(suite.tasks))))
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_on(suite, Path(tmp, "a"), draw, workers=1), run_on(shuffled, Path(tmp, "b"), draw, workers=4)
        for name in TRAJECTORIES:
            a, b = ({t.traj_id: t for t in read_artifact(name, getattr(run, name))} for run in runs)
            assert a == b, name
        for name in REWARDS:
            a, b = ({r.trajectory_ref: r for r in read_artifact(name, getattr(run, name))} for run in runs)
            assert a == b, name
        for name in POLICIES:
            assert heads(getattr(runs[0], name)) == heads(getattr(runs[1], name)), name
        accounting = [read_artifact("dataset", run.dataset).accounting for run in runs]
        assert accounting[0] == accounting[1]


def up_to_training(config: RunConfig, suite: TaskDataset) -> dict:
    """The values of the phases rollout through evaluate-guided, from a uniform policy."""
    def call(fn, *inputs):  # as run_phase calls a phase function
        return fn(*inputs, **{name: getattr(config, name) for name in loop.setting_parameters(fn)})

    policy = TabularPolicy.uniform(suite)
    rollouts = call(loop.rollout, suite, policy)
    rewards = call(loop.evaluate, suite, rollouts)
    guidance = call(loop.guide, suite, rollouts, rewards)
    guided_rollouts = call(loop.reattempt, suite, guidance, policy)
    guided_rewards = call(loop.evaluate, suite, guided_rollouts)
    return {"rollouts": rollouts, "rewards": rewards, "guidance": guidance,
            "guided_rollouts": guided_rollouts, "guided_rewards": guided_rewards}


@settings(max_examples=10, **FAST)
@given(draw=suites, data=st.data())
def test_extending_the_suite_changes_no_record_of_the_original_tasks(draw, data):
    tasks = data.draw(st.permutations(
        generate_synth_suite(draw["count"], draw["lines"], draw["candidates"], draw["seed"]).tasks
    ))
    split = data.draw(st.integers(1, len(tasks) - 1))
    config = RunConfig(seed=draw["seed"], rollouts_n=draw["rollouts_n"])
    part = up_to_training(config, TaskDataset(tasks=tuple(tasks[:split])))
    whole = up_to_training(config, TaskDataset(tasks=tuple(tasks)))
    ids = {task.id for task in tasks[:split]}
    for name, records in part.items():
        assert [r for r in whole[name] if r.task_id in ids] == records, name


# The fault-locality run: seed 3, 12 tasks of 4x4, 8 rollouts, short training.
FAULT_RUN = ["--seed", "3", "--set", "run.workers=1", "--set", "run.rollouts_n=8", "--set", "tasks.synth_count=12",
             "--set", "tasks.synth_lines=4", "--set", "tasks.synth_candidates=4", "--set", "sft.sft_epochs=20",
             "--set", "dpo.dpo_epochs=20"]
# Each artifact up to training, with the field that names the trajectory a record belongs to.
RECORD_IDS = {"rollouts": "traj_id", "rewards": "trajectory_ref", "guidance": "source_trajectory_ref",
              "guided_rollouts": "traj_id", "guided_rewards": "trajectory_ref"}


def run_loop_cli(directory: Path) -> tuple[int, RunPaths, dict]:
    """run-loop's exit code, its paths, and {artifact: {trajectory id: record}} for each RECORD_IDS file it wrote.

    A lost guidance record (an EvaluationFailure) names its failed trajectory as trajectory_ref."""
    code = main(["run-loop", "--output-dir", str(directory), *FAULT_RUN])
    paths = RunPaths(directory)
    records = {
        name: {r.trajectory_ref if isinstance(r, EvaluationFailure) else getattr(r, key): r
               for r in read_artifact(name, getattr(paths, name))}
        for name, key in RECORD_IDS.items() if getattr(paths, name).exists()
    }
    return code, paths, records


@functools.cache
def fault_free_records() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        code, _, records = run_loop_cli(Path(tmp, "run"))
    assert code == 0 and len(records) == len(RECORD_IDS)
    return records


# (modulus, mask): a request fails when its seed % modulus is in mask, which may hold every residue.
faults = st.integers(3, 9).flatmap(lambda m: st.tuples(
    st.just(m), st.frozensets(st.integers(0, m - 1), min_size=1, max_size=m)
))


@settings(max_examples=8, **FAST)
@given(fault=faults)
@example(fault=(5, frozenset({0})))  # 36 of 96 rollouts and 22 of 56 reattempts die; infra_errors 92
@example(fault=(3, frozenset({0, 1, 2})))  # every request dies: 96 rollouts and 96 eval rollouts; infra_errors 192
def test_a_dead_policy_request_costs_only_its_own_records(fault):
    modulus, mask = fault
    expected = fault_free_records()
    def faulty(endpoint, policy):
        return FaultyTabularBackend(policy, modulus, mask)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(loop, "build_backend", faulty):
        code, paths, got = run_loop_cli(Path(tmp, "run"))
        assert code in (0, 3)
        dead = {i for name in ("rollouts", "guided_rollouts") for i, t in got.get(name, {}).items() if t.is_placeholder}
        for name, records in got.items():
            want = expected[name]
            if name == "guidance":
                want = {ref: g for ref, g in want.items() if ref not in dead}
            elif name == "guided_rollouts":
                live = {g.guidance_id for g in got["guidance"].values()}
                want = {i: t for i, t in want.items() if t.guidance_id in live}
            elif name == "guided_rewards":
                want = {i: r for i, r in want.items() if i in got["guided_rollouts"]}
            assert records.keys() == want.keys(), name
            for i, record in records.items():
                if i not in dead:
                    assert record == want[i], (name, i)
                elif name.endswith("rollouts"):
                    assert record.is_placeholder, (name, i)
                else:
                    assert isinstance(record, EvaluationFailure), (name, i)
        placeholders = sum(
            t.is_placeholder for name in TRAJECTORIES for t in read_artifact(name, getattr(paths, name))
        )
        assert json.loads(paths.manifest.read_text(encoding="utf-8"))["infra_errors"] == placeholders
        assert code == (3 if placeholders else 0)


def run_with_teacher(teacher: FaultyTeacher, directory: Path) -> tuple[int, RunPaths, dict]:
    with mock.patch.object(loop, "build_teacher", lambda endpoint: teacher):
        return run_loop_cli(directory)


@functools.cache
def fault_free_teacher_run() -> tuple[dict, dict]:
    """The records of a run with an unfaulted FaultyTeacher, and {source trajectory id: its teacher request}."""
    with tempfile.TemporaryDirectory() as tmp:
        code, paths, records = run_with_teacher(FaultyTeacher(), Path(tmp, "run"))
        tasks = read_artifact("tasks", paths.tasks).by_id
    assert code == 0 and len(records) == len(RECORD_IDS)
    requests = {
        ref: render_guidance_request(tasks[g.task_id], records["rollouts"][ref], records["rewards"][ref])
        for ref, g in records["guidance"].items()
    }
    return records, requests


@settings(max_examples=8, **FAST)
@given(fault=faults, dead=st.booleans())
@example(fault=(3, frozenset({0, 1, 2})), dead=False)  # every reply is junk: every failure's guidance is lost
@example(fault=(5, frozenset({0})), dead=True)
def test_a_garbled_or_dead_teacher_exchange_costs_only_its_own_guidance(fault, dead):
    modulus, mask = fault
    teacher = FaultyTeacher(modulus, mask, dead)
    expected, requests = fault_free_teacher_run()
    faulted = {ref for ref, request in requests.items() if teacher.faults(request)}
    with tempfile.TemporaryDirectory() as tmp:
        code, paths, got = run_with_teacher(teacher, Path(tmp, "run"))
        manifest = json.loads(paths.manifest.read_text(encoding="utf-8"))
    assert code in (0, 3)
    assert got["rollouts"] == expected["rollouts"] and got["rewards"] == expected["rewards"]
    assert got["guidance"].keys() == expected["guidance"].keys()
    live = set()
    for ref, g in got["guidance"].items():
        if ref in faulted:
            assert isinstance(g, EvaluationFailure) and g.task_id == expected["guidance"][ref].task_id, ref
            assert ("injected fault" if dead else "unusable reply") in g.error, ref
        else:
            assert g == expected["guidance"][ref], ref
            live.add(g.guidance_id)
    want = {i: t for i, t in expected["guided_rollouts"].items() if t.guidance_id in live}
    assert got["guided_rollouts"] == want
    assert got["guided_rewards"] == {i: r for i, r in expected["guided_rewards"].items() if i in want}
    assert manifest["infra_errors"] == len(faulted)
    assert code == (3 if faulted else 0)
