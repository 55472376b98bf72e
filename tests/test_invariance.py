"""Metamorphic relations of the loop: a task's records depend on that task and
the settings, never on its neighbours in the suite.

- Task order: a shuffled suite file gives, per trajectory id, the same record
  in all six trajectory and reward files, bit-identical heads in all three
  policies, and the same dataset accounting.
- Suite extension: for suites A and A+B, A's trajectories, rewards, guidance,
  guided trajectories and guided rewards are identical record for record, up
  to training (training sees every task, so A's trained heads may differ).
"""
import tempfile
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rlvrloop import loop
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
    policy = TabularPolicy.uniform(suite)
    rollouts = loop.rollout(config, suite, policy)
    rewards = loop.evaluate(config, suite, rollouts)
    guidance = loop.guide(config, suite, rollouts, rewards)
    guided_rollouts = loop.reattempt(config, suite, guidance, policy)
    guided_rewards = loop.evaluate(config, suite, guided_rollouts)
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
