"""CLI subcommands, exit codes, and stepwise/loop artifact equivalence."""
import argparse
import json
import shutil
import socket
from collections import Counter

import pytest

from rlvrloop.cli import build_parser, main
from rlvrloop.errors import GuidanceError
from rlvrloop.jsonl import canonical_file_hash
from rlvrloop.loop import ARTIFACTS, PHASE_TABLE, PHASES, RM_TABLE, read_artifact
from rlvrloop.evaluator import EvaluationFailure, RewardRecord, read_rewards, write_rewards
from rlvrloop.pairs import PROVENANCE_ROLLOUT, load_dataset
from rlvrloop.prompts import HINT_DELIMITER
from rlvrloop.reward_model import FEATURIZATION_VERSION, RM_SCHEMA
from rlvrloop.rollout import Patch, Step, Trajectory, write_trajectories
from rlvrloop.backends import SamplingParams
from rlvrloop.policy import TabularPolicy
from rlvrloop.tasks import EnvSpec, Task, TestSuite, TaskDataset, generate_synth_suite, save_tasks

SEED = 0
N = 6
# the settings every command below takes, stepwise and run-loop alike
SMALL_SETS = [
    "run.workers=1", f"run.rollouts_n={N}", "tasks.synth_count=4", "tasks.synth_lines=3",
    "tasks.synth_candidates=3", "sft.sft_epochs=30", "dpo.dpo_epochs=60",
]
# assembly and training settings away from their defaults
NON_DEFAULT_SETS = [
    "assemble.sft_fraction=0.5", "assemble.max_pairs_per_task=2",
    "assemble.include_guided_in_sft=true", "sft.sft_learning_rate=0.3",
    "dpo.dpo_beta=0.25", "dpo.dpo_learning_rate=0.8",
]

# the sixteen files both the loop and the stepwise pipeline produce
COMPARABLE = tuple(ARTIFACTS.values())


def run(argv):
    return main([str(a) for a in argv])


def settings(sets):
    argv = ["--seed", SEED]
    for item in sets:
        argv += ["--set", item]
    return argv


def flag(artifact):
    return "--" + artifact.replace("_", "-")


def phase_argv(phase, d, sets):
    """The stepwise command for one phase, every artifact named as run-loop names it in d."""
    argv = [phase.name, *settings(sets)]
    for artifact in (*phase.inputs, *phase.outputs):
        argv += [flag(artifact), d / ARTIFACTS[artifact]]
    return argv


def run_stepwise(d, sets, phases=PHASE_TABLE):
    for phase in phases:
        assert run(phase_argv(phase, d, sets)) == 0, phase.name


def run_loop_cli(d, sets):
    assert run(["run-loop", "--output-dir", d, *settings(sets)]) == 0


@pytest.fixture(scope="module")
def stepwise(tmp_path_factory):
    """The full pipeline driven one subcommand at a time."""
    d = tmp_path_factory.mktemp("stepwise")
    run_stepwise(d, SMALL_SETS)
    return d


@pytest.fixture(scope="module")
def loop_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("loop") / "run"
    run_loop_cli(out, SMALL_SETS)
    return out


def test_stepwise_pipeline_matches_loop_byte_for_byte(stepwise, loop_dir):
    """Subcommand composition is the loop: every artifact hash agrees."""
    assert len(COMPARABLE) == 16
    for name in COMPARABLE:
        assert canonical_file_hash(stepwise / name) == canonical_file_hash(loop_dir / name), name
    assert not list(stepwise.glob("*.partial"))


# sha256 of the artifacts run-loop writes before training, at the CI workflow's small
# settings. None of them depends on float rounding that varies between numpy versions.
# A change that alters these bytes on purpose updates the pins and says so in CHANGES.md.
GOLDEN_SETS = [
    "run.rollouts_n=6", "tasks.synth_count=6", "tasks.synth_lines=3", "tasks.synth_candidates=3",
    "sft.sft_epochs=20", "dpo.dpo_epochs=20",
]
GOLDEN_SHA256 = {
    "tasks.jsonl": "2091ba01c58fedfca7f45d33a26bdb1ebb4a3955d35b153e2b4e5f311ee1cc64",
    "policy_init.json": "12078f6a8d25da4cd09cf8408d59c4ff1fc8ac98f0ffc0d8d799e6d1bd430e2f",
    "rollouts.jsonl": "3e39a79ca18a6a11f40e507e02633df498fdbeb3aa41cd7cdf56a51e74c37926",
    "rewards.jsonl": "bcdf9d9a07ab0acb3da60b8d84eddad9db7c8ff899685cd96f59f52ff29c919e",
    "guidance.jsonl": "120ae3778781356f501b811a2d811a90e6c854e4306d8f8e4ea3227653384cfc",
    "guided_rollouts.jsonl": "b79f0ab41a58c7690e3b8a073ae0e4e6c496070b84dab6e3912f10f5676b1e3c",
    "guided_rewards.jsonl": "d81a796819d3a9094d6ee9b20d2502b2c70753af6c912da32f9a4fdba34e3fb6",
    "dataset.jsonl": "39969747c42f57d2546c3b47c20698c2d6ef719018dda03e369d643aef8f863f",
}


def test_pretraining_artifacts_match_their_golden_hashes(tmp_path):
    assert run(["run-loop", "--output-dir", tmp_path, "--seed", 3,
                *(a for item in GOLDEN_SETS for a in ("--set", item))]) == 0
    got = {name: canonical_file_hash(tmp_path / name) for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


def test_stepwise_matches_loop_at_non_default_settings(stepwise, tmp_path):
    """Every assembly and training setting reaches the RunConfig field run-loop reads."""
    sets = SMALL_SETS + NON_DEFAULT_SETS
    d = tmp_path / "stepwise"
    d.mkdir()
    # tasks through evaluate-guided do not depend on the settings under test
    first = PHASES.index("assemble")
    for phase in PHASE_TABLE[:first]:
        for name in phase.outputs:
            shutil.copy(stepwise / ARTIFACTS[name], d / ARTIFACTS[name])
    run_stepwise(d, sets, PHASE_TABLE[first:])

    loop = tmp_path / "loop"
    run_loop_cli(loop, sets)
    for name in COMPARABLE:
        assert canonical_file_hash(d / name) == canonical_file_hash(loop / name), name

    # the settings took effect: the artifacts they feed differ from the defaults'
    for name in ("dataset.jsonl", "policy_sft.json", "sft_log.csv", "policy_final.json", "dpo_log.csv"):
        assert canonical_file_hash(d / name) != canonical_file_hash(stepwise / name), name
    rlvr = load_dataset(d / "dataset.jsonl")
    assert any(HINT_DELIMITER in ex.prompt for ex in rlvr.sft)  # guided examples joined the SFT set
    per_task = Counter(p.task_id for p in rlvr.pairs if p.provenance == PROVENANCE_ROLLOUT)
    assert max(per_task.values()) == 2
    assert len(rlvr.sft) > len(load_dataset(stepwise / "dataset.jsonl").sft)


def test_every_stepwise_flag_comes_from_the_phase_table():
    """No stepwise flag is written by hand: artifacts, plus run-loop's settings arguments.

    The reward-model rows read no setting, so their commands take only artifacts.
    """
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for phase in (*PHASE_TABLE, *RM_TABLE):
        options = {s for a in sub.choices[phase.name]._actions for s in a.option_strings if s.startswith("--")}
        artifacts = {flag(a) for a in (*phase.inputs, *phase.outputs, *phase.optional)}
        settings = {"--config", "--set", "--seed"} if phase in PHASE_TABLE else set()
        assert options == artifacts | settings | {"--help"}, phase.name
    assert [p.name for p in RM_TABLE] == ["train-rm", "rank"]
    assert [p.optional for p in PHASE_TABLE if p.optional] == [("selections",)]  # report's only


def test_tasks_command_writes_suite_and_policy(stepwise, tmp_path, capsys):
    header = json.loads((stepwise / "tasks.jsonl").read_text().splitlines()[0])
    assert header["schema"] == "tasks"
    policy = json.loads((stepwise / "policy_init.json").read_text())
    assert policy["provenance"] == {"phase": "init"}

    tasks, policy = tmp_path / "tasks.jsonl", tmp_path / "policy.json"
    assert run(["tasks", *settings(SMALL_SETS), "--tasks", tasks, "--policy-init", policy]) == 0
    assert capsys.readouterr().out == f"tasks: wrote {tasks} {policy}\n"
    assert tasks.read_bytes() == (stepwise / "tasks.jsonl").read_bytes()
    assert policy.read_bytes() == (stepwise / "policy_init.json").read_bytes()


def test_stepwise_tasks_reads_tasks_path(stepwise, tmp_path):
    """tasks.tasks_path, unreachable from the old stepwise flags, loads a fixed suite."""
    out = tmp_path / "tasks.jsonl"
    argv = ["tasks", "--set", f"tasks.tasks_path={stepwise / 'tasks.jsonl'}",
            "--tasks", out, "--policy-init", tmp_path / "policy.json"]
    assert run(argv) == 0  # the synthetic default would be 64 tasks of 6 lines
    assert out.read_bytes() == (stepwise / "tasks.jsonl").read_bytes()


def dead_endpoint(monkeypatch) -> str:
    """The URL of a local port nothing listens on, reached without a proxy."""
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setenv("NO_PROXY", "*")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}/"


def test_stepwise_rollout_reaches_the_remote_backend(stepwise, tmp_path, monkeypatch, capsys):
    """backend.backend_endpoint, unreachable from the old stepwise flags: a dead endpoint costs every slot's
    record, so the command writes one placeholder per slot and exits 3."""
    sets = SMALL_SETS + [f"backend.backend_endpoint={dead_endpoint(monkeypatch)}"]
    out = tmp_path / "rollouts.jsonl"
    argv = ["rollout", *settings(sets), "--tasks", stepwise / "tasks.jsonl",
            "--policy-init", stepwise / "policy_init.json", "--rollouts", out]
    assert run(argv) == 3
    assert "rollout: 24 attempts lost to infrastructure errors" in capsys.readouterr().err
    written = read_artifact("rollouts", out)
    assert len(written) == 4 * N and all(t.is_placeholder for t in written)


def test_stepwise_guide_with_a_dead_teacher_is_an_infrastructure_error(stepwise, tmp_path, monkeypatch, capsys):
    """A teacher request still dead after its retries costs its failure's guidance record: guide writes one lost
    record per failed attempt and exits 3."""
    sets = SMALL_SETS + [f"teacher.teacher_endpoint={dead_endpoint(monkeypatch)}"]
    out = tmp_path / "guidance.jsonl"
    argv = ["guide", *settings(sets), "--tasks", stepwise / "tasks.jsonl", "--rollouts", stepwise / "rollouts.jsonl",
            "--rewards", stepwise / "rewards.jsonl", "--guidance", out]
    assert run(argv) == 3
    err = capsys.readouterr().err
    failed = [r for r in read_rewards(stepwise / "rewards.jsonl") if r.reward == 0]
    assert f"guide: {len(failed)} attempts lost to infrastructure errors" in err and "Traceback" not in err
    lost = read_artifact("guidance", out)
    assert [(g.task_id, g.trajectory_ref) for g in lost] == [(r.task_id, r.trajectory_ref) for r in failed]
    assert all(isinstance(g, EvaluationFailure) and "remote-teacher: request failed" in g.error for g in lost)


def test_rank_and_report_selections_flow(stepwise, tmp_path):
    d = stepwise
    assert run(["train-rm", "--tasks", d / "tasks.jsonl", "--dataset", d / "dataset.jsonl",
                "--rm", tmp_path / "rm.json", "--rm-log", tmp_path / "rm_log.csv"]) == 0
    assert run(["rank", "--tasks", d / "tasks.jsonl", "--rm", tmp_path / "rm.json",
                "--eval-rollouts", d / "eval_rollouts.jsonl", "--eval-rewards", d / "eval_rewards.jsonl",
                "--selections", tmp_path / "selections.jsonl"]) == 0
    selections = {s["task_id"]: s["reward"] for s in read_artifact("selections", tmp_path / "selections.jsonl")}
    assert len(selections) == 4
    assert set(selections.values()) <= {0, 1}

    report = phase_argv(PHASE_TABLE[PHASES.index("report")], d, SMALL_SETS)
    report[report.index("--report-json") + 1] = tmp_path / "report.json"
    report[report.index("--report-txt") + 1] = tmp_path / "report.txt"
    assert run(report + ["--selections", tmp_path / "selections.jsonl"]) == 0
    assert "best@1 (rm)" in (tmp_path / "report.txt").read_text()
    body = json.loads((tmp_path / "report.json").read_text())
    assert body["post_training"]["best_at_1"] == pytest.approx(
        sum(selections.values()) / len(selections)
    )


def test_rank_without_a_reward_for_its_selection_is_a_usage_error(stepwise, tmp_path, capsys):
    """Given the rollout phase's rewards in place of final-eval's, rank finds no reward for what it selects."""
    d = stepwise
    assert run(["train-rm", "--tasks", d / "tasks.jsonl", "--dataset", d / "dataset.jsonl",
                "--rm", tmp_path / "rm.json", "--rm-log", tmp_path / "rm_log.csv"]) == 0
    out = tmp_path / "selections.jsonl"
    assert run(["rank", "--tasks", d / "tasks.jsonl", "--rm", tmp_path / "rm.json",
                "--eval-rollouts", d / "eval_rollouts.jsonl", "--eval-rewards", d / "rewards.jsonl",
                "--selections", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no reward record for selected trajectory ") and "Traceback" not in err
    assert not out.exists()


def test_rank_passes_over_a_candidate_whose_evaluation_failed(stepwise, tmp_path):
    """A sandbox fault on the trajectory rank would select costs only that record: rank exits 0 and selects
    among the task's scored candidates, and every other task's selection stays."""
    d = stepwise
    assert run(["train-rm", "--tasks", d / "tasks.jsonl", "--dataset", d / "dataset.jsonl",
                "--rm", tmp_path / "rm.json", "--rm-log", tmp_path / "rm_log.csv"]) == 0

    def rank(eval_rewards, out):
        assert run(["rank", "--tasks", d / "tasks.jsonl", "--rm", tmp_path / "rm.json",
                    "--eval-rollouts", d / "eval_rollouts.jsonl", "--eval-rewards", eval_rewards,
                    "--selections", out]) == 0
        return {s["task_id"]: s for s in read_artifact("selections", out)}

    before = rank(d / "eval_rewards.jsonl", tmp_path / "before.jsonl")
    lost = before["synth-0000"]["trajectory_ref"]
    records = [EvaluationFailure(r.task_id, r.trajectory_ref, "sandbox setup timed out") if r.trajectory_ref == lost
               else r for r in read_rewards(d / "eval_rewards.jsonl")]
    write_rewards(records, tmp_path / "eval_rewards.jsonl")
    after = rank(tmp_path / "eval_rewards.jsonl", tmp_path / "after.jsonl")
    scored = {r.trajectory_ref: r.reward for r in records if not isinstance(r, EvaluationFailure)}
    chosen = after.pop("synth-0000")
    assert chosen["trajectory_ref"] != lost and chosen["k"] == N - 1
    assert chosen["reward"] == scored[chosen["trajectory_ref"]]
    assert after == {task: s for task, s in before.items() if task != "synth-0000"}


def test_report_with_selections_missing_a_scored_task_is_a_usage_error(stepwise, tmp_path, capsys):
    """Selections truncated by one record: an error line naming the task they miss, no report written."""
    d = stepwise
    assert run(["train-rm", "--tasks", d / "tasks.jsonl", "--dataset", d / "dataset.jsonl",
                "--rm", tmp_path / "rm.json", "--rm-log", tmp_path / "rm_log.csv"]) == 0
    assert run(["rank", "--tasks", d / "tasks.jsonl", "--rm", tmp_path / "rm.json",
                "--eval-rollouts", d / "eval_rollouts.jsonl", "--eval-rewards", d / "eval_rewards.jsonl",
                "--selections", tmp_path / "selections.jsonl"]) == 0
    lines = (tmp_path / "selections.jsonl").read_text().splitlines(keepends=True)
    assert json.loads(lines[-1])["task_id"] == "synth-0003"
    (tmp_path / "truncated.jsonl").write_text("".join(lines[:-1]))
    report = phase_argv(PHASE_TABLE[PHASES.index("report")], d, SMALL_SETS)
    report[report.index("--report-json") + 1] = tmp_path / "report.json"
    report[report.index("--report-txt") + 1] = tmp_path / "report.txt"
    capsys.readouterr()
    assert run(report + ["--selections", tmp_path / "truncated.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: selections hold no record for task 'synth-0003'") and "Traceback" not in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "report.txt").exists()


def test_guide_without_a_teacher_refuses_a_real_task(tmp_path, capsys):
    """The oracle teacher knows only synthetic defects: a failed real-task attempt and no teacher endpoint
    is an error line naming the cause, and no guidance is written."""
    ws = tmp_path / "ws"
    ws.mkdir()
    task = Task(id="real-1", issue="broken", workspace=str(ws), env_spec=EnvSpec((), "true", 10.0, "process_sandbox"),
                tests=TestSuite(regression=("t",), focused=()), repo_name="r")
    save_tasks(TaskDataset(tasks=(task,)), tmp_path / "tasks.jsonl")
    traj = Trajectory(
        task_id="real-1",
        steps=(Step("localization", "p", "c"), Step("repair", "p", "c")),
        patch=Patch(edits=(("app.py:0:1", "x = 2"),), rendering="d"),
        guidance_id=None,
        sampling=SamplingParams(temperature=0.6, seed=0),
        backend_id="x",
        traj_id="real-1/x/0/u",
    )
    write_trajectories([traj], tmp_path / "rollouts.jsonl")
    write_rewards([RewardRecord("real-1", traj.traj_id, 0, {"t": "fail"}, False, "FAIL t")], tmp_path / "rewards.jsonl")
    out = tmp_path / "guidance.jsonl"
    assert run(["guide", "--set", "run.workers=1", "--tasks", tmp_path / "tasks.jsonl", "--rollouts",
                tmp_path / "rollouts.jsonl", "--rewards", tmp_path / "rewards.jsonl", "--guidance", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: oracle teacher only understands synthetic tasks\n"
    assert not out.exists()


def test_run_loop_command_and_overrides(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["run-loop", "--output-dir", out, "--seed", SEED,
            "--set", "run.workers=1", "--set", "run.rollouts_n=4",
            "--set", "tasks.synth_count=3", "--set", "tasks.synth_lines=3",
            "--set", "tasks.synth_candidates=3",
            "--set", "sft.sft_epochs=10", "--set", "dpo.dpo_epochs=10"]
    assert run(argv) == 0
    assert "run complete" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rollouts_n"] == 4
    assert manifest["config"]["synth_count"] == 3

    # same dir again without --resume is a usage error
    assert run(argv) == 1
    assert "already holds a run" in capsys.readouterr().err

    assert run(argv + ["--resume"]) == 0


def test_run_loop_phase_failure_exit_code_and_resume(tmp_path, capsys, monkeypatch):
    import rlvrloop.loop as loop

    out = tmp_path / "run"
    base = ["run-loop", "--output-dir", out, "--seed", SEED,
            "--set", "run.workers=1", "--set", "run.rollouts_n=4",
            "--set", "tasks.synth_count=3", "--set", "tasks.synth_lines=3",
            "--set", "tasks.synth_candidates=3",
            "--set", "sft.sft_epochs=10", "--set", "dpo.dpo_epochs=10"]
    # a key no phase reads is a config error before any phase runs
    assert run(base + ["--set", "teacher.teacher_kind=remote"]) == 1
    assert "unknown config key 'teacher.teacher_kind'" in capsys.readouterr().err
    assert not (out / "runstate.json").exists()

    def no_guidance(*args, **kwargs):
        raise GuidanceError("the teacher answered nothing usable")

    monkeypatch.setattr(loop, "guide_failures", no_guidance)
    assert run(base) == 2
    err = capsys.readouterr().err
    assert "phase 'guide' failed" in err
    state = json.loads((out / "runstate.json").read_text())
    assert state["completed"] == ["tasks", "rollout", "evaluate"]

    monkeypatch.undo()
    assert run(base + ["--resume"]) == 0
    state = json.loads((out / "runstate.json").read_text())
    assert len(state["completed"]) == 11


def test_resumed_run_counts_infra_failures_from_before_the_resume(tmp_path, capsys, monkeypatch):
    import rlvrloop.loop as loop

    out = tmp_path / "run"
    argv = ["run-loop", "--output-dir", out, *settings(SMALL_SETS)]
    evaluate = loop.evaluate_trajectories

    def lose_one_sandbox(dataset, trajectories, **kwargs):
        first, *rest = evaluate(dataset, trajectories, **kwargs)
        return [EvaluationFailure(first.task_id, first.trajectory_ref, "sandbox lost"), *rest]

    def no_guidance(*args, **kwargs):
        raise GuidanceError("the teacher answered nothing usable")

    monkeypatch.setattr(loop, "evaluate_trajectories", lose_one_sandbox)
    monkeypatch.setattr(loop, "guide_failures", no_guidance)
    assert run(argv) == 2
    assert json.loads((out / "runstate.json").read_text())["completed"] == ["tasks", "rollout", "evaluate"]
    capsys.readouterr()

    # the resumed phases score cleanly; the failure is in rewards.jsonl, written before the resume
    monkeypatch.undo()
    for _ in range(2):  # continuing the run, then resuming it once it is finished
        assert run(argv + ["--resume"]) == 3
        assert "run completed with 1 infrastructure errors" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["infra_errors"] == 1


@pytest.mark.parametrize("text", [
    '{"completed": ["tasks", "roll', "not json\n", "[]\n",
    '{"completed": "tasks"}\n', '{"completed": ["bogus"]}\n', '{"completed": [], "hashes": {"tasks.jsonl": 1}}\n',
])
def test_corrupt_run_state_fails_resume_cleanly(tmp_path, capsys, text):
    out = tmp_path / "run"
    out.mkdir()
    (out / "runstate.json").write_text(text)
    argv = ["run-loop", "--output-dir", out, "--seed", SEED, "--resume"]
    for item in SMALL_SETS:
        argv += ["--set", item]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "runstate.json" in err and "corrupt" in err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run([]) == 1  # no subcommand prints help
    assert "COMMAND" in capsys.readouterr().out

    assert run(["rollout", "--tasks", "x"]) == 1  # missing required args
    assert run(["tasks", "--tasks", tmp_path / "t.jsonl", "--policy-init", tmp_path / "p.json",
                "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["tasks", "--tasks", tmp_path / "t.jsonl", "--policy-init", tmp_path / "p.json",
                "--set", "tasks.frobnicate=1"]) == 1
    assert "unknown config key" in capsys.readouterr().err
    # the run directory is run-loop's --output-dir, never a setting
    assert run(["tasks", "--tasks", tmp_path / "t.jsonl", "--policy-init", tmp_path / "p.json",
                "--set", "run.output_dir=elsewhere"]) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()
    assert run(["run-loop", "--output-dir", tmp_path / "run", "--set", "backend.backend_kind=quantum"]) == 1
    assert "unknown config key 'backend.backend_kind'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

    assert run(["guide", "--tasks", "x", "--rollouts", "y", "--rewards", "z",
                "--guidance", "w", "--set", "teacher.teacher_kind=remote"]) == 1
    assert "unknown config key 'teacher.teacher_kind'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nseed = 5\nrollouts_n = 0\n", "[DEFAULT]\nseed = 5\n\n[run]\nworkers = 1\n"],
    ids=["default-alone", "default-beside-run"],
)
def test_config_default_section_is_a_usage_error(text, tmp_path, capsys):
    """configparser merges [DEFAULT] keys into every section; run-loop refuses the file instead."""
    config, out = tmp_path / "run.ini", tmp_path / "run"
    config.write_text(text)
    assert run(["run-loop", "--output-dir", out, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config) in err and "[DEFAULT]" in err and "seed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert "rlvrloop" in capsys.readouterr().out


def test_evaluate_reports_infra_failures_with_exit_three(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "app.py").write_text("x = 1\n")
    task = Task(
        id="real-1",
        issue="broken setup",
        workspace=str(ws),
        env_spec=EnvSpec(("exit 3",), "true", 10.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()),
        repo_name="r",
    )
    save_tasks(TaskDataset(tasks=(task,)), tmp_path / "tasks.jsonl")
    traj = Trajectory(
        task_id="real-1",
        steps=(Step("localization", "p", "c"), Step("repair", "p", "c")),
        patch=Patch(edits=(("app.py:0:1", "x = 2"),), rendering="d"),
        guidance_id=None,
        sampling=SamplingParams(temperature=0.0, seed=0),
        backend_id="x",
        traj_id="real-1/x/0/u",
    )
    write_trajectories([traj], tmp_path / "rollouts.jsonl")
    # evaluate-guided runs the same phase function under its own artifact names
    for command, rollouts, rewards in (("evaluate", "--rollouts", "--rewards"),
                                       ("evaluate-guided", "--guided-rollouts", "--guided-rewards")):
        out = tmp_path / f"{command}.jsonl"
        code = run([command, "--set", "run.workers=1", "--tasks", tmp_path / "tasks.jsonl",
                    rollouts, tmp_path / "rollouts.jsonl", rewards, out])
        assert code == 3, command
        line = out.read_text().splitlines()[1]
        assert "infrastructure_error" in line


def test_cli_evaluate_counts_passes(stepwise, tmp_path):
    out = tmp_path / "rewards.jsonl"
    assert run(["evaluate", "--set", "run.workers=1", "--tasks", stepwise / "tasks.jsonl",
                "--rollouts", stepwise / "rollouts.jsonl", "--rewards", out]) == 0
    records = read_rewards(out)
    assert not any(isinstance(r, EvaluationFailure) for r in records)
    assert 0 < sum(r.reward for r in records) < len(records)
    assert out.read_bytes() == (stepwise / "rewards.jsonl").read_bytes()


def test_missing_input_file_is_an_error_line_not_a_traceback(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert run(["evaluate", "--tasks", missing, "--rollouts", tmp_path / "r.jsonl",
                "--rewards", tmp_path / "o.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.jsonl" in err
    assert "Traceback" not in err


def test_stepwise_crash_mid_write_leaves_the_output_untouched(stepwise, tmp_path, monkeypatch, capsys):
    import rlvrloop.loop as loop

    real_write = loop.write_trajectories

    def crash(trajectories, path):
        real_write(trajectories[: len(trajectories) // 2], path)
        raise OSError("disk full")

    monkeypatch.setattr(loop, "write_trajectories", crash)
    out = tmp_path / "r.jsonl"
    argv = ["rollout", *settings(SMALL_SETS), "--tasks", stepwise / "tasks.jsonl",
            "--policy-init", stepwise / "policy_init.json", "--rollouts", out]
    assert run(argv) == 1
    assert "disk full" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.partial"))

    out.write_bytes(b"an earlier run's rollouts\n")
    assert run(argv) == 1
    assert out.read_bytes() == b"an earlier run's rollouts\n"
    assert not list(tmp_path.glob("*.partial"))


MALFORMED = {
    "rollouts": (
        ["evaluate", "--tasks", "{d}/tasks.jsonl", "--rollouts", "{bad}", "--rewards", "{out}"],
        {"schema": "trajectories", "schema_version": 1}, {"task_id": "synth-0000"}, 2,
    ),
    "rewards": (
        ["guide", "--tasks", "{d}/tasks.jsonl", "--rollouts", "{d}/rollouts.jsonl",
         "--rewards", "{bad}", "--guidance", "{out}"],
        {"schema": "rewards", "schema_version": 1}, {"task_id": "synth-0000", "trajectory_ref": "x"}, 2,
    ),
    "guidance": (
        ["reattempt", "--tasks", "{d}/tasks.jsonl", "--policy-init", "{d}/policy_init.json",
         "--guidance", "{bad}", "--guided-rollouts", "{out}"],
        {"schema": "guidance", "schema_version": 1}, {"guidance_id": "g-1"}, 2,
    ),
    "dataset": (
        ["train-dpo", "--policy-sft", "{d}/policy_sft.json", "--dataset", "{bad}",
         "--policy-final", "{out}", "--dpo-log", "{out}.csv"],
        {"schema": "rlvr_dataset", "schema_version": 1},
        {"record": "pair", "task_id": "synth-0000", "winner": {}, "loser": {}, "provenance": "rollout_pair"},
        2,
    ),
    "header": (
        ["evaluate", "--tasks", "{d}/tasks.jsonl", "--rollouts", "{bad}", "--rewards", "{out}"],
        {"schema": "trajectories", "schema_version": "1"}, None, 1,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_record_is_an_error_line_not_a_traceback(case, stepwise, tmp_path, capsys):
    argv, header, record, line = MALFORMED[case]
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
    bad.write_text("".join(json.dumps(r) + "\n" for r in (header, record) if r is not None))
    assert run([a.format(d=stepwise, bad=bad, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}: line {line}: " in err
    assert "Traceback" not in err
    assert not out.exists()


CHECKPOINTS = {
    "policy-without-heads": ("rollout", {"schema": "tabular_policy"}),
    "policy-not-an-object": ("rollout", []),
    "rm-weights-not-numbers": ("rank", {"schema": RM_SCHEMA, "weights": "x"}),
    "rm-weights-wrong-shape": ("rank", {"schema": RM_SCHEMA, "weights": [1, 2]}),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINTS))
def test_malformed_checkpoint_is_an_error_line_not_a_traceback(case, stepwise, tmp_path, capsys):
    command, body = CHECKPOINTS[case]
    if command == "rank":
        body["featurization_version"] = FEATURIZATION_VERSION
    bad, out = tmp_path / "bad.json", tmp_path / "out.jsonl"
    bad.write_text(json.dumps(body))
    if command == "rollout":
        argv = ["rollout", "--tasks", stepwise / "tasks.jsonl", "--policy-init", bad, "--rollouts", out]
    else:
        argv = ["rank", "--tasks", stepwise / "tasks.jsonl", "--rm", bad,
                "--eval-rollouts", stepwise / "eval_rollouts.jsonl",
                "--eval-rewards", stepwise / "eval_rewards.jsonl", "--selections", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, value", [("rollout", "NaN"), ("rollout", "Infinity"), ("rank", "NaN")])
def test_non_finite_checkpoint_value_is_an_error_line(command, value, stepwise, tmp_path, capsys):
    """json reads NaN and Infinity; a policy logit or RM weight that is not finite fails its command with exit 1."""
    bad, out = tmp_path / "bad.json", tmp_path / "out.jsonl"
    if command == "rollout":
        body = json.loads((stepwise / "policy_init.json").read_text())
        task_id = next(iter(body["heads"]))
        body["heads"][task_id]["line_logits"][1] = float(value)
        argv = ["rollout", "--tasks", stepwise / "tasks.jsonl", "--policy-init", bad, "--rollouts", out]
    else:
        body = {"schema": RM_SCHEMA, "featurization_version": FEATURIZATION_VERSION, "weights": [float(value)] * 8}
        argv = ["rank", "--tasks", stepwise / "tasks.jsonl", "--rm", bad,
                "--eval-rollouts", stepwise / "eval_rollouts.jsonl",
                "--eval-rewards", stepwise / "eval_rewards.jsonl", "--selections", out]
    bad.write_text(json.dumps(body))
    assert value in bad.read_text()
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "not all finite" in err
    assert command == "rank" or task_id in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rollout", "rank"])
def test_checkpoint_from_a_newer_schema_is_an_error_line(command, stepwise, tmp_path, capsys):
    """A policy or reward-model checkpoint one schema_version ahead fails its command with exit 1."""
    source = stepwise / "policy_init.json"
    if command == "rank":
        source = tmp_path / "rm.json"
        assert run(["train-rm", "--tasks", stepwise / "tasks.jsonl", "--dataset", stepwise / "dataset.jsonl",
                    "--rm", source, "--rm-log", tmp_path / "rm_log.csv"]) == 0
    body = json.loads(source.read_text())
    body["schema_version"] += 1
    newer, out = tmp_path / "newer.json", tmp_path / "out.jsonl"
    newer.write_text(json.dumps(body))
    if command == "rollout":
        argv = ["rollout", "--tasks", stepwise / "tasks.jsonl", "--policy-init", newer, "--rollouts", out]
    else:
        argv = ["rank", "--tasks", stepwise / "tasks.jsonl", "--rm", newer,
                "--eval-rollouts", stepwise / "eval_rollouts.jsonl",
                "--eval-rewards", stepwise / "eval_rewards.jsonl", "--selections", out]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(newer) in err and "newer than supported" in err
    assert "Traceback" not in err
    assert not out.exists()


INITIAL_POLICIES = {
    # the second head's (line logits, candidate logits) in a uniform policy over a suite of this grid
    "short-line-logits": ([0.0, 0.0], [[0.0] * 3] * 3, "3x3", "line logits of shape (2,)"),
    "1-D-candidate-logits": ([0.0] * 3, [0.0] * 3, "3x3", "candidate logits of shape (3,)"),
    "3x3-head-on-a-4x4-suite": ([0.0] * 3, [[0.0] * 3] * 3, "4x4", "3x3 head but a 4x4 grid"),
}


@pytest.mark.parametrize("case", sorted(INITIAL_POLICIES))
def test_initial_policy_that_does_not_fit_fails_the_tasks_phase(case, tmp_path, capsys):
    """A head whose shapes disagree, or whose grid is not its task's, stops run-loop at tasks with exit 2."""
    line_logits, cand_logits, grid, problem = INITIAL_POLICIES[case]
    lines, cands = grid.split("x")
    sets = [*SMALL_SETS, f"tasks.synth_lines={lines}", f"tasks.synth_candidates={cands}"]
    policy = TabularPolicy.uniform(generate_synth_suite(4, int(lines), int(cands), seed=SEED))
    task_id = policy.task_order()[1]
    path, out = tmp_path / "policy.json", tmp_path / "run"
    policy.save(path)
    body = json.loads(path.read_text())
    body["heads"][task_id] = {"line_logits": line_logits, "cand_logits": cand_logits}
    path.write_text(json.dumps(body))
    capsys.readouterr()
    assert run(["run-loop", "--output-dir", out, *settings(sets), "--set", f"backend.initial_policy={path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phase 'tasks' failed: ")
    assert str(path) in err and task_id in err and problem in err
    assert "Traceback" not in err
    assert not (out / "runstate.json").exists() and not (out / ARTIFACTS["policy_init"]).exists()


@pytest.mark.parametrize("setting, key", [
    ("run.rollouts_n=0", "rollouts_n"), ("run.max_tokens=0", "max_tokens"), ("dpo.dpo_beta=0", "dpo_beta"),
    ("assemble.sft_fraction=2", "sft_fraction"), ("tasks.synth_lines=1", "synth_lines"),
    ("tasks.synth_candidates=28", "synth_candidates"),
])
def test_out_of_range_setting_is_a_usage_error_before_any_phase(setting, key, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["run-loop", "--output-dir", out, "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "out of range" in err
    assert "Traceback" not in err
    assert not (out / "runstate.json").exists()


def test_run_loop_refuses_a_suite_with_a_real_task_before_any_phase(tmp_path, capsys):
    """A real task has no tabular head, so train-sft could never train on it: run-loop refuses the suite
    before any rollout or sandbox run, and the stepwise tasks command still takes it."""
    ws, marker = tmp_path / "ws", tmp_path / "sandbox-ran"
    ws.mkdir()
    real = Task(
        id="real-1", issue="broken", workspace=str(ws),
        env_spec=EnvSpec((f"touch {marker}",), f"touch {marker}", 10.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()), repo_name="r",
    )
    suite = tmp_path / "tasks.jsonl"
    save_tasks(TaskDataset(tasks=(*generate_synth_suite(2, 3, 3, seed=1).tasks, real)), suite)
    out = tmp_path / "run"
    assert run(["run-loop", "--output-dir", out, *settings(SMALL_SETS), "--set", f"tasks.tasks_path={suite}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'real-1'" in err and "not synthetic" in err
    assert "Traceback" not in err
    assert not out.exists() and not marker.exists()
    argv = ["tasks", "--set", f"tasks.tasks_path={suite}", "--tasks", tmp_path / "t.jsonl",
            "--policy-init", tmp_path / "policy.json"]
    assert run(argv) == 0
    assert (tmp_path / "t.jsonl").read_bytes() == suite.read_bytes()


# Each stepwise command given one input made from a 2-task suite ({small}) and
# the rest from the 4-task stepwise run ({d}).
MISMATCHED = {
    "rollout": ["rollout", "--tasks", "{d}/tasks.jsonl", "--policy-init", "{small}/policy_init.json",
                "--rollouts", "{out}"],
    "evaluate": ["evaluate", "--tasks", "{small}/tasks.jsonl", "--rollouts", "{d}/rollouts.jsonl",
                 "--rewards", "{out}"],
    "guide": ["guide", "--tasks", "{small}/tasks.jsonl", "--rollouts", "{d}/rollouts.jsonl",
              "--rewards", "{d}/rewards.jsonl", "--guidance", "{out}"],
    "reattempt": ["reattempt", "--tasks", "{small}/tasks.jsonl", "--policy-init", "{d}/policy_init.json",
                  "--guidance", "{d}/guidance.jsonl", "--guided-rollouts", "{out}"],
    "rank": ["rank", "--tasks", "{small}/tasks.jsonl", "--rm", "{rm}", "--eval-rollouts", "{d}/eval_rollouts.jsonl",
             "--eval-rewards", "{d}/eval_rewards.jsonl", "--selections", "{out}"],
}


@pytest.mark.parametrize("command", sorted(MISMATCHED))
def test_inputs_from_two_runs_are_a_usage_error_naming_the_task(command, stepwise, tmp_path, capsys):
    small, rm, out = tmp_path / "small", tmp_path / "rm.json", tmp_path / "out"
    assert run(["tasks", *settings(SMALL_SETS + ["tasks.synth_count=2"]),
                "--tasks", small / "tasks.jsonl", "--policy-init", small / "policy_init.json"]) == 0
    if command == "rank":
        assert run(["train-rm", "--tasks", stepwise / "tasks.jsonl", "--dataset", stepwise / "dataset.jsonl",
                    "--rm", rm, "--rm-log", tmp_path / "rm_log.csv"]) == 0
    capsys.readouterr()
    assert run([a.format(d=stepwise, small=small, rm=rm, out=out) for a in MISMATCHED[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'synth-0002'" in err
    assert "Traceback" not in err
    assert not out.exists()


MISFIT = {
    "rollout": ["rollout", "--tasks", "{t4}/tasks.jsonl", "--policy-init", "{d}/policy_init.json",
                "--rollouts", "{out}"],
    "reattempt": ["reattempt", "--tasks", "{t4}/tasks.jsonl", "--guidance", "{d}/guidance.jsonl",
                  "--policy-init", "{d}/policy_init.json", "--guided-rollouts", "{out}"],
}


@pytest.mark.parametrize("command", sorted(MISFIT))
def test_stepwise_policy_that_does_not_fit_the_suite_is_a_usage_error(command, stepwise, tmp_path, capsys):
    """A 3x3 policy beside a 4x4 suite with the same task ids: exit 1 naming the first task, nothing written."""
    t4, out = tmp_path / "t4", tmp_path / "out"
    assert run(["tasks", *settings(SMALL_SETS + ["tasks.synth_lines=4", "tasks.synth_candidates=4"]),
                "--tasks", t4 / "tasks.jsonl", "--policy-init", t4 / "policy_init.json"]) == 0
    capsys.readouterr()
    assert run([*[a.format(t4=t4, d=stepwise, out=out) for a in MISFIT[command]], *settings(SMALL_SETS)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'synth-0000' has a 3x3 head but a 4x4 grid" in err
    assert "Traceback" not in err
    assert not out.exists()
