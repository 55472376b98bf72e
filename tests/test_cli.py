"""CLI subcommands, exit codes, and stepwise/loop artifact equivalence."""
import json
import shutil
from collections import Counter

import pytest

from rlvrloop.cli import main, read_selections
from rlvrloop.jsonl import canonical_file_hash, derive_seed
from rlvrloop.loop import RunConfig, run_loop
from rlvrloop.pairs import PROVENANCE_ROLLOUT, load_dataset
from rlvrloop.prompts import HINT_DELIMITER
from rlvrloop.rollout import Patch, Step, Trajectory, write_trajectories
from rlvrloop.backends import SamplingParams
from rlvrloop.tasks import EnvSpec, Task, TestSuite, TaskDataset, save_tasks

SEED = 0
N = 6
GEN = ["--count", "4", "--lines", "3", "--candidates", "3", "--seed", str(SEED)]
SMALL = dict(
    seed=SEED,
    workers=1,
    rollouts_n=N,
    synth_count=4,
    synth_lines=3,
    synth_candidates=3,
    sft_epochs=30,
    dpo_epochs=60,
)

# the sixteen files both the loop and the stepwise pipeline produce
COMPARABLE = (
    "tasks.jsonl", "policy_init.json", "rollouts.jsonl", "rewards.jsonl",
    "guidance.jsonl", "guided_rollouts.jsonl", "guided_rewards.jsonl",
    "dataset.jsonl", "policy_sft.json", "sft_log.csv", "policy_final.json",
    "dpo_log.csv", "eval_rollouts.jsonl", "eval_rewards.jsonl",
    "report.json", "report.txt",
)


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def stepwise(tmp_path_factory):
    """The full pipeline driven one subcommand at a time."""
    d = tmp_path_factory.mktemp("stepwise")
    eval_seed = derive_seed(SEED, "final-eval")
    steps = [
        ["gen-tasks", "--out", d / "tasks.jsonl", *GEN],
        ["init-policy", "--tasks", d / "tasks.jsonl", "--out", d / "policy_init.json"],
        ["rollout", "--tasks", d / "tasks.jsonl", "--policy", d / "policy_init.json",
         "--out", d / "rollouts.jsonl", "--n", N, "--seed", SEED, "--workers", 1],
        ["evaluate", "--tasks", d / "tasks.jsonl", "--rollouts", d / "rollouts.jsonl",
         "--out", d / "rewards.jsonl", "--workers", 1],
        ["guide", "--tasks", d / "tasks.jsonl", "--rollouts", d / "rollouts.jsonl",
         "--rewards", d / "rewards.jsonl", "--out", d / "guidance.jsonl"],
        ["rollout", "--tasks", d / "tasks.jsonl", "--policy", d / "policy_init.json",
         "--out", d / "guided_rollouts.jsonl", "--seed", SEED, "--workers", 1,
         "--guidance", d / "guidance.jsonl"],
        ["evaluate", "--tasks", d / "tasks.jsonl", "--rollouts", d / "guided_rollouts.jsonl",
         "--out", d / "guided_rewards.jsonl", "--workers", 1],
        ["assemble", "--rollouts", d / "rollouts.jsonl", "--rewards", d / "rewards.jsonl",
         "--guided-rollouts", d / "guided_rollouts.jsonl",
         "--guided-rewards", d / "guided_rewards.jsonl",
         "--guidance", d / "guidance.jsonl", "--seed", SEED, "--out", d / "dataset.jsonl"],
        ["train-sft", "--policy", d / "policy_init.json", "--dataset", d / "dataset.jsonl",
         "--out", d / "policy_sft.json", "--log", d / "sft_log.csv",
         "--epochs", 30],
        ["train-dpo", "--policy", d / "policy_sft.json", "--dataset", d / "dataset.jsonl",
         "--out", d / "policy_final.json", "--log", d / "dpo_log.csv",
         "--epochs", 60],
        ["rollout", "--tasks", d / "tasks.jsonl", "--policy", d / "policy_final.json",
         "--out", d / "eval_rollouts.jsonl", "--n", N, "--seed", eval_seed,
         "--workers", 1, "--eval-mode"],
        ["evaluate", "--tasks", d / "tasks.jsonl", "--rollouts", d / "eval_rollouts.jsonl",
         "--out", d / "eval_rewards.jsonl", "--workers", 1],
        ["report", "--rollouts", d / "rollouts.jsonl", "--rewards", d / "rewards.jsonl",
         "--eval-rollouts", d / "eval_rollouts.jsonl", "--eval-rewards", d / "eval_rewards.jsonl",
         "--guided-rewards", d / "guided_rewards.jsonl", "--seed", SEED,
         "--out-json", d / "report.json", "--out-txt", d / "report.txt"],
    ]
    for argv in steps:
        assert run(argv) == 0, argv[0]
    return d


@pytest.fixture(scope="module")
def loop_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("loop") / "run"
    run_loop(RunConfig(output_dir=str(out), **SMALL))
    return out


def test_stepwise_pipeline_matches_loop_byte_for_byte(stepwise, loop_dir):
    """Subcommand composition is the loop: every artifact hash agrees."""
    for name in COMPARABLE:
        assert canonical_file_hash(stepwise / name) == canonical_file_hash(loop_dir / name), name


# run-loop's --set form of SMALL
SMALL_SETS = [
    "run.workers=1", f"run.rollouts_n={N}", "tasks.synth_count=4", "tasks.synth_lines=3",
    "tasks.synth_candidates=3", "sft.sft_epochs=30", "dpo.dpo_epochs=60",
]


def test_stepwise_matches_loop_at_non_default_settings(stepwise, tmp_path):
    """Every assembly and training flag reaches the RunConfig field run-loop reads."""
    d = tmp_path / "stepwise"
    d.mkdir()
    # tasks through guided_rewards do not depend on the settings under test
    for name in COMPARABLE[:7]:
        shutil.copy(stepwise / name, d / name)
    steps = [
        ["assemble", "--rollouts", d / "rollouts.jsonl", "--rewards", d / "rewards.jsonl",
         "--guided-rollouts", d / "guided_rollouts.jsonl",
         "--guided-rewards", d / "guided_rewards.jsonl", "--guidance", d / "guidance.jsonl",
         "--seed", SEED, "--out", d / "dataset.jsonl",
         "--sft-fraction", 0.5, "--max-pairs-per-task", 2, "--keep-guidance-in-prompt"],
        ["train-sft", "--policy", d / "policy_init.json", "--dataset", d / "dataset.jsonl",
         "--out", d / "policy_sft.json", "--log", d / "sft_log.csv",
         "--epochs", 30, "--learning-rate", 0.3],
        ["train-dpo", "--policy", d / "policy_sft.json", "--dataset", d / "dataset.jsonl",
         "--out", d / "policy_final.json", "--log", d / "dpo_log.csv",
         "--epochs", 60, "--beta", 0.25, "--learning-rate", 0.8],
        ["rollout", "--tasks", d / "tasks.jsonl", "--policy", d / "policy_final.json",
         "--out", d / "eval_rollouts.jsonl", "--n", N, "--seed", derive_seed(SEED, "final-eval"),
         "--workers", 1, "--eval-mode"],
        ["evaluate", "--tasks", d / "tasks.jsonl", "--rollouts", d / "eval_rollouts.jsonl",
         "--out", d / "eval_rewards.jsonl", "--workers", 1],
        ["report", "--rollouts", d / "rollouts.jsonl", "--rewards", d / "rewards.jsonl",
         "--eval-rollouts", d / "eval_rollouts.jsonl", "--eval-rewards", d / "eval_rewards.jsonl",
         "--guided-rewards", d / "guided_rewards.jsonl", "--seed", SEED,
         "--out-json", d / "report.json", "--out-txt", d / "report.txt"],
    ]
    for argv in steps:
        assert run(argv) == 0, argv[0]

    loop = tmp_path / "loop"
    sets = SMALL_SETS + [
        "assemble.sft_fraction=0.5", "assemble.max_pairs_per_task=2",
        "assemble.keep_guidance_in_prompt=true", "sft.sft_learning_rate=0.3",
        "dpo.dpo_beta=0.25", "dpo.dpo_learning_rate=0.8",
    ]
    argv = ["run-loop", "--output-dir", loop, "--seed", SEED]
    for item in sets:
        argv += ["--set", item]
    assert run(argv) == 0
    for name in COMPARABLE:
        assert canonical_file_hash(d / name) == canonical_file_hash(loop / name), name

    # the settings took effect: the artifacts they feed differ from the defaults'
    for name in ("dataset.jsonl", "policy_sft.json", "sft_log.csv", "policy_final.json", "dpo_log.csv"):
        assert canonical_file_hash(d / name) != canonical_file_hash(stepwise / name), name
    rlvr = load_dataset(d / "dataset.jsonl")
    assert any(HINT_DELIMITER in p.prompt for p in rlvr.pairs)
    per_task = Counter(p.task_id for p in rlvr.pairs if p.provenance == PROVENANCE_ROLLOUT)
    assert max(per_task.values()) == 2
    assert len(rlvr.sft) > len(load_dataset(stepwise / "dataset.jsonl").sft)


def test_gen_tasks_and_init_policy_outputs(stepwise, capsys):
    header = json.loads((stepwise / "tasks.jsonl").read_text().splitlines()[0])
    assert header["schema"] == "tasks"
    policy = json.loads((stepwise / "policy_init.json").read_text())
    assert policy["provenance"] == {"phase": "init"}

    assert run(["gen-tasks", "--out", stepwise / "again.jsonl", *GEN]) == 0
    assert "wrote 4 tasks" in capsys.readouterr().out
    assert (stepwise / "again.jsonl").read_bytes() == (stepwise / "tasks.jsonl").read_bytes()


def test_rank_and_report_selections_flow(stepwise, tmp_path, capsys):
    d = stepwise
    assert run(["train-rm", "--tasks", d / "tasks.jsonl", "--dataset", d / "dataset.jsonl",
                "--out", tmp_path / "rm.json", "--log", tmp_path / "rm_log.csv"]) == 0
    assert run(["rank", "--tasks", d / "tasks.jsonl", "--rm", tmp_path / "rm.json",
                "--rollouts", d / "eval_rollouts.jsonl", "--rewards", d / "eval_rewards.jsonl",
                "--out", tmp_path / "selections.jsonl"]) == 0
    selections = read_selections(tmp_path / "selections.jsonl")
    assert len(selections) == 4
    assert set(selections.values()) <= {0, 1}

    assert run(["report", "--rollouts", d / "rollouts.jsonl", "--rewards", d / "rewards.jsonl",
                "--eval-rollouts", d / "eval_rollouts.jsonl",
                "--eval-rewards", d / "eval_rewards.jsonl",
                "--guided-rewards", d / "guided_rewards.jsonl",
                "--selections", tmp_path / "selections.jsonl",
                "--out-json", tmp_path / "report.json"]) == 0
    out = capsys.readouterr().out
    assert "best@1 (rm)" in out
    body = json.loads((tmp_path / "report.json").read_text())
    assert body["post_training"]["best_at_1"] == pytest.approx(
        sum(selections.values()) / len(selections)
    )


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


def test_run_loop_phase_failure_exit_code_and_resume(tmp_path, capsys):
    out = tmp_path / "run"
    base = ["run-loop", "--output-dir", out, "--seed", SEED,
            "--set", "run.workers=1", "--set", "run.rollouts_n=4",
            "--set", "tasks.synth_count=3", "--set", "tasks.synth_lines=3",
            "--set", "tasks.synth_candidates=3",
            "--set", "sft.sft_epochs=10", "--set", "dpo.dpo_epochs=10"]
    assert run(base + ["--set", "teacher.teacher_kind=remote"]) == 2
    err = capsys.readouterr().err
    assert "phase 'guide' failed" in err
    state = json.loads((out / "runstate.json").read_text())
    assert state["completed"] == ["tasks", "rollout", "evaluate"]

    assert run(base + ["--resume"]) == 0
    state = json.loads((out / "runstate.json").read_text())
    assert len(state["completed"]) == 11


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
    assert run(["gen-tasks", "--out", tmp_path / "t.jsonl", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err

    assert run(["guide", "--tasks", "x", "--rollouts", "y", "--rewards", "z",
                "--out", "w", "--teacher", "remote"]) == 1
    assert "requires teacher_endpoint" in capsys.readouterr().err


def test_rollout_guidance_conflicts_with_eval_mode(stepwise, tmp_path, capsys):
    code = run(["rollout", "--tasks", stepwise / "tasks.jsonl",
                "--policy", stepwise / "policy_init.json", "--out", tmp_path / "t.jsonl",
                "--guidance", stepwise / "guidance.jsonl", "--eval-mode"])
    assert code == 1
    assert "cannot be combined" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert "rlvrloop" in capsys.readouterr().out


def test_evaluate_reports_infra_failures_with_exit_three(tmp_path, capsys):
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
    code = run(["evaluate", "--tasks", tmp_path / "tasks.jsonl",
                "--rollouts", tmp_path / "rollouts.jsonl",
                "--out", tmp_path / "rewards.jsonl", "--workers", 1])
    assert code == 3
    assert "1 infra errors" in capsys.readouterr().out
    line = (tmp_path / "rewards.jsonl").read_text().splitlines()[1]
    assert "infrastructure_error" in line


def test_cli_evaluate_counts_passes(stepwise, tmp_path, capsys):
    assert run(["evaluate", "--tasks", stepwise / "tasks.jsonl",
                "--rollouts", stepwise / "rollouts.jsonl",
                "--out", tmp_path / "rewards.jsonl", "--workers", 1]) == 0
    out = capsys.readouterr().out
    assert "passed, 0 infra errors" in out
    assert (tmp_path / "rewards.jsonl").read_bytes() == (stepwise / "rewards.jsonl").read_bytes()


def test_missing_input_file_is_an_error_line_not_a_traceback(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert run(["evaluate", "--tasks", missing, "--rollouts", tmp_path / "r.jsonl",
                "--out", tmp_path / "o.jsonl"]) == 1
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
    argv = ["rollout", "--tasks", stepwise / "tasks.jsonl", "--policy", stepwise / "policy_init.json",
            "--out", out, "--n", N, "--workers", 1]
    assert run(argv) == 1
    assert "disk full" in capsys.readouterr().err
    assert not out.exists()

    out.write_bytes(b"an earlier run's rollouts\n")
    assert run(argv) == 1
    assert out.read_bytes() == b"an earlier run's rollouts\n"


MALFORMED = {
    "rollouts": (
        ["evaluate", "--tasks", "{d}/tasks.jsonl", "--rollouts", "{bad}", "--out", "{out}"],
        {"schema": "trajectories", "schema_version": 1}, {"task_id": "synth-0000"}, 2,
    ),
    "rewards": (
        ["guide", "--tasks", "{d}/tasks.jsonl", "--rollouts", "{d}/rollouts.jsonl",
         "--rewards", "{bad}", "--out", "{out}"],
        {"schema": "rewards", "schema_version": 1}, {"task_id": "synth-0000", "trajectory_ref": "x"}, 2,
    ),
    "guidance": (
        ["rollout", "--tasks", "{d}/tasks.jsonl", "--policy", "{d}/policy_init.json",
         "--guidance", "{bad}", "--out", "{out}"],
        {"schema": "guidance", "schema_version": 1}, {"guidance_id": "g-1"}, 2,
    ),
    "dataset": (
        ["train-dpo", "--policy", "{d}/policy_sft.json", "--dataset", "{bad}", "--out", "{out}"],
        {"schema": "rlvr_dataset", "schema_version": 1},
        {"record": "pair", "task_id": "synth-0000", "winner": {}, "loser": {}, "provenance": "rollout_pair"},
        2,
    ),
    "header": (
        ["evaluate", "--tasks", "{d}/tasks.jsonl", "--rollouts", "{bad}", "--out", "{out}"],
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
