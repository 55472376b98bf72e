"""One full training iteration, phase by phase, with a resumable run state.

Phases: tasks -> rollout -> evaluate -> guide -> reattempt ->
evaluate-guided -> assemble -> train-sft -> train-dpo -> final-eval ->
report. Each phase body is one module-level function over values:
fn(*input values, **settings) returns its output values and opens none of
the run's files; its settings are the RunConfig fields it reads, as
keyword-only parameters. PHASE_TABLE declares once what each phase reads
and writes, and each artifact's file name with the one writer and reader of
its format; RM_TABLE does the same for the reward-model commands train-rm
and rank. PHASES, RunPaths, the manifest's artifact list and the stepwise
CLI subcommands (one per row, one flag per artifact) come from the tables.

run_phase calls a row's function and commits its results atomically
through commit_outputs (`<file>.partial`, then os.replace). run_loop hands
each phase the values earlier phases returned, records every output's
sha256 and every row's settings in runstate.json, and on resume refuses a
completed phase whose outputs or settings changed, then reads back only
what the remaining phases need. A stepwise command reads its inputs
through the same readers, so run_loop and the stepwise pipeline produce
byte-identical artifacts.

All randomness is derived from config.seed through labeled sub-seeds; the
wall clock never feeds any decision, so rerunning a config reproduces every
deterministic artifact hash exactly.
"""
from __future__ import annotations

import configparser
import inspect
import json
import logging
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

from .backends import HttpPolicyBackend, PolicyBackend, SamplingParams, TabularPolicyBackend
from .errors import BackendError, CheckpointError, PhaseError, RlvrLoopError, UsageError
from .evaluator import (
    EvaluationFailure, RewardRecord, check_reward, evaluate_batch, read_rewards, record_type, write_rewards,
)
from .guidance import GUIDANCE_SCHEMA, Guidance, HttpTeacherBackend, TeacherBackend, oracle_teacher, request_guidance
from .jsonl import canonical_file_hash, derive_seed, read_declared, read_records, write_records
from .metrics import aggregate, guidance_uplift_report, render_report_text
from .pairs import RlvrDataset, build_rlvr_dataset, emit_dataset, load_dataset
from .policy import ReferencePolicy, TabularPolicy
from .reward_model import PairwiseRM, build_rm_training_pairs, rank_best_of_k, rm_train
from .rollout import (
    TEMPERATURE_SAMPLING,
    Trajectory,
    read_trajectories,
    rollout_all_tasks,
    scaffold_batch,
    write_trajectories,
)
from .tasks import MAX_SYNTH_CANDIDATES, SynthTask, Task, TaskDataset, generate_synth_suite, load_tasks, save_tasks
from .training import DPOConfig, dpo_train, sft_train, write_history_csv

log = logging.getLogger(__name__)

MANIFEST_SCHEMA = "run_manifest"
SELECTIONS_SCHEMA = "rm_selections"

StrPath = str | Path  # artifact paths, in either form

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _setting(default, section: str, within: str | None = None):
    """A RunConfig field that the config file's `section` sets, refused outside the range `within` words."""
    return field(default=default, metadata={"section": section, "range": within})


def _within(value, wording: str) -> bool:
    """Whether value is in the range worded '>= a', '> a' or 'in [a, b]'; stated positively, so NaN is in none."""
    op, bound = wording.split(" ", 1)
    low, high = json.loads(bound) if op == "in" else (float(bound), math.inf)
    return (value > low if op == ">" else value >= low) and value <= high


@dataclass
class RunConfig:
    output_dir: str = "runs/out"  # no section: the run directory is not a setting
    seed: int = _setting(0, "run")
    workers: int = _setting(4, "run", ">= 1")
    rollouts_n: int = _setting(16, "run", ">= 1")
    max_tokens: int = _setting(256, "run", ">= 1")
    guidance_enabled: bool = _setting(True, "run")

    tasks_path: str = _setting("", "tasks")
    synth_count: int = _setting(64, "tasks", ">= 1")
    synth_lines: int = _setting(6, "tasks", ">= 2")
    synth_candidates: int = _setting(8, "tasks", f"in [2, {MAX_SYNTH_CANDIDATES}]")

    backend_endpoint: str = _setting("", "backend")  # set: the remote policy; empty: the tabular one
    teacher_endpoint: str = _setting("", "teacher")  # set: the remote teacher; empty: the oracle
    initial_policy: str = _setting("", "backend")

    sft_fraction: float = _setting(0.2, "assemble", "in [0, 1]")
    max_pairs_per_task: int = _setting(4, "assemble")
    include_guided_in_sft: bool = _setting(False, "assemble")

    sft_learning_rate: float = _setting(0.5, "sft", "> 0")
    sft_epochs: int = _setting(100, "sft", ">= 0")
    dpo_beta: float = _setting(0.1, "dpo", "> 0")
    dpo_learning_rate: float = _setting(0.5, "dpo", "> 0")
    dpo_epochs: int = _setting(200, "dpo", ">= 0")


# The fields the config file sets, by name and by section.
_SETTINGS = {f.name: f for f in fields(RunConfig) if "section" in f.metadata}
_SECTION_FIELDS = {
    section: tuple(name for name, f in _SETTINGS.items() if f.metadata["section"] == section)
    for section in dict.fromkeys(f.metadata["section"] for f in _SETTINGS.values())
}


def _coerce(name: str, raw: str):
    kind = _SETTINGS[name].type
    if kind == "bool":
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if value is None:
            raise UsageError(f"config value {name}={raw!r} is not a boolean")
        return value
    try:
        return {"int": int, "float": float, "str": str}[kind](raw)
    except ValueError as exc:
        raise UsageError(f"config value {name}={raw!r}: {exc}") from exc


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an INI-style file plus key=value overrides.

    Overrides use 'section.key=value' and win over the file; unknown
    sections or keys, and values out of a setting's range, are usage
    errors, not silent typo sinks or failures in a later phase.
    """
    config = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"config file {path}: {exc}") from None
        if not read:
            raise UsageError(f"config file {path} not found")
        if parser.defaults():  # configparser would merge these keys into every section
            raise UsageError(f"config file {path}: [DEFAULT] section is not allowed ({', '.join(parser.defaults())})")
        for section in parser.sections():
            if section not in _SECTION_FIELDS:
                raise UsageError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SECTION_FIELDS[section]:
                    raise UsageError(f"unknown config key {section}.{key}")
                setattr(config, key, _coerce(key, raw))
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UsageError(f"override {item!r} is not section.key=value")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in _SECTION_FIELDS or key not in _SECTION_FIELDS[section]:
            raise UsageError(f"unknown config key {dotted!r}")
        setattr(config, key, _coerce(key, raw))
    for key, setting in _SETTINGS.items():
        within = setting.metadata["range"]
        if within is not None and not _within(getattr(config, key), within):
            raise UsageError(f"config value {key}={getattr(config, key)!r} is out of range: must be {within}")
    return config


# ---------------------------------------------------------------------------
# Layer helpers (the phase functions below call these)
# ---------------------------------------------------------------------------


def build_backend(endpoint: str, policy: TabularPolicy) -> PolicyBackend:
    """The HTTP backend at endpoint if set, else a tabular backend over policy."""
    if endpoint:
        return HttpPolicyBackend(endpoint)
    return TabularPolicyBackend(policy)


def build_teacher(endpoint: str) -> TeacherBackend | None:
    """The HTTP teacher at endpoint if set, else None: the built-in oracle."""
    if endpoint:
        return HttpTeacherBackend(endpoint)
    return None


def _task_in(dataset: TaskDataset, task_id: str) -> Task:
    """The suite's task with this id; UsageError if the suite has none, as for inputs from another run."""
    task = dataset.by_id.get(task_id)
    if task is None:
        raise UsageError(f"inputs reference task {task_id!r}, which the task suite does not hold")
    return task


def _check_fit(tasks: TaskDataset, policy: TabularPolicy, source: str = "the policy does not fit the suite") -> None:
    """UsageError naming the task if the policy's head for a synthetic task has another grid than the task."""
    for task in tasks:
        if isinstance(task, SynthTask) and task.id in policy.heads:
            table = policy.heads[task.id].cand_logits.shape
            if table != (task.n_lines, task.n_candidates):
                raise UsageError(
                    f"{source}: task {task.id!r} has a {table[0]}x{table[1]} "
                    f"head but a {task.n_lines}x{task.n_candidates} grid"
                )


def evaluate_trajectories(dataset: TaskDataset, trajectories, *, workers: int = 4):
    items = [(_task_in(dataset, t.task_id), t) for t in trajectories]
    return evaluate_batch(items, workers=workers)


def guide_failures(
    dataset: TaskDataset, trajectories, records, teacher: TeacherBackend | None, *, workers: int = 1
) -> list:
    """Per failed unguided attempt, in order: the oracle's guidance, or the teacher's, or its lost EvaluationFailure.

    One warning names the lost exchanges' count and first error."""
    by_ref = {t.traj_id: t for t in trajectories}
    failures = []
    for rec in records:
        if isinstance(rec, EvaluationFailure) or rec.reward != 0:
            continue
        traj = by_ref.get(rec.trajectory_ref)
        if traj is not None and not traj.is_guided:
            failures.append((_task_in(dataset, rec.task_id), traj, rec))
    if teacher is None:
        return [oracle_teacher(*failure) for failure in failures]
    replies = request_guidance(failures, teacher, workers=workers)
    lost = [g for g in replies if isinstance(g, BackendError)]
    if lost:
        log.warning("%d of %d teacher exchanges were lost; the first: %s", len(lost), len(replies), lost[0])
    return [
        EvaluationFailure(task.id, traj.traj_id, str(g)) if isinstance(g, BackendError) else g
        for (task, traj, _), g in zip(failures, replies)
    ]


def reattempt_with_guidance(
    dataset: TaskDataset,
    guidance_list,
    backend: PolicyBackend,
    base_seed: int,
    *,
    max_tokens: int = 256,
    workers: int = 4,
) -> list:
    """One guided reattempt per live guidance record, seeded off its source ref; a dead one is a placeholder."""
    attempts = []
    for g in (g for g in guidance_list if not isinstance(g, EvaluationFailure)):
        seed = derive_seed(base_seed, "reattempt", g.source_trajectory_ref)
        attempts.append((_task_in(dataset, g.task_id), SamplingParams(TEMPERATURE_SAMPLING, seed, max_tokens), g))
    return scaffold_batch(attempts, backend, workers=workers)


def write_guidance(guidance_list, path: Path) -> None:
    """Each record a line; a lost one (EvaluationFailure) the line a reward file holds for it."""
    write_records(path, GUIDANCE_SCHEMA, guidance_list)


def read_guidance(path: Path) -> list:
    return read_declared(path, GUIDANCE_SCHEMA, lambda rec: record_type(rec, Guidance))


# ---------------------------------------------------------------------------
# Phase functions: fn(*input values, **the RunConfig fields it reads) -> output value(s), no file I/O
# ---------------------------------------------------------------------------


def make_tasks(*, tasks_path: str, synth_count: int, synth_lines: int, synth_candidates: int, seed: int,
               initial_policy: str) -> tuple[TaskDataset, TabularPolicy]:
    """The task suite and the starting policy over it.

    The suite is tasks_path if set, else a synthetic one; the policy is
    initial_policy if set, whose head for a synthetic task must have that
    task's grid, else uniform.
    """
    if tasks_path:
        dataset = load_tasks(tasks_path)
    else:
        dataset = generate_synth_suite(synth_count, synth_lines, synth_candidates, seed)
    if not initial_policy:
        return dataset, TabularPolicy.uniform(dataset)
    policy = TabularPolicy.load(initial_policy)
    _check_fit(dataset, policy, f"initial_policy {initial_policy}")
    return dataset, policy


def rollout(tasks: TaskDataset, policy: TabularPolicy, *, rollouts_n: int, seed: int, max_tokens: int,
            backend_endpoint: str, workers: int, eval_mode: bool = False) -> list:
    """rollouts_n attempts per task from the policy, seeded by seed."""
    _check_fit(tasks, policy)
    return rollout_all_tasks(
        tasks, build_backend(backend_endpoint, policy), rollouts_n, seed,
        workers=workers, max_tokens=max_tokens, eval_mode=eval_mode,
    )


def reattempt(tasks: TaskDataset, guidance: list, policy: TabularPolicy, *, seed: int, max_tokens: int,
              backend_endpoint: str, workers: int) -> list:
    """One guided reattempt per guidance record but a lost one."""
    _check_fit(tasks, policy)
    return reattempt_with_guidance(
        tasks, guidance, build_backend(backend_endpoint, policy), seed, max_tokens=max_tokens, workers=workers,
    )


def evaluate(tasks: TaskDataset, rollouts: list, *, workers: int) -> list:
    """One reward record (or EvaluationFailure) per trajectory."""
    return evaluate_trajectories(tasks, rollouts, workers=workers)


def guide(tasks: TaskDataset, rollouts: list, rewards: list, *, guidance_enabled: bool, teacher_endpoint: str,
          workers: int) -> list:
    """Teacher guidance, or a lost record, for every failed attempt; none when guidance is off."""
    if not guidance_enabled:
        return []
    return guide_failures(tasks, rollouts, rewards, build_teacher(teacher_endpoint), workers=workers)


def assemble(rollouts: list, rewards: list, guided_rollouts: list, guided_rewards: list, guidance: list, *,
             sft_fraction: float, max_pairs_per_task: int, include_guided_in_sft: bool, seed: int) -> RlvrDataset:
    """Preference pairs and the SFT subset."""
    return build_rlvr_dataset(
        rollouts, rewards, guided_rollouts, guided_rewards, guidance, sft_fraction=sft_fraction,
        max_pairs_per_task=max_pairs_per_task, seed=seed, include_guided_in_sft=include_guided_in_sft,
    )


def train_sft(policy: TabularPolicy, dataset: RlvrDataset, *, sft_learning_rate: float,
              sft_epochs: int) -> tuple[TabularPolicy, list]:
    """SFT of a copy of the policy on the dataset's positives; a fine-tuned policy passes through unchanged."""
    model, history = policy.clone(), []
    if model.fine_tuned:
        log.info("policy already fine-tuned; skipping sft")
    else:
        sft_config = DPOConfig(learning_rate=sft_learning_rate, epochs=sft_epochs)
        sft_train(model, dataset.sft, sft_config, history_out=history)
    return model, history


def train_dpo(policy: TabularPolicy, dataset: RlvrDataset, *, dpo_beta: float, dpo_learning_rate: float,
              dpo_epochs: int) -> tuple[TabularPolicy, list]:
    """DPO of a copy of the policy on the dataset's pairs against a frozen copy of the policy."""
    model, history = policy.clone(), []
    dpo_config = DPOConfig(beta=dpo_beta, learning_rate=dpo_learning_rate, epochs=dpo_epochs)
    dpo_train(model, dataset.pairs, dpo_config, reference=ReferencePolicy(policy), history_out=history)
    return model, history


def final_eval(tasks: TaskDataset, policy: TabularPolicy, *, backend_endpoint: str, seed: int, rollouts_n: int,
               max_tokens: int, workers: int) -> tuple[list, list]:
    """Eval-mode rollouts of the trained policy under a seed derived from seed, then scoring."""
    if backend_endpoint:
        raise UsageError(f"final-eval measures the trained policy, but backend_endpoint would roll out "
                         f"the remote model at {backend_endpoint} instead")
    trajs = rollout(
        tasks, policy, rollouts_n=rollouts_n, seed=derive_seed(seed, "final-eval"), max_tokens=max_tokens,
        backend_endpoint=backend_endpoint, workers=workers, eval_mode=True,
    )
    return trajs, evaluate(tasks, trajs, workers=workers)


def report(rollouts: list, rewards: list, guided_rewards: list, eval_rollouts: list, eval_rewards: list,
           selections: list | None = None, *, seed: int) -> tuple[dict, str]:
    """Pre- vs post-training report, as a JSON body and as text; UsageError if selections miss a scored task."""
    if selections is not None:
        selections = {s["task_id"]: s["reward"] for s in selections}
        missing = [r.task_id for r in eval_rewards if isinstance(r, RewardRecord) and r.task_id not in selections]
        if missing:
            raise UsageError(f"selections hold no record for task {missing[0]!r}, which final-eval scored")
    pre = aggregate(rollouts, rewards, bootstrap_seed=seed)
    uplift = guidance_uplift_report(rewards, guided_rewards)
    post = aggregate(
        eval_rollouts, eval_rewards, guidance_uplift=uplift, bootstrap_seed=seed, selections=selections,
    )
    text = (
        "== pre-training (rollout phase) ==\n"
        + render_report_text(pre)
        + "\n\n== post-training (final eval) ==\n"
        + render_report_text(post)
        + "\n"
    )
    return {"pre_training": pre.to_dict(), "post_training": post.to_dict()}, text


def train_rm(tasks: TaskDataset, dataset: RlvrDataset) -> tuple[PairwiseRM, list]:
    """Train the pairwise patch reward model on the dataset's pairs."""
    history: list = []
    return rm_train(build_rm_training_pairs(dataset.pairs, tasks.by_id), history_out=history), history


def rank(tasks: TaskDataset, rm: PairwiseRM, eval_rollouts: list, eval_rewards: list) -> list:
    """Best-of-k selection with a trained reward model: one record per task with a scored candidate.

    A trajectory whose record is an EvaluationFailure is no candidate; one
    selected with no record at all is a UsageError.
    """
    rewards = {r.trajectory_ref: r for r in eval_rewards}
    grouped: dict[str, list] = {}
    for traj in eval_rollouts:
        if not isinstance(rewards.get(traj.traj_id), EvaluationFailure):
            grouped.setdefault(traj.task_id, []).append(traj)
    selections = []
    for task_id in sorted(grouped):
        batch = grouped[task_id]
        index = rank_best_of_k(rm, _task_in(tasks, task_id).issue, [t.patch for t in batch]).selected_index
        rec = rewards.get(batch[index].traj_id)
        if rec is None:
            raise UsageError(f"no reward record for selected trajectory {batch[index].traj_id!r}")
        selections.append({
            "record": "selection",
            "task_id": task_id,
            "trajectory_ref": batch[index].traj_id,
            "selected_index": index,
            "k": len(batch),
            "reward": rec.reward,
        })
    return selections


# ---------------------------------------------------------------------------
# The phase tables and the loop
# ---------------------------------------------------------------------------


def _write_text(text: str, path: StrPath) -> None:
    Path(path).write_text(text, encoding="utf-8")


class Artifact(NamedTuple):
    """A file a row writes: its name in a run directory, and its format's writer and reader.

    write(value, path) and read(path) -> value. Those that call a function
    imported into this module are lambdas that look it up when called, so a
    replaced module global is the one used. read is None for an artifact no
    row takes as an input.
    """

    file: str
    write: Callable
    read: Callable | None = None


def _trajectories(file: str) -> Artifact:
    return Artifact(file, lambda trajs, path: write_trajectories(trajs, path), lambda path: read_trajectories(path))


def _rewards(file: str) -> Artifact:
    return Artifact(file, lambda records, path: write_rewards(records, path), lambda path: read_rewards(path))


def _policy(file: str) -> Artifact:
    return Artifact(file, lambda model, path: model.save(path), lambda path: TabularPolicy.load(path))


def _log(file: str) -> Artifact:
    return Artifact(file, lambda history, path: write_history_csv(history, path))


def setting_parameters(fn: Callable) -> tuple[str, ...]:
    """The RunConfig fields fn takes as keyword-only parameters of the same names: those run_phase passes it."""
    return tuple(
        name for name, p in inspect.signature(fn).parameters.items() if p.kind is p.KEYWORD_ONLY and name in _SETTINGS
    )


class Phase(NamedTuple):
    """One row, called as fn(*input values, *optional values, **settings); returns one value per output."""

    name: str
    fn: Callable
    inputs: tuple[str, ...]  # artifact names, each an output of an earlier row
    outputs: dict[str, Artifact]  # artifact name -> its file and format
    optional: tuple[str, ...] = ()  # inputs only a stepwise command passes; None when absent

    @property
    def settings(self) -> tuple[str, ...]:
        """The settings fn takes but workers, which changes no byte: those runstate.json records and a resume checks."""
        return tuple(name for name in setting_parameters(self.fn) if name != "workers")


PHASE_TABLE = (
    Phase("tasks", make_tasks, (), {
        "tasks": Artifact("tasks.jsonl", lambda suite, path: save_tasks(suite, path), lambda path: load_tasks(path)),
        "policy_init": _policy("policy_init.json"),
    }),
    Phase("rollout", rollout, ("tasks", "policy_init"), {"rollouts": _trajectories("rollouts.jsonl")}),
    Phase("evaluate", evaluate, ("tasks", "rollouts"), {"rewards": _rewards("rewards.jsonl")}),
    Phase("guide", guide, ("tasks", "rollouts", "rewards"), {"guidance": Artifact(
        "guidance.jsonl", lambda guidance, path: write_guidance(guidance, path), lambda path: read_guidance(path)
    )}),
    Phase("reattempt", reattempt, ("tasks", "guidance", "policy_init"),
          {"guided_rollouts": _trajectories("guided_rollouts.jsonl")}),
    Phase("evaluate-guided", evaluate, ("tasks", "guided_rollouts"),
          {"guided_rewards": _rewards("guided_rewards.jsonl")}),
    Phase("assemble", assemble, ("rollouts", "rewards", "guided_rollouts", "guided_rewards", "guidance"), {
        "dataset": Artifact("dataset.jsonl", lambda d, path: emit_dataset(d, path), lambda path: load_dataset(path)),
    }),
    Phase("train-sft", train_sft, ("policy_init", "dataset"),
          {"policy_sft": _policy("policy_sft.json"), "sft_log": _log("sft_log.csv")}),
    Phase("train-dpo", train_dpo, ("policy_sft", "dataset"),
          {"policy_final": _policy("policy_final.json"), "dpo_log": _log("dpo_log.csv")}),
    Phase("final-eval", final_eval, ("tasks", "policy_final"),
          {"eval_rollouts": _trajectories("eval_rollouts.jsonl"), "eval_rewards": _rewards("eval_rewards.jsonl")}),
    Phase("report", report, ("rollouts", "rewards", "guided_rewards", "eval_rollouts", "eval_rewards"), {
        "report_json": Artifact(
            "report.json", lambda body, path: _write_text(json.dumps(body, sort_keys=True, indent=1) + "\n", path)
        ),
        "report_txt": Artifact("report.txt", _write_text),
    }, optional=("selections",)),
)
# Best-of-k on a finished run: stepwise commands only, outside run_loop and its
# manifest. Their functions take no setting, so the commands take none.
RM_TABLE = (
    Phase("train-rm", train_rm, ("tasks", "dataset"),
          {"rm": Artifact("rm.json", PairwiseRM.save, PairwiseRM.load), "rm_log": _log("rm_log.csv")}),
    Phase("rank", rank, ("tasks", "rm", "eval_rollouts", "eval_rewards"), {
        "selections": Artifact(
            "selections.jsonl",
            lambda selections, path: write_records(path, SELECTIONS_SCHEMA, selections),
            lambda path: [s for _, s in read_records(
                path, SELECTIONS_SCHEMA, lambda rec: dict(rec, task_id=rec["task_id"], reward=check_reward(rec["reward"]))
            )],
        ),
    }),
)
PHASES = tuple(phase.name for phase in PHASE_TABLE)
LOSSY = ("rewards", "guidance", "guided_rewards", "eval_rewards")  # the artifacts that can hold a lost record
ARTIFACTS = {name: artifact.file for phase in PHASE_TABLE for name, artifact in phase.outputs.items()}
_DECLARED = {name: artifact for phase in (*PHASE_TABLE, *RM_TABLE) for name, artifact in phase.outputs.items()}


def read_artifact(name: str, path: StrPath):
    """The value an artifact file holds, through the reader its row declares."""
    return _DECLARED[name].read(path)


class RunPaths:
    """RunPaths(dir).<artifact name> for every declared output, plus .state and .manifest."""

    def __init__(self, output_dir: StrPath):
        self.dir = Path(output_dir)
        for name, file in ARTIFACTS.items():
            setattr(self, name, self.dir / file)
        self.state = self.dir / "runstate.json"
        self.manifest = self.dir / "manifest.json"


def commit_outputs(write: Callable, *outputs: StrPath) -> None:
    """write(*partial paths), then each `<output>.partial` os.replace'd onto its output.

    A reader sees an output's old bytes or its new ones, never half: a crash
    inside write leaves every output as it was and unlinks the partials.
    """
    partials = [Path(f"{out}.partial") for out in outputs]
    try:
        write(*partials)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
    for partial, out in zip(partials, outputs):
        os.replace(partial, out)


def run_phase(phase: Phase, config: RunConfig, inputs: list, outputs: list) -> dict:
    """phase.fn(*inputs, **the settings it takes from config), its results committed; returns them by artifact name."""
    results = phase.fn(*inputs, **{name: getattr(config, name) for name in setting_parameters(phase.fn)})
    values = dict(zip(phase.outputs, results if len(phase.outputs) > 1 else (results,)))

    def write(*partials):
        for (name, artifact), partial in zip(phase.outputs.items(), partials):
            artifact.write(values[name], partial)

    commit_outputs(write, *outputs)
    return values


def _write_replacing(path: Path, text: str) -> None:
    commit_outputs(lambda partial: _write_text(text, partial), path)


class RunState:
    """The phases completed so far, in order, the sha256 of every file they committed, and the values of the
    settings each takes."""

    def __init__(self, path: Path):
        self.path = path
        try:
            body = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
            self.completed: list[str] = body.get("completed", [])
            self.hashes: dict[str, str] = body.get("hashes", {})
            self.settings: dict[str, dict] = body.get("settings", {})
            if self.completed != list(PHASES[: len(self.completed)]):
                raise ValueError(f"completed {self.completed!r} is not a prefix of {list(PHASES)}")
            if not isinstance(self.hashes, dict) or not all(isinstance(h, str) for h in self.hashes.values()):
                raise ValueError(f"hashes {self.hashes!r} is not a map of file names to digests")
            if not isinstance(self.settings, dict) or not all(isinstance(v, dict) for v in self.settings.values()):
                raise ValueError(f"settings {self.settings!r} is not a map of phase names to settings")
        except (ValueError, AttributeError, TypeError) as exc:
            raise CheckpointError(f"run state {path} is corrupt: {exc}") from exc

    def mark(self, phase: str) -> None:
        if phase not in self.completed:
            self.completed.append(phase)
        body = {"completed": self.completed, "hashes": self.hashes, "settings": self.settings}
        _write_replacing(self.path, json.dumps(body, sort_keys=True) + "\n")

    def check_settings(self, phase: str, declared: dict) -> None:
        """UsageError if a value of declared differs from the one completed phase recorded for that setting;
        CheckpointError if it recorded none."""
        recorded = self.settings.get(phase)
        if recorded is None or not recorded.keys() >= declared.keys():
            raise CheckpointError(f"{self.path} records no settings for phase {phase!r}; cannot resume")
        for name, value in declared.items():
            if recorded[name] != value:
                raise UsageError(f"phase {phase!r} completed with {name}={recorded[name]!r}, but this resume "
                                 f"sets {name}={value!r}; start a new run to change it")


def run_loop(config: RunConfig, resume: bool = False) -> dict:
    """Execute one training iteration; returns the manifest dict.

    Each phase gets the values earlier phases returned; an output of a phase
    completed before a resume is read back from its verified file instead.
    A value is dropped after the last phase that reads it. The manifest's
    infra_errors counts the EvaluationFailure records in the reward and
    guidance artifacts, those of phases completed before a resume included.
    A phase failure raises PhaseError with the earlier phases committed;
    rerun with resume=True to continue after them, which raises
    CheckpointError if one of their outputs is missing, edited or unhashed,
    and UsageError if config changes a setting one of them takes.
    Another iteration on top of a finished run is a fresh invocation
    pointing initial_policy at the previous run's policy_final.json.
    A set backend_endpoint or a non-synthetic task in the suite raises
    UsageError before any phase runs (_check_trainable).
    """
    _check_trainable(config)
    paths = RunPaths(config.output_dir)
    paths.dir.mkdir(parents=True, exist_ok=True)
    state = RunState(paths.state)
    if not resume and state.completed:
        raise UsageError(
            f"{paths.dir} already holds a run (phases {state.completed}); pass resume to continue"
        )
    last_read = {name: i for i, phase in enumerate(PHASE_TABLE) for name in phase.inputs}
    values: dict = {}
    infra_errors = 0
    for i, phase in enumerate(PHASE_TABLE):
        outputs = [getattr(paths, name) for name in phase.outputs]
        declared = {name: getattr(config, name) for name in phase.settings}
        if phase.name in state.completed:
            for file in outputs:
                if file.name not in state.hashes:
                    raise CheckpointError(f"{paths.state} records no hash for {file.name}; cannot resume")
                if not file.exists() or canonical_file_hash(file) != state.hashes[file.name]:
                    raise CheckpointError(f"{file} is missing or changed since phase {phase.name!r} completed")
            state.check_settings(phase.name, declared)
            log.info("phase %-16s already complete, skipping", phase.name)
            # the artifacts that can hold a lost record are read back, for the manifest's infra_errors
            produced = {name: read_artifact(name, getattr(paths, name)) for name in phase.outputs if name in LOSSY}
        else:
            for name in phase.inputs:
                if name not in values:
                    values[name] = read_artifact(name, getattr(paths, name))
            log.info("phase %-16s starting", phase.name)
            try:
                produced = run_phase(phase, config, [values[name] for name in phase.inputs], outputs)
            except RlvrLoopError as exc:
                raise PhaseError(phase.name, str(exc)) from exc
            for file in outputs:
                state.hashes[file.name] = canonical_file_hash(file)
            state.settings[phase.name] = declared
            state.mark(phase.name)
        infra_errors += infra_failures({name: value for name, value in produced.items() if name in LOSSY})
        values.update(produced)
        for name in [name for name in values if last_read.get(name, -1) <= i]:
            del values[name]
    return write_manifest(config, paths, state, infra_errors)


def _check_trainable(config: RunConfig) -> None:
    """UsageError unless run_loop trains and evaluates the in-process tabular policy, which only synthetic tasks have.

    With backend_endpoint set, every rollout would go to the remote model and final-eval would
    report that model as the trained one; a real task would stop train-sft after every rollout
    and sandbox run. Both are refused before any phase runs."""
    if config.backend_endpoint:
        raise UsageError(f"run-loop trains the tabular policy, but backend_endpoint would roll out the remote "
                         f"model at {config.backend_endpoint} instead; the stepwise tasks through assemble take it")
    if config.tasks_path:
        real = next((task.id for task in load_tasks(config.tasks_path) if not isinstance(task, SynthTask)), None)
        if real is not None:
            raise UsageError(f"run-loop trains a tabular policy, which only synthetic tasks have; task {real!r} "
                             f"in {config.tasks_path} is not synthetic; the stepwise tasks through assemble take it")


def write_manifest(config: RunConfig, paths: RunPaths, state: RunState, infra_errors: int) -> dict:
    """The config, the infrastructure failure count, and the hash of every declared output and of the run state."""
    hashes = {file: state.hashes[file] for file in ARTIFACTS.values()}
    hashes[paths.state.name] = canonical_file_hash(paths.state)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "schema_version": 1,
        "config": {name: getattr(config, name) for name in _SETTINGS},  # the run directory is no setting
        "infra_errors": infra_errors,
        "artifacts": [{"path": file, "sha256": digest} for file, digest in sorted(hashes.items())],
    }
    _write_replacing(paths.manifest, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def infra_failures(values: dict) -> int:
    """The records the infrastructure lost among a phase's output values: placeholders and EvaluationFailures.

    Scoring a placeholder gives an EvaluationFailure, so run_loop counts only the LOSSY artifacts."""
    lists = [value for value in values.values() if isinstance(value, list)]
    return sum(
        isinstance(r, EvaluationFailure) or isinstance(r, Trajectory) and r.is_placeholder
        for value in lists for r in value
    )


def count_infra_errors(paths: RunPaths) -> int:
    """The EvaluationFailure records in a run directory's reward and guidance files, those that exist."""
    return infra_failures(
        {name: read_artifact(name, getattr(paths, name)) for name in LOSSY if getattr(paths, name).exists()}
    )
