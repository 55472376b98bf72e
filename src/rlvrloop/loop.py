"""One full training iteration, phase by phase, with a resumable run state.

Phases: tasks -> rollout -> evaluate -> guide -> reattempt ->
evaluate-guided -> assemble -> train-sft -> train-dpo -> final-eval ->
report. Each phase body is one module-level function that takes the
RunConfig plus explicit input and output paths. PHASE_TABLE declares once
what each phase reads and writes; PHASES, RunPaths, the manifest's artifact
list and the stepwise CLI subcommands (one per row, one flag per artifact)
come from it, so run_loop and the stepwise pipeline call the same functions
and produce byte-identical artifacts by construction.
run_loop and the stepwise commands commit a phase's outputs atomically
through commit_outputs (`<file>.partial`, then os.replace); run_loop also
records their sha256 in runstate.json, and on resume refuses a completed
phase whose outputs no longer hash the same.

All randomness is derived from config.seed through labeled sub-seeds; the
wall clock never feeds any decision, so rerunning a config reproduces every
deterministic artifact hash exactly.
"""
from __future__ import annotations

import configparser
import json
import logging
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

from .backends import HttpPolicyBackend, PolicyBackend, SamplingParams, TabularPolicyBackend
from .errors import CheckpointError, PhaseError, RlvrLoopError, UsageError
from .evaluator import (
    EvaluationFailure,
    evaluate_batch,
    read_rewards,
    write_rewards,
)
from .guidance import (
    GUIDANCE_SCHEMA,
    HttpTeacherBackend,
    TeacherBackend,
    guidance_from_record,
    guidance_to_record,
    oracle_teacher,
    request_guidance,
)
from .jsonl import canonical_file_hash, derive_seed, read_records, write_records
from .metrics import aggregate, guidance_uplift_report, render_report_text
from .pairs import RlvrDataset, build_rlvr_dataset, emit_dataset, load_dataset
from .policy import ReferencePolicy, TabularPolicy
from .rollout import (
    TEMPERATURE_SAMPLING,
    read_trajectories,
    run_scaffold,
    sample_rollouts,
    write_trajectories,
)
from .tasks import TaskDataset, generate_synth_suite, load_tasks, save_tasks
from .training import DPOConfig, dpo_train, sft_train, write_history_csv

log = logging.getLogger(__name__)

MANIFEST_SCHEMA = "run_manifest"

StrPath = str | Path  # the phase functions take paths in either form

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    output_dir: str = "runs/out"
    seed: int = 0
    workers: int = 4
    rollouts_n: int = 16
    max_tokens: int = 256
    guidance_enabled: bool = True

    tasks_path: str = ""
    synth_count: int = 64
    synth_lines: int = 6
    synth_candidates: int = 8

    backend_kind: str = "tabular"
    backend_endpoint: str = ""
    teacher_kind: str = "oracle"
    teacher_endpoint: str = ""
    initial_policy: str = ""
    container_image: str = ""

    sft_fraction: float = 0.2
    max_pairs_per_task: int = 4
    keep_guidance_in_prompt: bool = False
    include_guided_in_sft: bool = False

    sft_learning_rate: float = 0.5
    sft_epochs: int = 100
    dpo_beta: float = 0.1
    dpo_learning_rate: float = 0.5
    dpo_epochs: int = 200


# Flat key=value sections in the config file, mapped onto RunConfig fields.
_SECTION_FIELDS = {
    "run": (
        "output_dir", "seed", "workers", "rollouts_n", "max_tokens", "guidance_enabled",
    ),
    "tasks": ("tasks_path", "synth_count", "synth_lines", "synth_candidates"),
    "backend": ("backend_kind", "backend_endpoint", "initial_policy", "container_image"),
    "teacher": ("teacher_kind", "teacher_endpoint"),
    "assemble": (
        "sft_fraction", "max_pairs_per_task", "keep_guidance_in_prompt", "include_guided_in_sft",
    ),
    "sft": ("sft_learning_rate", "sft_epochs"),
    "dpo": ("dpo_beta", "dpo_learning_rate", "dpo_epochs"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES.get(name)
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config value {name}={raw!r} is not a boolean")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise UsageError(f"config value {name}={raw!r}: {exc}") from exc
    return raw


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an INI-style file plus key=value overrides.

    Overrides use 'section.key=value' and win over the file; unknown
    sections or keys are usage errors, not silent typo sinks.
    """
    config = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise UsageError(f"config file {path} not found")
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
    return config


# ---------------------------------------------------------------------------
# Layer helpers (the phase functions below call these)
# ---------------------------------------------------------------------------


def build_backend(config: RunConfig, policy: TabularPolicy) -> PolicyBackend:
    if config.backend_kind == "tabular":
        return TabularPolicyBackend(policy)
    if config.backend_kind == "remote":
        if not config.backend_endpoint:
            raise UsageError("backend_kind=remote requires backend_endpoint")
        return HttpPolicyBackend(config.backend_endpoint)
    raise UsageError(f"unknown backend kind {config.backend_kind!r}")


def build_teacher(config: RunConfig) -> TeacherBackend | None:
    """None means the built-in oracle; anything else is a text teacher."""
    if config.teacher_kind == "oracle":
        return None
    if config.teacher_kind == "remote":
        if not config.teacher_endpoint:
            raise UsageError("teacher_kind=remote requires teacher_endpoint")
        return HttpTeacherBackend(config.teacher_endpoint)
    raise UsageError(f"unknown teacher kind {config.teacher_kind!r}")


def resolve_tasks(config: RunConfig) -> TaskDataset:
    if config.tasks_path:
        return load_tasks(config.tasks_path)
    return generate_synth_suite(
        config.synth_count, config.synth_lines, config.synth_candidates, config.seed
    )


def rollout_all_tasks(
    dataset: TaskDataset,
    backend: PolicyBackend,
    n: int,
    base_seed: int,
    *,
    workers: int = 4,
    max_tokens: int = 256,
    eval_mode: bool = False,
) -> list:
    """Per-task rollout batches, flattened in dataset order.

    Tasks spread over `workers` threads unless the backend declares
    max_concurrency 1; slot seeds are derived per (task, slot) so
    scheduling order cannot change any sample.
    """
    def one(task):
        return sample_rollouts(
            task, backend, n, base_seed, max_tokens=max_tokens, eval_mode=eval_mode
        )

    if workers <= 1 or backend.max_concurrency == 1 or len(dataset) <= 1:
        batches = [one(t) for t in dataset]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(one, dataset.tasks))
    return [traj for batch in batches for traj in batch]


def evaluate_trajectories(dataset: TaskDataset, trajectories, *, workers: int = 4, container_image: str = ""):
    items = [(dataset.by_id[t.task_id], t) for t in trajectories]
    return evaluate_batch(items, workers=workers, container_image=container_image or None)


def guide_failures(
    dataset: TaskDataset,
    trajectories,
    records,
    teacher: TeacherBackend | None,
) -> list:
    """One guidance record per failed unguided attempt, in record order."""
    by_ref = {t.traj_id: t for t in trajectories}
    out = []
    for rec in records:
        if isinstance(rec, EvaluationFailure) or rec.reward != 0:
            continue
        traj = by_ref.get(rec.trajectory_ref)
        if traj is None or traj.is_guided:
            continue
        task = dataset.by_id[rec.task_id]
        if teacher is None:
            out.append(oracle_teacher(task, traj, rec))
        else:
            out.append(request_guidance(task, traj, rec, teacher))
    return out


def reattempt_with_guidance(
    dataset: TaskDataset,
    guidance_list,
    backend: PolicyBackend,
    base_seed: int,
    *,
    max_tokens: int = 256,
    workers: int = 4,
) -> list:
    """One guided reattempt per guidance record, seeded off the source ref."""
    def one(guidance):
        task = dataset.by_id[guidance.task_id]
        params = SamplingParams(
            temperature=TEMPERATURE_SAMPLING,
            seed=derive_seed(base_seed, "reattempt", guidance.source_trajectory_ref),
            max_tokens=max_tokens,
        )
        return run_scaffold(task, backend, params, guidance=guidance)

    if workers <= 1 or backend.max_concurrency == 1 or len(guidance_list) <= 1:
        return [one(g) for g in guidance_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, guidance_list))


def write_guidance(guidance_list, path: Path) -> None:
    write_records(path, GUIDANCE_SCHEMA, (guidance_to_record(g) for g in guidance_list))


def read_guidance(path: Path) -> list:
    return [g for _, g in read_records(path, GUIDANCE_SCHEMA, guidance_from_record)]


# ---------------------------------------------------------------------------
# Phase functions: run_loop and the stepwise CLI subcommands both call these
# ---------------------------------------------------------------------------


def make_tasks(config: RunConfig, tasks: StrPath, policy: StrPath) -> None:
    """Write the task suite, then the starting policy over it.

    The suite is config.tasks_path if set, else a synthetic one; the policy
    is config.initial_policy if set, else uniform.
    """
    dataset = resolve_tasks(config)
    save_tasks(dataset, tasks)
    if config.initial_policy:
        model = TabularPolicy.load(config.initial_policy)
    else:
        model = TabularPolicy.uniform(dataset)
    model.save(policy, provenance={"phase": "init"})


def rollout(
    config: RunConfig, tasks: StrPath, policy: StrPath, out: StrPath, *, eval_mode: bool = False
) -> list:
    """config.rollouts_n attempts per task from the policy, seeded by config.seed."""
    backend = build_backend(config, TabularPolicy.load(policy))
    trajs = rollout_all_tasks(
        load_tasks(tasks), backend, config.rollouts_n, config.seed,
        workers=config.workers, max_tokens=config.max_tokens, eval_mode=eval_mode,
    )
    write_trajectories(trajs, out)
    return trajs


def reattempt(
    config: RunConfig, tasks: StrPath, guidance: StrPath, policy: StrPath, out: StrPath
) -> list:
    """One guided reattempt per guidance record."""
    guidance_list = read_guidance(guidance)
    trajs = []
    if guidance_list:
        backend = build_backend(config, TabularPolicy.load(policy))
        trajs = reattempt_with_guidance(
            load_tasks(tasks), guidance_list, backend, config.seed,
            max_tokens=config.max_tokens, workers=config.workers,
        )
    write_trajectories(trajs, out)
    return trajs


def _score(config: RunConfig, dataset: TaskDataset, trajectories, out: StrPath) -> list:
    records = evaluate_trajectories(
        dataset, trajectories, workers=config.workers, container_image=config.container_image
    )
    write_rewards(records, out)
    return records


def evaluate(config: RunConfig, tasks: StrPath, rollouts: StrPath, out: StrPath) -> list:
    """One reward record (or EvaluationFailure) per trajectory."""
    return _score(config, load_tasks(tasks), read_trajectories(rollouts), out)


def guide(config: RunConfig, tasks: StrPath, rollouts: StrPath, rewards: StrPath, out: StrPath) -> list:
    """Teacher guidance for every failed attempt; none when guidance is off."""
    guidance_list = []
    if config.guidance_enabled:
        teacher = build_teacher(config)
        guidance_list = guide_failures(
            load_tasks(tasks), read_trajectories(rollouts), read_rewards(rewards), teacher
        )
    write_guidance(guidance_list, out)
    return guidance_list


def assemble(
    config: RunConfig,
    rollouts: StrPath,
    rewards: StrPath,
    guided_rollouts: StrPath,
    guided_rewards: StrPath,
    guidance: StrPath,
    out: StrPath,
) -> RlvrDataset:
    """Preference pairs and the SFT subset."""
    rlvr = build_rlvr_dataset(
        read_trajectories(rollouts),
        read_rewards(rewards),
        read_trajectories(guided_rollouts),
        read_rewards(guided_rewards),
        read_guidance(guidance),
        sft_fraction=config.sft_fraction,
        max_pairs_per_task=config.max_pairs_per_task,
        seed=config.seed,
        keep_guidance_in_prompt=config.keep_guidance_in_prompt,
        include_guided_in_sft=config.include_guided_in_sft,
    )
    emit_dataset(rlvr, out)
    return rlvr


def train_sft(
    config: RunConfig, policy: StrPath, dataset: StrPath, out: StrPath, history_csv: StrPath
) -> list:
    """SFT on the dataset's positives; a fine-tuned policy is written through unchanged."""
    model = TabularPolicy.load(policy)
    rlvr = load_dataset(dataset)
    history: list = []
    if model.fine_tuned:
        log.info("policy already fine-tuned; skipping sft")
    else:
        sft_config = DPOConfig(learning_rate=config.sft_learning_rate, epochs=config.sft_epochs)
        sft_train(model, rlvr.sft, sft_config, history_out=history)
    model.save(out, provenance={"phase": "sft"})
    write_history_csv(history, history_csv)
    return history


def train_dpo(
    config: RunConfig, policy: StrPath, dataset: StrPath, out: StrPath, history_csv: StrPath
) -> list:
    """DPO on the dataset's pairs against a frozen copy of the input policy."""
    model = TabularPolicy.load(policy)
    reference = ReferencePolicy(model)
    rlvr = load_dataset(dataset)
    history: list = []
    dpo_config = DPOConfig(
        beta=config.dpo_beta, learning_rate=config.dpo_learning_rate, epochs=config.dpo_epochs
    )
    dpo_train(model, rlvr.pairs, dpo_config, reference=reference, history_out=history)
    model.save(out, provenance={"phase": "dpo"})
    write_history_csv(history, history_csv)
    return history


def final_eval(
    config: RunConfig, tasks: StrPath, policy: StrPath, rollouts_out: StrPath, rewards_out: StrPath
) -> list:
    """Eval-mode rollouts of the trained policy under a seed derived from config.seed, then scoring."""
    eval_config = replace(config, seed=derive_seed(config.seed, "final-eval"))
    trajs = rollout(eval_config, tasks, policy, rollouts_out, eval_mode=True)
    return _score(config, load_tasks(tasks), trajs, rewards_out)


def report(
    config: RunConfig,
    rollouts: StrPath,
    rewards: StrPath,
    guided_rewards: StrPath,
    eval_rollouts: StrPath,
    eval_rewards: StrPath,
    out_json: StrPath,
    out_txt: StrPath,
    selections: dict[str, int] | None = None,
) -> str:
    """Pre- vs post-training report; returns the text form."""
    pre = aggregate(read_trajectories(rollouts), read_rewards(rewards), bootstrap_seed=config.seed)
    uplift = guidance_uplift_report(read_rewards(rewards), read_rewards(guided_rewards))
    post = aggregate(
        read_trajectories(eval_rollouts), read_rewards(eval_rewards),
        selections=selections, guidance_uplift=uplift, bootstrap_seed=config.seed,
    )
    body = {"pre_training": pre.to_dict(), "post_training": post.to_dict()}
    Path(out_json).write_text(json.dumps(body, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    text = (
        "== pre-training (rollout phase) ==\n"
        + render_report_text(pre)
        + "\n\n== post-training (final eval) ==\n"
        + render_report_text(post)
        + "\n"
    )
    Path(out_txt).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# The phase table and the loop
# ---------------------------------------------------------------------------


class Phase(NamedTuple):
    """One loop phase, called as fn(config, *input paths, *output paths)."""

    name: str
    fn: Callable
    inputs: tuple[str, ...]  # artifact names, each an output of an earlier phase
    outputs: dict[str, str]  # artifact name -> file name in the run directory


PHASE_TABLE = (
    Phase("tasks", make_tasks, (), {"tasks": "tasks.jsonl", "policy_init": "policy_init.json"}),
    Phase("rollout", rollout, ("tasks", "policy_init"), {"rollouts": "rollouts.jsonl"}),
    Phase("evaluate", evaluate, ("tasks", "rollouts"), {"rewards": "rewards.jsonl"}),
    Phase("guide", guide, ("tasks", "rollouts", "rewards"), {"guidance": "guidance.jsonl"}),
    Phase("reattempt", reattempt, ("tasks", "guidance", "policy_init"),
          {"guided_rollouts": "guided_rollouts.jsonl"}),
    Phase("evaluate-guided", evaluate, ("tasks", "guided_rollouts"),
          {"guided_rewards": "guided_rewards.jsonl"}),
    Phase("assemble", assemble, ("rollouts", "rewards", "guided_rollouts", "guided_rewards", "guidance"),
          {"dataset": "dataset.jsonl"}),
    Phase("train-sft", train_sft, ("policy_init", "dataset"),
          {"policy_sft": "policy_sft.json", "sft_log": "sft_log.csv"}),
    Phase("train-dpo", train_dpo, ("policy_sft", "dataset"),
          {"policy_final": "policy_final.json", "dpo_log": "dpo_log.csv"}),
    Phase("final-eval", final_eval, ("tasks", "policy_final"),
          {"eval_rollouts": "eval_rollouts.jsonl", "eval_rewards": "eval_rewards.jsonl"}),
    Phase("report", report, ("rollouts", "rewards", "guided_rewards", "eval_rollouts", "eval_rewards"),
          {"report_json": "report.json", "report_txt": "report.txt"}),
)
PHASES = tuple(phase.name for phase in PHASE_TABLE)
ARTIFACTS = {name: file for phase in PHASE_TABLE for name, file in phase.outputs.items()}


class RunPaths:
    """RunPaths(dir).<artifact name> for every declared output, plus .state and .manifest."""

    def __init__(self, output_dir: StrPath):
        self.dir = Path(output_dir)
        for name, file in ARTIFACTS.items():
            setattr(self, name, self.dir / file)
        self.state = self.dir / "runstate.json"
        self.manifest = self.dir / "manifest.json"


def commit_outputs(write: Callable, *outputs: StrPath):
    """write(*partial paths), then each `<output>.partial` os.replace'd onto its output.

    A reader sees an output's old bytes or its new ones, never half: a crash
    inside write leaves every output as it was, and a half-written file
    keeps its `.partial` name. Returns what write returns.
    """
    partials = [Path(f"{out}.partial") for out in outputs]
    result = write(*partials)
    for partial, out in zip(partials, outputs):
        os.replace(partial, out)
    return result


def _write_replacing(path: Path, text: str) -> None:
    commit_outputs(lambda partial: partial.write_text(text, encoding="utf-8"), path)


class RunState:
    """The phases completed so far, in order, and the sha256 of every file they committed."""

    def __init__(self, path: Path):
        self.path = path
        try:
            body = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
            self.completed: list[str] = body.get("completed", [])
            self.hashes: dict[str, str] = body.get("hashes", {})
            if self.completed != list(PHASES[: len(self.completed)]):
                raise ValueError(f"completed {self.completed!r} is not a prefix of {list(PHASES)}")
            if not isinstance(self.hashes, dict) or not all(isinstance(h, str) for h in self.hashes.values()):
                raise ValueError(f"hashes {self.hashes!r} is not a map of file names to digests")
        except (ValueError, AttributeError, TypeError) as exc:
            raise CheckpointError(f"run state {path} is corrupt: {exc}") from exc

    def mark(self, phase: str) -> None:
        if phase not in self.completed:
            self.completed.append(phase)
        body = {"completed": self.completed, "hashes": self.hashes}
        _write_replacing(self.path, json.dumps(body, sort_keys=True) + "\n")


def run_loop(config: RunConfig, resume: bool = False) -> dict:
    """Execute one training iteration; returns the manifest dict.

    A phase failure raises PhaseError with the earlier phases committed;
    rerun with resume=True to continue after them, which raises
    CheckpointError if one of their outputs is missing, edited or unhashed.
    Another iteration on top of a finished run is a fresh invocation
    pointing initial_policy at the previous run's policy_final.json.
    """
    paths = RunPaths(config.output_dir)
    paths.dir.mkdir(parents=True, exist_ok=True)
    state = RunState(paths.state)
    if not resume and state.completed:
        raise UsageError(
            f"{paths.dir} already holds a run (phases {state.completed}); pass resume to continue"
        )
    for phase in PHASE_TABLE:
        outputs = [paths.dir / file for file in phase.outputs.values()]
        if phase.name in state.completed:
            for file in outputs:
                if file.name not in state.hashes:
                    raise CheckpointError(f"{paths.state} records no hash for {file.name}; cannot resume")
                if not file.exists() or canonical_file_hash(file) != state.hashes[file.name]:
                    raise CheckpointError(f"{file} is missing or changed since phase {phase.name!r} completed")
            log.info("phase %-16s already complete, skipping", phase.name)
            continue
        log.info("phase %-16s starting", phase.name)
        inputs = [getattr(paths, name) for name in phase.inputs]
        try:
            commit_outputs(lambda *partials: phase.fn(config, *inputs, *partials), *outputs)
        except RlvrLoopError as exc:
            raise PhaseError(phase.name, str(exc)) from exc
        for file in outputs:
            state.hashes[file.name] = canonical_file_hash(file)
        state.mark(phase.name)
    return write_manifest(config, paths, state)


def write_manifest(config: RunConfig, paths: RunPaths, state: RunState) -> dict:
    """The config plus the recorded hash of every declared output and of the run state."""
    hashes = {file: state.hashes[file] for file in ARTIFACTS.values()}
    hashes[paths.state.name] = canonical_file_hash(paths.state)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "schema_version": 1,
        "config": asdict(config),
        "backend_deterministic": config.backend_kind != "remote",
        "artifacts": [{"path": file, "sha256": digest} for file, digest in sorted(hashes.items())],
    }
    _write_replacing(paths.manifest, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def count_infra_errors(paths: RunPaths) -> int:
    total = 0
    for file in (paths.rewards, paths.guided_rewards, paths.eval_rewards):
        if file.exists():
            total += sum(1 for r in read_rewards(file) if isinstance(r, EvaluationFailure))
    return total
