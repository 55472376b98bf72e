"""Two-step rollout scaffold: localize, then repair.

Each attempt at a task is exactly one localization step and one repair step.
Malformed completions are data, not errors: they produce an empty patch that
the evaluator scores as reward 0. Backend failures are retried, and an
attempt (a rollout slot or a guided reattempt) whose backend never recovers
still yields a placeholder trajectory (Trajectory.is_placeholder) so
rollout counts stay exact.

Guidance may only be injected during training. Evaluation-mode rollouts with
guidance raise GuidanceLeakError, which is the engine-level enforcement of
"hints never touch held-out measurements".
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import prompts
from .backends import PolicyBackend, SamplingParams, call_with_retry
from .errors import BackendError, GuidanceLeakError, RolloutError, TaskFormatError
from .guidance import Guidance, render_reattempt_prompt
from .jsonl import derive_seed, read_records, write_records
from .tasks import SynthTask, Task

TEMPERATURE_GREEDY = 0.0
TEMPERATURE_SAMPLING = 0.6

TRAJECTORIES_SCHEMA = "trajectories"


@dataclass(frozen=True)
class Patch:
    """Structured edit set plus a human-readable rendering.

    For synthetic tasks the rendering is the "(line, candidate)" pair and
    synth carries the indices; for real tasks the rendering is diff-style
    text and synth is None.
    """

    edits: tuple[tuple[str, str], ...]
    rendering: str
    synth: tuple[int, int] | None = None


@dataclass(frozen=True)
class Step:
    role: str  # "localization" or "repair"
    prompt: str
    completion: str


@dataclass(frozen=True)
class Trajectory:
    task_id: str
    steps: tuple[Step, ...]
    patch: Patch | None
    guidance_id: str | None
    sampling: SamplingParams
    backend_id: str
    traj_id: str

    def response_text(self) -> str:
        return "\n".join(step.completion for step in self.steps)

    @property
    def actions(self) -> tuple[int, int] | None:
        return self.patch.synth if self.patch is not None else None

    @property
    def is_guided(self) -> bool:
        return self.guidance_id is not None

    @property
    def is_placeholder(self) -> bool:
        """A slot whose backend never answered: its repair step has no prompt."""
        return not self.steps[-1].prompt


# ---------------------------------------------------------------------------
# Patch extraction
# ---------------------------------------------------------------------------


def synth_patch(task: SynthTask, line: int, cand: int) -> Patch:
    """The patch that puts candidate cand of the task's menu at statement line."""
    return Patch(
        edits=((f"line:{line}", task.candidates[line][cand]),),
        rendering=f"({line}, {cand})",
        synth=(line, cand),
    )


def _synth_patch(task: SynthTask, line: int | None, completion: str) -> Patch | None:
    if line is None:
        # Whole-workspace repair: the completion must commit to both indices.
        line = prompts.parse_line_completion(completion)
    cand = prompts.parse_candidate_completion(completion)
    if line is None or cand is None:
        return None
    if not 0 <= line < task.n_lines or not 0 <= cand < task.n_candidates:
        return None
    return synth_patch(task, line, cand)


def _real_patch(completion: str) -> Patch | None:
    edits = prompts.parse_edit_blocks(completion)
    if not edits:
        return None
    chunks = []
    for location, replacement in edits:
        path, start, end = location.rsplit(":", 2)
        chunks.append(f"--- {path} [{start}:{end})")
        chunks.extend("+" + ln for ln in replacement.splitlines())
    return Patch(edits=tuple(edits), rendering="\n".join(chunks), synth=None)


def extract_patch(task: Task, location, repair_completion: str) -> Patch | None:
    """Parse a repair completion into a patch; None when nothing well-formed."""
    if isinstance(task, SynthTask):
        return _synth_patch(task, location, repair_completion)
    return _real_patch(repair_completion)


# ---------------------------------------------------------------------------
# Scaffold
# ---------------------------------------------------------------------------


def make_traj_id(task_id: str, backend_id: str, seed: int, guided: bool) -> str:
    suffix = "g" if guided else "u"
    return f"{task_id}/{backend_id}/{seed}/{suffix}"


def run_scaffold(
    task: Task,
    backend: PolicyBackend,
    params: SamplingParams,
    guidance: Guidance | None = None,
    *,
    eval_mode: bool = False,
) -> Trajectory:
    """One attempt at a task: localization then repair.

    The two steps get independent sub-seeds derived from params.seed so the
    line draw and the candidate draw are uncorrelated. With guidance, the
    hint block is appended to the localization prompt via the reattempt
    template; nothing else about the scaffold changes.
    """
    if eval_mode and guidance is not None:
        raise GuidanceLeakError(
            f"guidance {guidance.guidance_id} injected into an evaluation-mode rollout for {task.id}"
        )
    if guidance is not None and guidance.task_id != task.id:
        raise TaskFormatError(
            f"guidance {guidance.guidance_id} targets {guidance.task_id}, not {task.id}"
        )

    base_prompt = prompts.render_localization_prompt(task)
    loc_prompt = render_reattempt_prompt(base_prompt, guidance) if guidance is not None else base_prompt
    loc_params = SamplingParams(params.temperature, derive_seed(params.seed, "loc"), params.max_tokens)
    loc_completion = call_with_retry(backend.generate, loc_prompt, loc_params)

    if isinstance(task, SynthTask):
        line = prompts.parse_line_completion(loc_completion)
        if line is not None and not 0 <= line < task.n_lines:
            line = None  # nonsense index falls back to whole-workspace repair
        location = line
    else:
        location = prompts.parse_files_completion(loc_completion)

    repair_prompt = prompts.render_repair_prompt(task, location)
    repair_params = SamplingParams(params.temperature, derive_seed(params.seed, "repair"), params.max_tokens)
    repair_completion = call_with_retry(backend.generate, repair_prompt, repair_params)

    patch = extract_patch(task, location, repair_completion)
    guided = guidance is not None
    return Trajectory(
        task_id=task.id,
        steps=(
            Step(prompts.LOC_STEP, loc_prompt, loc_completion),
            Step(prompts.REPAIR_STEP, repair_prompt, repair_completion),
        ),
        patch=patch,
        guidance_id=guidance.guidance_id if guided else None,
        sampling=params,
        backend_id=backend.backend_id,
        traj_id=make_traj_id(task.id, backend.backend_id, params.seed, guided),
    )


def attempt(
    task: Task,
    backend: PolicyBackend,
    params: SamplingParams,
    guidance: Guidance | None = None,
    *,
    eval_mode: bool = False,
) -> Trajectory:
    """run_scaffold's trajectory or, when the backend never answers, a placeholder: the
    slot's ids (guided ones too) and localization prompt, no repair prompt, no completions."""
    try:
        return run_scaffold(task, backend, params, guidance, eval_mode=eval_mode)
    except BackendError:
        prompt = prompts.render_localization_prompt(task)
        if guidance is not None:
            prompt = render_reattempt_prompt(prompt, guidance)
        steps = (Step(prompts.LOC_STEP, prompt, ""), Step(prompts.REPAIR_STEP, "", ""))
        guidance_id = None if guidance is None else guidance.guidance_id
        traj_id = make_traj_id(task.id, backend.backend_id, params.seed, guidance is not None)
        return Trajectory(task.id, steps, None, guidance_id, params, backend.backend_id, traj_id)


def rollout_params(base_seed: int, task_id: str, slot: int, max_tokens: int = 256) -> SamplingParams:
    """Slot 0 is the greedy decode; every later slot samples at 0.6."""
    temperature = TEMPERATURE_GREEDY if slot == 0 else TEMPERATURE_SAMPLING
    return SamplingParams(
        temperature=temperature,
        seed=derive_seed(base_seed, task_id, slot),
        max_tokens=max_tokens,
    )


def sample_rollouts(
    task: Task,
    backend: PolicyBackend,
    n: int,
    base_seed: int,
    *,
    max_tokens: int = 256,
    eval_mode: bool = False,
) -> list[Trajectory]:
    """Exactly n unguided attempts at a task.

    Backend failures never shrink the batch: a dead slot becomes a
    placeholder, which scoring counts as an infrastructure failure and
    pass@k leaves out. Only a batch where every slot failed raises.
    """
    if n < 1:
        raise RolloutError(f"rollout count must be >= 1, got {n}")
    out = [
        attempt(task, backend, rollout_params(base_seed, task.id, slot, max_tokens), eval_mode=eval_mode)
        for slot in range(n)
    ]
    if all(traj.is_placeholder for traj in out):
        raise RolloutError(f"all {n} rollout slots failed at the backend for task {task.id}")
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def trajectory_to_record(traj: Trajectory) -> dict:
    return {
        "traj_id": traj.traj_id,
        "task_id": traj.task_id,
        "steps": [{"role": s.role, "prompt": s.prompt, "completion": s.completion} for s in traj.steps],
        "patch": None
        if traj.patch is None
        else {
            "edits": [list(e) for e in traj.patch.edits],
            "rendering": traj.patch.rendering,
            "synth": list(traj.patch.synth) if traj.patch.synth else None,
        },
        "guidance_id": traj.guidance_id,
        "sampling": {
            "temperature": traj.sampling.temperature,
            "seed": traj.sampling.seed,
            "max_tokens": traj.sampling.max_tokens,
        },
        "backend_id": traj.backend_id,
    }


def trajectory_from_record(rec: dict) -> Trajectory:
    patch = None
    if rec.get("patch") is not None:
        p = rec["patch"]
        patch = Patch(
            edits=tuple((loc, text) for loc, text in p["edits"]),
            rendering=p["rendering"],
            synth=tuple(p["synth"]) if p.get("synth") else None,
        )
    return Trajectory(
        task_id=rec["task_id"],
        steps=tuple(Step(s["role"], s["prompt"], s["completion"]) for s in rec["steps"]),
        patch=patch,
        guidance_id=rec.get("guidance_id"),
        sampling=SamplingParams(
            temperature=rec["sampling"]["temperature"],
            seed=rec["sampling"]["seed"],
            max_tokens=rec["sampling"]["max_tokens"],
        ),
        backend_id=rec["backend_id"],
        traj_id=rec["traj_id"],
    )


def write_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> int:
    return write_records(path, TRAJECTORIES_SCHEMA, (trajectory_to_record(t) for t in trajectories))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    return [t for _, t in read_records(path, TRAJECTORIES_SCHEMA, trajectory_from_record)]
