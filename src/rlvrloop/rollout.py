"""Two-step rollout scaffold: localize, then repair.

Each attempt at a task is exactly one localization step and one repair step;
a phase's attempts run in lockstep, each step as one backend batch.
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

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import prompts
from .backends import PolicyBackend, SamplingParams
from .errors import BackendError, GuidanceLeakError, RolloutError, TaskFormatError
from .guidance import Guidance, render_reattempt_prompt
from .jsonl import DumpsMemo, derive_seed, dumps, dumps_scalar, read_records, write_lines
from .tasks import SynthTask, Task

TEMPERATURE_GREEDY = 0.0
TEMPERATURE_SAMPLING = 0.6

TRAJECTORIES_SCHEMA = "trajectories"


@dataclass(frozen=True, slots=True)
class Patch:
    """Structured edit set plus a human-readable rendering.

    For synthetic tasks the rendering is the "(line, candidate)" pair and
    synth carries the indices; for real tasks the rendering is diff-style
    text and synth is None.
    """

    edits: tuple[tuple[str, str], ...]
    rendering: str
    synth: tuple[int, int] | None = None


@dataclass(frozen=True, slots=True)
class Step:
    role: str  # "localization" or "repair"
    prompt: str
    completion: str


@dataclass(frozen=True, slots=True)
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


@functools.cache  # keyed by grid cell, so it holds at most the largest grid's cells
def _synth_labels(line: int, cand: int) -> tuple[str, str, tuple[int, int]]:
    """The edit location, rendering and synth tuple of grid cell (line, cand), one object each for every task."""
    return f"line:{line}", f"({line}, {cand})", (line, cand)


def synth_patch(task: SynthTask, line: int, cand: int) -> Patch:
    """The patch that puts candidate cand of the task's menu at statement line.

    Each (line, cand) gets one Patch per task object, kept in task.patches
    under the patch's own synth tuple, so every trajectory and reward-model
    pair naming it shares that object; its labels are shared by every task.
    """
    patch = task.patches.get((line, cand))
    if patch is None:
        replacement = task.candidates[line][cand]  # a cell outside the grid raises before it is cached
        location, rendering, synth = _synth_labels(line, cand)
        patch = task.patches[synth] = Patch(((location, replacement),), rendering, synth)
    return patch


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


def _step_params(params: SamplingParams, step: str) -> SamplingParams:
    return SamplingParams(params.temperature, derive_seed(params.seed, step), params.max_tokens)


def _location(task: Task, loc_completion: str):
    if not isinstance(task, SynthTask):
        return prompts.parse_files_completion(loc_completion)
    line = prompts.parse_line_completion(loc_completion)
    return line if line is not None and 0 <= line < task.n_lines else None  # None: whole-workspace repair


def scaffold_batch(
    attempts: list[tuple[Task, SamplingParams, Guidance | None]],
    backend: PolicyBackend,
    *,
    workers: int = 1,
    eval_mode: bool = False,
) -> tuple[list[Trajectory], dict[int, BackendError]]:
    """One trajectory per (task, params, guidance) attempt, and the BackendError of each dead one by index.

    The two steps get independent sub-seeds derived from params.seed so the
    line draw and the candidate draw are uncorrelated. With guidance, the
    hint block is appended to the localization prompt via the reattempt
    template, once per distinct (prompt, hint text) in the batch. A dead
    attempt's trajectory is a placeholder: the slot's ids (guided ones too)
    and localization prompt, no repair prompt, no completions. Attempts with
    equal prompts and completions share one steps tuple.
    """
    for task, _, guidance in attempts:
        if eval_mode and guidance is not None:
            raise GuidanceLeakError(
                f"guidance {guidance.guidance_id} injected into an evaluation-mode rollout for {task.id}"
            )
        if guidance is not None and guidance.task_id != task.id:
            raise TaskFormatError(f"guidance {guidance.guidance_id} targets {guidance.task_id}, not {task.id}")

    loc_prompts, guided = [], {}
    for task, _, guidance in attempts:
        prompt = prompts.render_localization_prompt(task)
        if guidance is not None:
            key = (prompt, guidance.hint_text())
            if key not in guided:
                guided[key] = render_reattempt_prompt(prompt, guidance)
            prompt = guided[key]
        loc_prompts.append(prompt)
    locs = backend.generate_batch(
        [(prompt, _step_params(params, "loc")) for prompt, (_, params, _) in zip(loc_prompts, attempts)], workers
    )
    live = [i for i, completion in enumerate(locs) if not isinstance(completion, BackendError)]
    locations = {i: _location(attempts[i][0], locs[i]) for i in live}
    repair_prompts = {i: prompts.render_repair_prompt(attempts[i][0], locations[i]) for i in live}
    repair_of = dict(zip(live, backend.generate_batch(
        [(repair_prompts[i], _step_params(attempts[i][1], "repair")) for i in live], workers
    )))

    out, dead, step_pairs = [], {}, {}
    for i, (task, params, guidance) in enumerate(attempts):
        repair = repair_of.get(i, locs[i])
        if isinstance(repair, BackendError):
            dead[i] = repair
            exchange, patch = (loc_prompts[i], "", "", ""), None
        else:
            exchange = (loc_prompts[i], locs[i], repair_prompts[i], repair)
            patch = extract_patch(task, locations[i], repair)
        steps = step_pairs.get(exchange)
        if steps is None:  # attempts with equal prompts and completions share one pair of steps
            steps = step_pairs[exchange] = (
                Step(prompts.LOC_STEP, *exchange[:2]), Step(prompts.REPAIR_STEP, *exchange[2:])
            )
        guidance_id = None if guidance is None else guidance.guidance_id
        traj_id = make_traj_id(task.id, backend.backend_id, params.seed, guidance is not None)
        out.append(Trajectory(task.id, steps, patch, guidance_id, params, backend.backend_id, traj_id))
    return out, dead


def rollout_params(base_seed: int, task_id: str, slot: int, max_tokens: int = 256) -> SamplingParams:
    """Slot 0 is the greedy decode; every later slot samples at 0.6."""
    temperature = TEMPERATURE_GREEDY if slot == 0 else TEMPERATURE_SAMPLING
    return SamplingParams(
        temperature=temperature,
        seed=derive_seed(base_seed, task_id, slot),
        max_tokens=max_tokens,
    )


def rollout_all_tasks(
    tasks: Iterable[Task],
    backend: PolicyBackend,
    n: int,
    base_seed: int,
    *,
    workers: int = 4,
    max_tokens: int = 256,
    eval_mode: bool = False,
) -> list[Trajectory]:
    """Exactly n unguided attempts at each task, flattened in task order, run as one batch.

    Backend failures never shrink the batch: a dead slot becomes a
    placeholder, which scoring counts as an infrastructure failure and
    pass@k leaves out. Only a task where every slot failed raises. Slot
    seeds are derived per (task, slot), so neither batching nor thread
    scheduling can change any sample.
    """
    if n < 1:
        raise RolloutError(f"rollout count must be >= 1, got {n}")
    attempts = [
        (task, rollout_params(base_seed, task.id, slot, max_tokens), None) for task in tasks for slot in range(n)
    ]
    out, _ = scaffold_batch(attempts, backend, workers=workers, eval_mode=eval_mode)
    for start in range(0, len(out), n):
        if all(traj.is_placeholder for traj in out[start:start + n]):
            raise RolloutError(f"all {n} rollout slots failed at the backend for task {out[start].task_id}")
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


def trajectory_from_record(rec: dict, shared: dict | None = None) -> Trajectory:
    """The record's trajectory; records decoded through one `shared` dict share equal strings, steps, steps tuples
    and patches."""
    shared = {} if shared is None else shared

    def one(value):
        return shared.setdefault(value, value)

    patch = None
    if rec.get("patch") is not None:
        p = rec["patch"]
        patch = one(Patch(
            edits=tuple((loc, text) for loc, text in p["edits"]),
            rendering=p["rendering"],
            synth=tuple(p["synth"]) if p.get("synth") else None,
        ))
    return Trajectory(
        task_id=one(rec["task_id"]),
        steps=one(tuple(one(Step(one(s["role"]), one(s["prompt"]), one(s["completion"]))) for s in rec["steps"])),
        patch=patch,
        guidance_id=one(rec.get("guidance_id")),
        sampling=SamplingParams(
            temperature=rec["sampling"]["temperature"],
            seed=rec["sampling"]["seed"],
            max_tokens=rec["sampling"]["max_tokens"],
        ),
        backend_id=one(rec["backend_id"]),
        traj_id=rec["traj_id"],
    )


def _trajectory_lines(trajectories: Iterable[Trajectory]) -> Iterator[str]:
    """dumps(trajectory_to_record(t)) for each trajectory, each string repeated within one task encoded once."""
    text, task_id = DumpsMemo(), None
    for t in trajectories:
        if t.task_id != task_id:  # one task's memo at a time bounds what it keeps alive
            text.clear()
            task_id = t.task_id
        p, sp = t.patch, t.sampling
        if p is None:
            patch = "null"
        else:
            synth = "[" + ",".join(map(dumps_scalar, p.synth)) + "]" if p.synth else "null"
            patch = f'{{"edits":{text[p.edits]},"rendering":{text[p.rendering]},"synth":{synth}}}'
        steps = ",".join([
            f'{{"completion":{text[s.completion]},"prompt":{text[s.prompt]},"role":{text[s.role]}}}' for s in t.steps
        ])
        yield (
            f'{{"backend_id":{text[t.backend_id]},"guidance_id":{text[t.guidance_id]},"patch":{patch},'
            f'"sampling":{{"max_tokens":{dumps_scalar(sp.max_tokens)},"seed":{dumps_scalar(sp.seed)},'
            f'"temperature":{dumps_scalar(sp.temperature)}}},"steps":[{steps}],'
            f'"task_id":{text[t.task_id]},"traj_id":{dumps(t.traj_id)}}}'
        )


def write_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> int:
    """Write each trajectory as the line dumps(trajectory_to_record(t)) would, byte for byte."""
    return write_lines(path, TRAJECTORIES_SCHEMA, _trajectory_lines(trajectories))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """The file's trajectories; equal strings, steps, steps tuples and patches among them are one object each."""
    shared: dict = {}
    return [t for _, t in read_records(path, TRAJECTORIES_SCHEMA, lambda rec: trajectory_from_record(rec, shared))]
