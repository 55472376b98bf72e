"""Two-step rollout scaffold: localize, then repair.

Each attempt at a task is exactly one localization step and one repair step,
in that order, so a Step is just a prompt and its completion; the backend is
named in the trajectory's traj_id. A phase's attempts run in lockstep, each
step as one backend batch. Both steps' requests carry the one seed the
attempt's trajectory records; the tabular backend draws localization at its
SplitMix64 counter 1 and repair at 2 and 3. Malformed completions are data,
not errors: they produce an empty patch that the evaluator scores as reward
0. Backend failures are retried, and an attempt (a rollout slot or a guided
reattempt) whose backend never recovers still yields a placeholder
trajectory (Trajectory.is_placeholder) so rollout counts stay exact.

Guidance may only be injected during training. Evaluation-mode rollouts with
guidance raise GuidanceLeakError, which is the engine-level enforcement of
"hints never touch held-out measurements".
"""
from __future__ import annotations

import functools
import logging
from pathlib import Path
from typing import Iterable

from . import prompts
from .backends import PolicyBackend, SamplingParams
from .errors import BackendError, GuidanceLeakError, TaskFormatError
from .guidance import Guidance
from .jsonl import Once, Shared, derive_seed, read_declared, record, write_records
from .tasks import SynthTask, Task

log = logging.getLogger(__name__)

TEMPERATURE_GREEDY = 0.0
TEMPERATURE_SAMPLING = 0.6

TRAJECTORIES_SCHEMA = "trajectories"


@record
class Patch:
    """Structured edit set plus a human-readable rendering.

    For synthetic tasks the rendering is the "(line, candidate)" pair and
    synth carries the indices; for real tasks the rendering is diff-style
    text and synth is None.
    """

    edits: Shared[tuple[tuple[str, str], ...]]
    rendering: Shared[str]
    synth: tuple[int, int] | None = None


@record
class Step:
    prompt: Once[str]
    completion: Shared[str]


@record
class Trajectory:
    task_id: Shared[str]
    steps: Shared[tuple[Shared[Step], ...]]
    patch: Shared[Patch | None]
    guidance_id: Shared[str | None]
    sampling: SamplingParams
    traj_id: str  # task id, backend id, seed and whether guided (make_traj_id)

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
) -> list[Trajectory]:
    """One trajectory per (task, params, guidance) attempt; one warning names the dead ones' count and first error.

    One seed per attempt: both steps' requests carry the attempt's params,
    whose seed its trajectory records (the tabular backend draws the steps
    at different counters of it). With guidance, the hint block is appended
    to the localization prompt via the reattempt template, once per distinct
    (prompt, hint text) in the batch. A dead attempt's trajectory is a
    placeholder: the slot's ids (guided ones too) and localization prompt,
    no repair prompt, no completions. Attempts with equal prompts and
    completions share one steps tuple.
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
                guided[key] = prompts.render_reattempt_prompt(*key)
            prompt = guided[key]
        loc_prompts.append(prompt)
    locs = backend.generate_batch([(prompt, params) for prompt, (_, params, _) in zip(loc_prompts, attempts)], workers)
    live = [i for i, completion in enumerate(locs) if not isinstance(completion, BackendError)]
    locations = {i: _location(attempts[i][0], locs[i]) for i in live}
    repair_prompts = {i: prompts.render_repair_prompt(attempts[i][0], locations[i]) for i in live}
    repair_of = dict(zip(live, backend.generate_batch([(repair_prompts[i], attempts[i][1]) for i in live], workers)))

    out, dead, step_pairs = [], [], {}
    for i, (task, params, guidance) in enumerate(attempts):
        repair = repair_of.get(i, locs[i])
        if isinstance(repair, BackendError):
            dead.append(repair)
            exchange, patch = (loc_prompts[i], "", "", ""), None
        else:
            exchange = (loc_prompts[i], locs[i], repair_prompts[i], repair)
            patch = extract_patch(task, locations[i], repair)
        steps = step_pairs.get(exchange)
        if steps is None:  # attempts with equal prompts and completions share one pair of steps
            steps = step_pairs[exchange] = (Step(*exchange[:2]), Step(*exchange[2:]))
        guidance_id = None if guidance is None else guidance.guidance_id
        traj_id = make_traj_id(task.id, backend.backend_id, params.seed, guidance is not None)
        out.append(Trajectory(task.id, steps, patch, guidance_id, params, traj_id))
    if dead:
        log.warning("%d of %d attempts died at the backend; the first: %s", len(dead), len(attempts), dead[0])
    return out


def rollout_params(base_seed: int, task_id: str, slot: int, max_tokens: int = 256) -> SamplingParams:
    """Slot 0 is the greedy decode; every later slot samples at 0.6."""
    temperature = TEMPERATURE_GREEDY if slot == 0 else TEMPERATURE_SAMPLING
    return SamplingParams(temperature, derive_seed(base_seed, task_id, slot), max_tokens)


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

    Backend failures never shrink the batch or stop it: a dead slot becomes
    a placeholder, which scoring counts as an infrastructure failure and
    pass@k leaves out, even when every slot of a task died. Slot seeds are
    derived per (task, slot), so neither batching nor thread scheduling can
    change any sample. ValueError if n < 1.
    """
    if n < 1:
        raise ValueError(f"rollout count must be >= 1, got {n}")
    attempts = [
        (task, rollout_params(base_seed, task.id, slot, max_tokens), None) for task in tasks for slot in range(n)
    ]
    return scaffold_batch(attempts, backend, workers=workers, eval_mode=eval_mode)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> int:
    return write_records(path, TRAJECTORIES_SCHEMA, trajectories)


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """The file's trajectories; equal strings, steps, steps tuples and patches among them are one object each."""
    return read_declared(path, TRAJECTORIES_SCHEMA, Trajectory)
