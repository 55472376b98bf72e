"""Prompt rendering and completion parsing for the two-step scaffold.

Prompts are plain text but carry machine-readable markers (task id, step
kind, numbered listings) so desk-scale backends can parse them the way a
language model would read them. Completions answer with fenced blocks; a
completion that fails to parse yields an empty patch rather than an error.
"""
from __future__ import annotations

import functools
import re

from .tasks import SynthTask, Task

HINT_DELIMITER = "### Hint ###"

LOC_STEP = "localization"
REPAIR_STEP = "repair"
WHOLE_REPAIR_STEP = "whole-workspace repair"  # parse_prompt's step for a repair naming no statement

# Real-repo localization asks for this many suspect files by default; the
# synthetic scaffold always asks for a single statement index.
DEFAULT_LOCALIZATION_FILES = 5
DEFAULT_LOCALIZATION_LINES = 1


def render_localization_prompt(task: Task) -> str:
    """The task's localization prompt, rendered once per task object."""
    prompt = task.rendered_prompts.get(LOC_STEP)
    if prompt is None:
        prompt = task.rendered_prompts[LOC_STEP] = _localization_prompt(task)
    return prompt


def render_repair_prompt(task: Task, location) -> str:
    """Repair prompt given a committed localization, rendered once per (task object, location).

    location is a statement index for synthetic tasks or a list of file
    paths for real ones. None means localization was unparseable and the
    repair must consider the whole workspace.
    """
    key = tuple(location) if isinstance(location, list) else location
    prompt = task.rendered_prompts.get(key)
    if prompt is None:
        prompt = task.rendered_prompts[key] = _repair_prompt(task, location)
    return prompt


def _localization_prompt(task: Task) -> str:
    if isinstance(task, SynthTask):
        listing = "\n".join(f"  {i}: {line}" for i, line in enumerate(task.lines))
        return (
            f"Repository: {task.repo_name}\n"
            f"Task: {task.id}\n\n"
            f"### Issue ###\n{task.issue}\n\n"
            f"### Program ###\n{listing}\n\n"
            f"Identify the statement that must change to fix the issue.\n"
            f"Respond with exactly one fenced block naming {DEFAULT_LOCALIZATION_LINES} statement index:\n"
            f"```\nLINE: <index>\n```"
        )
    return (
        f"Repository: {task.repo_name}\n"
        f"Task: {task.id}\n\n"
        f"### Issue ###\n{task.issue}\n\n"
        f"Workspace: {task.workspace}\n\n"
        f"Identify the files that must change to fix the issue.\n"
        f"Respond with exactly one fenced block listing up to {DEFAULT_LOCALIZATION_FILES} file paths:\n"
        f"```\nFILES:\n<path>\n...\n```"
    )


def _repair_prompt(task: Task, location) -> str:
    header = f"Repository: {task.repo_name}\nTask: {task.id}\n\n### Issue ###\n{task.issue}\n\n"
    if isinstance(task, SynthTask):
        if location is None:
            listing = "\n".join(f"  {i}: {line}" for i, line in enumerate(task.lines))
            menus = []
            for i, row in enumerate(task.candidates):
                opts = "\n".join(f"    {k}: {stmt}" for k, stmt in enumerate(row))
                menus.append(f"  statement {i}:\n{opts}")
            return (
                header
                + f"### Program ###\n{listing}\n\n"
                + "No statement was localized; consider the whole program.\n"
                + "Candidate replacements per statement:\n"
                + "\n".join(menus)
                + "\n\nRespond with exactly one fenced block:\n```\nLINE: <index>\nCANDIDATE: <index>\n```"
            )
        row = task.candidates[location]
        opts = "\n".join(f"  {k}: {stmt}" for k, stmt in enumerate(row))
        return (
            header
            + f"You will repair statement {location}: {task.lines[location]}\n"
            + f"Candidate replacements:\n{opts}\n\n"
            + "Respond with exactly one fenced block:\n```\nCANDIDATE: <index>\n```"
        )
    files = "(whole workspace)" if location is None else "\n".join(location)
    return (
        header
        + f"Files under repair:\n{files}\n\n"
        + "Respond with one or more edit blocks:\n"
        + "```\nEDIT: <path>:<start>:<end>\n<replacement lines>\nEND EDIT\n```\n"
        + "Line ranges are zero-based half-open."
    )


# ---------------------------------------------------------------------------
# Prompt introspection (used by desk-scale backends)
# ---------------------------------------------------------------------------

_TASK_RE = re.compile(r"^Task: (\S+)$", re.MULTILINE)
_REPAIR_LINE_RE = re.compile(r"^You will repair statement (\d+):", re.MULTILINE)
# A hint's "line N" or "statement N", in any case: what a hint must name and what backends and the RM read.
HINT_LOCATION_RE = re.compile(r"\b(?:line|statement)\s+(\d+)\b", re.IGNORECASE)


def parse_prompt(prompt: str) -> tuple[str | None, str, int | None]:
    """(task id, step, line) of a scaffold prompt, read the way a desk-scale backend reads it.

    The step comes from the reply format the prompt asks for: LOC_STEP,
    REPAIR_STEP, or WHOLE_REPAIR_STEP for a repair that names no statement.
    line is the statement a localization prompt's hint block names, or the
    one a repair prompt repairs; None when there is none. In a hint block the
    environment-interaction section is the last line mentioning a statement,
    so the final match wins when several numbers appear.
    """
    m = _TASK_RE.search(prompt)
    task_id = m.group(1) if m else None
    if "You will repair statement" not in prompt and "CANDIDATE: <index>" not in prompt:
        if HINT_DELIMITER not in prompt:
            return task_id, LOC_STEP, None
        block = prompt.split(HINT_DELIMITER, 1)[1].split("\n###", 1)[0]
        matches = HINT_LOCATION_RE.findall(block)
        return task_id, LOC_STEP, int(matches[-1]) if matches else None
    if "consider the whole program" in prompt:
        return task_id, WHOLE_REPAIR_STEP, None
    m = _REPAIR_LINE_RE.search(prompt)
    return task_id, REPAIR_STEP, int(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# Completion formats
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:\w+)?\n(.*?)```", re.DOTALL)
_LINE_RE = re.compile(r"^LINE:\s*(-?\d+)\s*$", re.MULTILINE)
_CAND_RE = re.compile(r"^CANDIDATE:\s*(-?\d+)\s*$", re.MULTILINE)
_FILES_RE = re.compile(r"^FILES:\s*$", re.MULTILINE)
_EDIT_RE = re.compile(r"^EDIT:\s*(\S+?):(\d+):(\d+)\n(.*?)^END EDIT\s*$", re.MULTILINE | re.DOTALL)


# Each completion text exists once per value; its indices are bounded by the task grid.
@functools.cache
def format_line_completion(line: int) -> str:
    return f"```\nLINE: {line}\n```"

@functools.cache
def format_candidate_completion(cand: int) -> str:
    return f"```\nCANDIDATE: {cand}\n```"

@functools.cache
def format_line_candidate_completion(line: int, cand: int) -> str:
    return f"```\nLINE: {line}\nCANDIDATE: {cand}\n```"


def _fenced_or_raw(completion: str) -> str:
    m = _FENCE_RE.search(completion)
    return m.group(1) if m else completion


# A tabular backend's completions are the cached texts above, so each distinct one is parsed once;
# the bound keeps remote completions from growing the caches. Both results are immutable.
@functools.lru_cache(maxsize=256)
def parse_line_completion(completion: str) -> int | None:
    m = _LINE_RE.search(_fenced_or_raw(completion))
    return int(m.group(1)) if m else None


@functools.lru_cache(maxsize=256)
def parse_candidate_completion(completion: str) -> int | None:
    m = _CAND_RE.search(_fenced_or_raw(completion))
    return int(m.group(1)) if m else None


def parse_files_completion(completion: str) -> list[str] | None:
    body = _fenced_or_raw(completion)
    if not _FILES_RE.search(body):
        return None
    lines = body.split("FILES:", 1)[1].strip().splitlines()
    paths = [ln.strip() for ln in lines if ln.strip()]
    return paths or None


def parse_edit_blocks(completion: str) -> list[tuple[str, str]] | None:
    """Edits as (location, replacement) with location 'path:start:end'."""
    edits = []
    for m in _EDIT_RE.finditer(completion):
        path, start, end, body = m.group(1), m.group(2), m.group(3), m.group(4)
        edits.append((f"{path}:{start}:{end}", body.rstrip("\n")))
    return edits or None
