"""Prompt rendering and completion parsing for the two-step scaffold, and the reattempt block.

Prompts are plain text but carry machine-readable markers (task id, step
kind, numbered listings) so desk-scale backends can parse them the way a
language model would read them. Completions answer with fenced blocks; a
completion that fails to parse yields an empty patch rather than an error.

This module owns the policy's prompt formats: each marker parse_prompt reads,
and the reattempt block, whose hint lies between fixed opening and closing text,
is declared once, and its renderer and its parser both use that declaration.
"""
from __future__ import annotations

import functools
import re

from .errors import GuidanceError
from .tasks import SynthTask, Task

# The reattempt block: a hint between fixed opening and closing text. An unguided prompt holds no HINT_DELIMITER, and
# a hint may hold "###" lines, so a hint runs from the first HINT_DELIMITER to the last _HINT_END.
HINT_DELIMITER = "### Hint ###"
_HINT_END = "\n###"
_REATTEMPT_OPEN = ("\n\nIn addition, please carefully consider the following hint, which includes a suggested path(s) "
                   f"to file(s) that may be problematic.\n{HINT_DELIMITER}\n")
_REATTEMPT_CLOSE = (f"{_HINT_END}\nPlease solve the problem starting from the very beginning. Use the hint as "
                    "guidance, but do not assume any steps have already been completed. When using the hint, you "
                    "still need to explain your thought process as if you did not have access to the hint.\n")

# The step markers parse_prompt keys on.
REPAIR_MARKER = "You will repair statement"
CANDIDATE_REPLY = "CANDIDATE: <index>"
WHOLE_PROGRAM_MARKER = "consider the whole program"

LOC_STEP = "localization"
REPAIR_STEP = "repair"
WHOLE_REPAIR_STEP = "whole-workspace repair"  # parse_prompt's step for a repair naming no statement


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
        return (
            _header(task) + _program(task)
            + "Identify the statement that must change to fix the issue.\n"
            + "Respond with exactly one fenced block naming 1 statement index:\n"
            + "```\nLINE: <index>\n```"
        )
    return (
        _header(task)
        + f"Workspace: {task.workspace}\n\n"
        + "Identify the files that must change to fix the issue.\n"
        + "Respond with exactly one fenced block listing up to 5 file paths:\n"
        + "```\nFILES:\n<path>\n...\n```"
    )


def _repair_prompt(task: Task, location) -> str:
    if not isinstance(task, SynthTask):
        files = "(whole workspace)" if location is None else "\n".join(location)
        return (
            _header(task)
            + f"Files under repair:\n{files}\n\n"
            + "Respond with one or more edit blocks:\n"
            + "```\nEDIT: <path>:<start>:<end>\n<replacement lines>\nEND EDIT\n```\n"
            + "Line ranges are zero-based half-open."
        )
    if location is None:
        menus = "\n".join(f"  statement {i}:\n{_numbered(row, '    ')}" for i, row in enumerate(task.candidates))
        return (
            _header(task) + _program(task)
            + f"No statement was localized; {WHOLE_PROGRAM_MARKER}.\n"
            + f"Candidate replacements per statement:\n{menus}\n\n"
            + f"Respond with exactly one fenced block:\n```\nLINE: <index>\n{CANDIDATE_REPLY}\n```"
        )
    return (
        _header(task)
        + f"{REPAIR_MARKER} {location}: {task.lines[location]}\n"
        + f"Candidate replacements:\n{_numbered(task.candidates[location], '  ')}\n\n"
        + f"Respond with exactly one fenced block:\n```\n{CANDIDATE_REPLY}\n```"
    )


def _header(task: Task) -> str:
    """The text every scaffold prompt opens with; parse_prompt reads the task id from its Task line."""
    return f"Repository: {task.repo_name}\nTask: {task.id}\n\n### Issue ###\n{task.issue}\n\n"


def _program(task: SynthTask) -> str:
    return f"### Program ###\n{_numbered(task.lines, '  ')}\n\n"


def _numbered(items, indent: str) -> str:
    return "\n".join(f"{indent}{i}: {item}" for i, item in enumerate(items))


def render_reattempt_prompt(base_prompt: str, hint: str) -> str:
    """base_prompt with the reattempt block holding hint appended; GuidanceError if it has one already, since
    stacked hints would corrupt pair assembly."""
    if HINT_DELIMITER in base_prompt:
        raise GuidanceError("prompt already contains a hint block")
    return base_prompt + _REATTEMPT_OPEN + hint + _REATTEMPT_CLOSE


def strip_hint_block(prompt: str) -> str:
    """The unguided prompt a reattempt prompt was rendered from; a prompt without the block unchanged."""
    return prompt.partition(_REATTEMPT_OPEN)[0]


# ---------------------------------------------------------------------------
# Prompt introspection (used by desk-scale backends)
# ---------------------------------------------------------------------------

_TASK_RE = re.compile(r"^Task: (\S+)$", re.MULTILINE)
_REPAIR_LINE_RE = re.compile(rf"^{REPAIR_MARKER} (\d+):", re.MULTILINE)
# A hint's "line N" or "statement N", in any case: what a hint must name and what backends and the RM read.
HINT_LOCATION_RE = re.compile(r"\b(?:line|statement)\s+(\d+)\b", re.IGNORECASE)


def parse_prompt(prompt: str) -> tuple[str | None, str, int | None]:
    """(task id, step, line) of a scaffold prompt, read the way a desk-scale backend reads it.

    Both the task id and the step, read from the reply format the prompt asks for (LOC_STEP, REPAIR_STEP, or
    WHOLE_REPAIR_STEP for a repair that names no statement), come from the text before any hint block. line is
    the statement a localization prompt's hint block names, or the one a repair prompt repairs; None when there
    is none. In a hint block the environment-interaction section is the last line mentioning a statement, so the
    final match wins when several numbers appear.
    """
    base, _, block = prompt.partition(HINT_DELIMITER)
    m = _TASK_RE.search(base)
    task_id = m.group(1) if m else None
    if REPAIR_MARKER not in base and CANDIDATE_REPLY not in base:
        hint, closed, unclosed = block.rpartition(_HINT_END)
        matches = HINT_LOCATION_RE.findall(hint if closed else unclosed)
        return task_id, LOC_STEP, int(matches[-1]) if matches else None
    if WHOLE_PROGRAM_MARKER in base:
        return task_id, WHOLE_REPAIR_STEP, None
    m = _REPAIR_LINE_RE.search(base)
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
