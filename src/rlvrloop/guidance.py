"""Teacher guidance: request rendering and reply parsing.

Guidance exists to rescue failed rollouts during training. A teacher (an
external model or the synthetic oracle) sees the task, the failed patch and
its stacktrace, and answers with three sections: a plan, feedback grounded
in the environment output, and an interaction hint naming the location to
edit. Guidance is strictly train-time data; the rollout engine refuses to
inject it in evaluation mode.

This module owns the teacher's two formats, the request and the reply, whose
section headings both take from SECTIONS. prompts owns the reattempt block.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .backends import call_batch, call_with_retry, post_completion
from .errors import BackendError, GuidanceError
from .jsonl import Shared, derive_seed
from .prompts import HINT_LOCATION_RE
from .tasks import SynthTask

if TYPE_CHECKING:
    from .evaluator import RewardRecord
    from .rollout import Trajectory

GUIDANCE_SCHEMA = "guidance"

SECTION_PLAN = "PLAN HINT"
SECTION_FEEDBACK = "ENVIRONMENT FEEDBACK HINT"
SECTION_INTERACTION = "ENVIRONMENT INTERACTION HINT"
SECTIONS = (SECTION_PLAN, SECTION_FEEDBACK, SECTION_INTERACTION)

NO_STACKTRACE_SENTINEL = "(no stacktrace available)"
EMPTY_PATCH_SENTINEL = "(empty patch)"

GUIDANCE_REQUEST = f"""\
You are an expert software engineer helping to generate helpful hints for debugging and fixing issues.
REPOSITORY: {{repo}}
PROBLEM STATEMENT:
{{problem_statement}}
PATCH:
{{patch}}
STACKTRACE:
{{stacktrace_hint}}
Based on the information above and the following hints, create a concise, helpful hint that would guide a \
developer to fix the issue efficiently:
The hint should be in the following format:
{SECTION_PLAN}: Explain what steps need to be taken based on the problem statement. Be specific and actionable, \
focusing on the core issue. Be concise yet comprehensive (200-300 words maximum)
{SECTION_FEEDBACK}: Explain what needs to be fixed based on the stacktrace. Be specific and actionable, \
focusing on the core issue. Be concise yet comprehensive (200-300 words maximum)
{SECTION_INTERACTION}: Clearly identify potential file(s) and location(s) need to be modified.
Format your hint with clear section headings ({", ".join(SECTIONS)}).
Each part should have 1-2 sentences, except for ENVIRONMENT INTERACTION which should just be a location-based \
hint (file paths, and usually line number, function name, etc.).
"""


@dataclass(frozen=True)
class Guidance:
    guidance_id: str
    task_id: Shared[str]
    source_trajectory_ref: str
    plan: str
    env_feedback: str
    env_interaction: str
    teacher_id: str

    def __post_init__(self):
        for name, value in zip(SECTIONS, (self.plan, self.env_feedback, self.env_interaction)):
            if not value.strip():
                raise GuidanceError(f"guidance section {name} is empty")
        if not _has_location_token(self.env_interaction):
            raise GuidanceError(
                f"environment interaction hint carries no location token: {self.env_interaction!r}"
            )

    def hint_text(self) -> str:
        return "\n".join((self.plan, self.env_feedback, self.env_interaction))


def _has_location_token(text: str) -> bool:
    # A "line N" or "statement N" reference, a file path, or a file name with extension.
    return bool(
        HINT_LOCATION_RE.search(text)
        or re.search(r"\S+/\S+", text)
        or re.search(r"\b\w+\.\w{1,4}\b", text)
    )


class TeacherBackend:
    """Contract for text-producing teachers, such as a remote LLM."""

    teacher_id: str = "teacher"

    def generate_guidance_text(self, request: str) -> str:
        raise NotImplementedError


class HttpTeacherBackend(TeacherBackend):
    """Remote teacher speaking the same wire shape as the policy endpoint.

    Request JSON:  {"prompt": str}
    Response JSON: {"completion": str}

    A failed request raises BackendError; request_guidance counts a reply
    that does not parse the same way, so either costs one guidance record.
    """

    teacher_id = "remote-teacher"

    def __init__(self, endpoint: str, timeout_s: float = 120.0):
        self.endpoint = endpoint
        self.timeout_s = timeout_s

    def generate_guidance_text(self, request: str) -> str:
        return post_completion(self.endpoint, {"prompt": request}, self.timeout_s, self.teacher_id)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_guidance_request(
    task,
    failed_trajectory: "Trajectory",
    reward_record: "RewardRecord",
) -> str:
    """The teacher request for one failed attempt.

    The patch slot shows the model's own failed patch. A missing stacktrace
    and an empty patch render as explicit sentinels rather than blank holes.
    """
    if reward_record.reward != 0:
        raise GuidanceError(
            f"guidance requested for a successful attempt ({reward_record.trajectory_ref})"
        )
    patch = failed_trajectory.patch
    patch_text = patch.rendering if patch is not None else EMPTY_PATCH_SENTINEL
    stack = reward_record.stacktrace or NO_STACKTRACE_SENTINEL
    return GUIDANCE_REQUEST.format(
        repo=task.repo_name,
        problem_statement=task.issue,
        patch=patch_text,
        stacktrace_hint=stack,
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# A section heading, with any markdown heading or emphasis markup around it (### PLAN HINT:, **PLAN HINT:**).
_HEADING_RE = re.compile(
    r"(?:^[ \t]*#+[ \t]*)?[*_]{0,2}(" + "|".join(name.replace(" ", r"\s+") for name in SECTIONS)
    + r")[*_]{0,2}(?:\s*:[*_]{0,2})?",
    re.IGNORECASE | re.MULTILINE,
)


def _guidance_id(task_id: str, source_trajectory_ref: str) -> str:
    return "g-" + format(derive_seed("guidance", task_id, source_trajectory_ref), "x")


def parse_guidance(
    teacher_text: str,
    *,
    task_id: str = "",
    source_trajectory_ref: str = "",
    teacher_id: str = "",
) -> Guidance:
    """Split teacher output into the three sections.

    Headings match case-insensitively and may appear in any order; section
    bodies run to the next heading. A missing heading raises GuidanceError
    naming the section; so does an empty body.
    """
    found: dict[str, str] = {}
    parts = _HEADING_RE.split(teacher_text)  # the text before the first heading, then each heading and its body
    for name, body in zip(parts[1::2], parts[2::2]):
        found.setdefault(re.sub(r"\s+", " ", name.upper()), body.strip())  # the first occurrence wins
    for section in SECTIONS:
        if section not in found:
            raise GuidanceError(f"teacher output is missing section {section!r}")
        if not found[section]:
            raise GuidanceError(f"teacher output has an empty {section!r} section")
    plan, env_feedback, env_interaction = (found[section] for section in SECTIONS)
    return Guidance(_guidance_id(task_id, source_trajectory_ref), task_id, source_trajectory_ref,
                    plan, env_feedback, env_interaction, teacher_id)


def request_guidance(failures: list[tuple], teacher: TeacherBackend, *, workers: int = 1) -> list:
    """The teacher's guidance for each (task, failed trajectory, reward record), in order, or its last BackendError.

    Every request goes out in one backends.call_batch batch on `workers`
    threads under call_with_retry, the policy's retry rule. A reply that
    does not parse into guidance is a BackendError naming the teacher, so
    it is asked again as a dead request is, and either one still failing
    after its retries costs only its own entry.
    """
    def ask(request: str, task_id: str, ref: str) -> Guidance:
        text = teacher.generate_guidance_text(request)
        try:
            return parse_guidance(text, task_id=task_id, source_trajectory_ref=ref, teacher_id=teacher.teacher_id)
        except GuidanceError as exc:
            raise BackendError(f"{teacher.teacher_id}: unusable reply: {exc}") from exc

    items = [(render_guidance_request(task, traj, rec), task.id, traj.traj_id) for task, traj, rec in failures]
    return call_batch(partial(call_with_retry, ask), items, workers)


# ---------------------------------------------------------------------------
# Synthetic oracle teacher
# ---------------------------------------------------------------------------


def oracle_teacher(
    task: SynthTask,
    failed_trajectory: "Trajectory",
    reward_record: "RewardRecord",
) -> Guidance:
    """Deterministic ground-truth teacher for synthetic tasks.

    Knows the corrupted statement, so its interaction hint always names it;
    the feedback section restates the observed failure so downstream text
    still reads like environment output.
    """
    if not isinstance(task, SynthTask):
        raise GuidanceError("oracle teacher only understands synthetic tasks")
    if reward_record.reward != 0:
        raise GuidanceError("oracle teacher called on a successful attempt")
    correct = task.candidates[task.buggy_line]
    mismatch = (reward_record.stacktrace or "").strip().splitlines()
    feedback = mismatch[0] if mismatch else (
        f"The focused test expected {task.expected_output} and the program returned something else."
    )
    plan = (
        f"Replace the defective statement so the program evaluates to {task.expected_output}; "
        f"one of the {len(correct)} candidate replacements for that statement is the intended fix."
    )
    # The Guidance parse_guidance would return for a teacher reply holding
    # these three sections, built without the text round trip.
    return Guidance(
        guidance_id=_guidance_id(task.id, failed_trajectory.traj_id),
        task_id=task.id,
        source_trajectory_ref=failed_trajectory.traj_id,
        plan=plan,
        env_feedback=feedback.strip(),
        env_interaction=f"line {task.buggy_line}",
        teacher_id="oracle",
    )
