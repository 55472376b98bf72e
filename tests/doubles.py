"""Test doubles: scripted policy and teacher backends, the teacher wire format, a workspace hash, and a fresh
interpreter."""
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import rlvrloop
from rlvrloop.backends import PolicyBackend, SamplingParams
from rlvrloop.errors import BackendError, GuidanceError
from rlvrloop.guidance import SECTION_FEEDBACK, SECTION_INTERACTION, SECTION_PLAN, Guidance, TeacherBackend


def guidance_to_text(guidance: Guidance) -> str:
    """The teacher wire format: the reply text a teacher sends, which guidance.parse_guidance reads back.

    The loop never sends this text (the oracle teacher builds its Guidance
    directly); it is kept here as the format's one executable definition,
    which the tests use to build teacher replies.
    """
    return (
        f"{SECTION_PLAN}: {guidance.plan}\n"
        f"{SECTION_FEEDBACK}: {guidance.env_feedback}\n"
        f"{SECTION_INTERACTION}: {guidance.env_interaction}"
    )


@dataclass
class ScriptedBackend(PolicyBackend):
    """Replays canned completions in order.

    Entries may be strings or Exception instances (raised on consumption,
    to exercise retry paths).
    """

    script: list = field(default_factory=list)
    backend_id: str = "scripted"
    max_concurrency: int | None = 1

    def __post_init__(self):
        self._cursor = 0
        self.prompts = []  # every prompt a generate call received, in order

    def generate(self, prompt: str, params: SamplingParams) -> str:
        self.prompts.append(prompt)
        if self._cursor >= len(self.script):
            raise BackendError(f"{self.backend_id}: script exhausted after {self._cursor} calls")
        entry = self.script[self._cursor]
        self._cursor += 1
        if isinstance(entry, Exception):
            raise entry
        return str(entry)


@dataclass
class ScriptedTeacher(TeacherBackend):
    """Replays canned guidance texts and records every request it sees."""

    script: list
    teacher_id: str = "scripted"

    def __post_init__(self):
        self._cursor = 0
        self.requests_seen: list[str] = []

    def generate_guidance_text(self, request: str) -> str:
        self.requests_seen.append(request)
        if self._cursor >= len(self.script):
            raise GuidanceError(f"{self.teacher_id}: script exhausted")
        entry = self.script[self._cursor]
        self._cursor += 1
        if isinstance(entry, Exception):
            raise entry
        return str(entry)


def workspace_fingerprint(path: str | Path) -> str:
    """Content hash of a directory tree; used to prove evaluation is read-only."""
    root = Path(path)
    digest = hashlib.sha256()
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(file.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def run_python(script: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports this rlvrloop, for checks on what an import loads."""
    env = {**os.environ, "PYTHONPATH": str(Path(rlvrloop.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True, text=True, env=env)
