"""Test doubles: scripted policy and teacher backends, and a workspace hash."""
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from rlvrloop.backends import PolicyBackend, SamplingParams
from rlvrloop.errors import BackendError, GuidanceError
from rlvrloop.guidance import TeacherBackend


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
