"""Test doubles: scripted policy and teacher backends, a tabular backend and a teacher with faults, the teacher wire
format, a workspace hash, and a fresh interpreter."""
import hashlib
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import rlvrloop
from rlvrloop.backends import PolicyBackend, SamplingParams, TabularPolicyBackend
from rlvrloop.errors import BackendError, GuidanceError
from rlvrloop.guidance import SECTION_FEEDBACK, SECTION_INTERACTION, SECTION_PLAN, Guidance, TeacherBackend
from rlvrloop.jsonl import derive_seed


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


class FaultyTabularBackend(TabularPolicyBackend):
    """The tabular backend, except that each request whose params.seed % modulus is in mask gets a BackendError.

    Every other request goes on to the tabular backend in one batch, so it is answered as a fault-free
    backend answers it. Both requests of an attempt carry the seed its trajectory records, so a fault
    kills the same attempts in every run of one config."""

    def __init__(self, policy, modulus: int, mask: frozenset[int]):
        super().__init__(policy)
        self.modulus, self.mask = modulus, mask

    def generate_batch(self, requests, workers=1):
        faulted = [params.seed % self.modulus in self.mask for _, params in requests]
        answers = iter(super().generate_batch([r for r, f in zip(requests, faulted) if not f], workers))
        return [BackendError(f"{self.backend_id}: injected fault") if f else next(answers) for f in faulted]


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


class FaultyTeacher(TeacherBackend):
    """A teacher whose interaction hint names the statement the request's issue names, as `line N`.

    A request whose derive_seed(request) % modulus is in mask gets a reply that does not parse, or a
    BackendError when dead, on every try. The mask is keyed by the request text, so a fault hits the same
    failed attempts in every run of one config."""

    teacher_id = "faulty"

    def __init__(self, modulus: int = 1, mask: frozenset[int] = frozenset(), dead: bool = False):
        self.modulus, self.mask, self.dead = modulus, mask, dead

    def faults(self, request: str) -> bool:
        return derive_seed(request) % self.modulus in self.mask

    def generate_guidance_text(self, request: str) -> str:
        if self.faults(request):
            if self.dead:
                raise BackendError(f"{self.teacher_id}: injected fault")
            return "no hint sections in this reply"
        line = re.search(r"\bstatement (\d+)", request).group(1)
        plan = "Replace the defective statement with the one the issue names."
        return guidance_to_text(Guidance("", "", "", plan, "The final value is wrong.", f"line {line}", ""))


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
