"""Verifiable reward: run the task's tests against a patched workspace.

Reward is binary and earned only by passing every regression and focused
test. An empty patch short-circuits to 0 without touching a sandbox. Model
failures (bad patch, failing tests, timeouts) become reward-0 records;
infrastructure failures (workspace missing, setup commands broken, a
rollout slot the backend never answered) become EvaluationFailure entries
so they are never confused with a genuine negative label.
"""
from __future__ import annotations

import shutil
import subprocess
import tempfile
import time
from dataclasses import field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .backends import call_batch
from .errors import BackendError, SandboxProvisionError
from .jsonl import Shared, read_declared, record, write_records
from .rollout import Trajectory
from .tasks import ProgramError, RealTask, SynthTask, Task, apply_candidate, run_program

REWARDS_SCHEMA = "rewards"
STACKTRACE_TAIL_CHARS = 4000

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_ERROR = "error"

SYNTH_REGRESSION_TEST = "program_parses"
SYNTH_FOCUSED_TEST = "output_matches"


def check_reward(value) -> int:
    """value if it is a reward as one is written, the int 0 or 1 (not a bool, 1.7 or "1"); else ValueError."""
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"reward must be 0 or 1, got {value!r}")
    return value


@record
class RewardRecord:
    task_id: Shared[str]
    trajectory_ref: str
    reward: int  # 0 or 1
    per_test: Mapping[str, str]  # read-only; the records of one scored outcome share it
    empty_patch: bool
    stacktrace: Shared[str | None]
    # Scoring time, kept in memory for profiling only: never written to a
    # rewards file, and two records that differ only here compare equal.
    wall_time_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        check_reward(self.reward)
        if self.empty_patch and self.reward != 0:
            raise ValueError("empty patch cannot earn reward")


@record
class EvaluationFailure:
    """Infrastructure-level failure; carries no reward signal at all."""

    task_id: Shared[str]
    trajectory_ref: str
    infrastructure_error: Shared[str]


_NO_TESTS = MappingProxyType({})
# A synthetic outcome's test map is one of three: every record of every task shares these.
_SYNTH_PASS = MappingProxyType({SYNTH_REGRESSION_TEST: STATUS_PASS, SYNTH_FOCUSED_TEST: STATUS_PASS})
_SYNTH_FAIL = MappingProxyType({SYNTH_REGRESSION_TEST: STATUS_PASS, SYNTH_FOCUSED_TEST: STATUS_FAIL})
_SYNTH_ERROR = MappingProxyType({SYNTH_REGRESSION_TEST: STATUS_ERROR, SYNTH_FOCUSED_TEST: STATUS_ERROR})


def _tail(text: str, limit: int = STACKTRACE_TAIL_CHARS) -> str:
    return text if len(text) <= limit else text[-limit:]


# ---------------------------------------------------------------------------
# Synthetic (in-memory) isolation
# ---------------------------------------------------------------------------


def _evaluate_synthetic(task: SynthTask, trajectory: Trajectory) -> tuple[int, Mapping, str | None]:
    """Score a (line, candidate) patch; each distinct patch of a task runs once, and its outcome is shared."""
    patch = trajectory.patch
    if patch is None or patch.synth is None:
        return 0, _SYNTH_ERROR, "patch is not a (line, candidate) selection"
    line, cand = patch.synth
    if not (0 <= line < task.n_lines and 0 <= cand < task.n_candidates):
        return 0, _SYNTH_ERROR, f"patch indices ({line}, {cand}) outside the task grid"
    memo = task.patch_outcomes
    outcome = memo.get(patch.synth)
    if outcome is None:  # keyed by the patch's own synth tuple, which synth_patch shares across tasks
        outcome = memo.setdefault(patch.synth, _run_synthetic(task, line, cand))  # one object if threads race
    return outcome


def _run_synthetic(task: SynthTask, line: int, cand: int) -> tuple[int, Mapping, str | None]:
    replacement = task.candidates[line][cand]
    try:
        actual = run_program(apply_candidate(task.lines, line, replacement))
    except ProgramError as exc:
        return 0, _SYNTH_ERROR, _tail(str(exc))
    if actual == task.expected_output:
        return 1, _SYNTH_PASS, None
    stack = (
        f"{SYNTH_FOCUSED_TEST} failed: expected {task.expected_output} got {actual}\n"
        f"patched statement {line}: {replacement}"
    )
    return 0, _SYNTH_FAIL, _tail(stack)


# ---------------------------------------------------------------------------
# Subprocess isolation
# ---------------------------------------------------------------------------


def _apply_edits(root: Path, edits: Sequence[tuple[str, str]]) -> None:
    """Apply (path:start:end, replacement) edits; raises ValueError on bad ones.

    Ranges are zero-based half-open against the file as previous edits left
    it; edits touching the same file should come ordered bottom-up.
    """
    for location, replacement in edits:
        rel, start_s, end_s = location.rsplit(":", 2)
        start, end = int(start_s), int(end_s)
        if rel.startswith("/") or ".." in Path(rel).parts:
            raise ValueError(f"edit path escapes the workspace: {rel}")
        target = root / rel
        if not target.is_file():
            raise ValueError(f"edit targets a missing file: {rel}")
        lines = target.read_text(encoding="utf-8").splitlines()
        if not (0 <= start <= end <= len(lines)):
            raise ValueError(f"edit range {start}:{end} invalid for {rel} ({len(lines)} lines)")
        lines[start:end] = replacement.splitlines()
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_test_lines(output: str, suite: Sequence[str]) -> dict[str, str]:
    """Strict line protocol: each suite test reports 'PASS|FAIL|ERROR <id>'.

    Tests the command never reported count as errors; unknown test ids in
    the output are ignored.
    """
    reported: dict[str, str] = {}
    for line in output.splitlines():
        parts = line.strip().split()
        if len(parts) == 2 and parts[0] in ("PASS", "FAIL", "ERROR"):
            reported[parts[1]] = parts[0].lower()
    return {tid: reported.get(tid, STATUS_ERROR) for tid in suite}


def _evaluate_sandboxed(task: RealTask, trajectory: Trajectory) -> tuple[int, dict, str | None]:
    suite = task.tests.all_tests
    per_test_error = {tid: STATUS_ERROR for tid in suite}
    src = Path(task.workspace)
    if not src.is_dir():
        raise SandboxProvisionError(f"{task.id}: workspace {task.workspace!r} is not a directory")

    with tempfile.TemporaryDirectory(prefix="rlvr-sandbox-") as tmp:
        root = Path(tmp) / "workspace"
        try:
            shutil.copytree(src, root)
        except OSError as exc:
            raise SandboxProvisionError(f"{task.id}: workspace copy failed: {exc}") from exc

        try:
            _apply_edits(root, trajectory.patch.edits)
        except (ValueError, OSError) as exc:
            return 0, per_test_error, _tail(f"patch application failed: {exc}")

        for cmd in task.env_spec.setup_commands:
            try:
                proc = subprocess.run(
                    cmd, shell=True, cwd=root, capture_output=True, encoding="utf-8", errors="replace",
                    timeout=task.env_spec.timeout_s,
                )
            except subprocess.TimeoutExpired as exc:
                raise SandboxProvisionError(f"{task.id}: setup command {cmd!r} timed out") from exc
            if proc.returncode != 0:
                raise SandboxProvisionError(
                    f"{task.id}: setup command {cmd!r} exited {proc.returncode}: "
                    f"{_tail(proc.stdout + proc.stderr, 500)}"
                )

        try:
            proc = subprocess.run(
                task.env_spec.test_command, shell=True, cwd=root, capture_output=True, encoding="utf-8",
                errors="replace", timeout=task.env_spec.timeout_s,
            )
        except subprocess.TimeoutExpired as exc:
            partial = (exc.stdout or b"", exc.stderr or b"")
            text = "".join(p.decode("utf-8", "replace") if isinstance(p, bytes) else p for p in partial)
            return 0, per_test_error, _tail(f"test command timed out after {task.env_spec.timeout_s}s\n{text}")

        combined = proc.stdout + proc.stderr
        per_test = _parse_test_lines(proc.stdout, suite)
        reward = int(all(status == STATUS_PASS for status in per_test.values()))
        stack = None if reward == 1 else _tail(combined)
        return reward, per_test, stack


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def evaluate(task: Task, trajectory: Trajectory) -> RewardRecord:
    """Score one trajectory. Raises SandboxProvisionError on infra failures, BackendError on a placeholder."""
    if trajectory.task_id != task.id:
        raise ValueError(f"trajectory {trajectory.traj_id} does not belong to task {task.id}")
    if trajectory.is_placeholder:
        raise BackendError(f"{trajectory.traj_id}: the backend never answered this rollout slot")
    started = time.perf_counter()
    if trajectory.patch is None:
        reward, per_test, stack = 0, _NO_TESTS, None
    elif isinstance(task, SynthTask):
        reward, per_test, stack = _evaluate_synthetic(task, trajectory)
    else:
        reward, per_test, stack = _evaluate_sandboxed(task, trajectory)
        per_test = MappingProxyType(per_test)
    return RewardRecord(
        task_id=task.id,
        trajectory_ref=trajectory.traj_id,
        reward=reward,
        per_test=per_test,
        empty_patch=trajectory.patch is None,
        stacktrace=stack,
        wall_time_s=time.perf_counter() - started,
    )


def evaluate_batch(
    items: Sequence[tuple[Task, Trajectory]],
    *,
    workers: int = 4,
) -> list[RewardRecord | EvaluationFailure]:
    """Evaluate many attempts through backends.call_batch; output order matches input order.

    Each SandboxProvisionError or BackendError becomes that attempt's
    EvaluationFailure and never aborts the rest of the batch; any other
    exception propagates. A batch of synthetic tasks only, scored in memory,
    runs in the calling thread, where a pool only adds overhead; one holding
    a sandboxed task, which waits on subprocesses, runs on the helper's one
    pool of ``workers`` threads.
    """
    sandboxed = any(not isinstance(task, SynthTask) for task, _ in items)
    results = call_batch(evaluate, items, workers if sandboxed else 1, errors=(SandboxProvisionError, BackendError))
    return [
        EvaluationFailure(task.id, traj.traj_id, str(r)) if isinstance(r, Exception) else r
        for (task, traj), r in zip(items, results)
    ]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def record_type(rec: dict, kind: type = RewardRecord) -> type:
    """The type of a reward or guidance file's line: EvaluationFailure if it has infrastructure_error, else kind."""
    return EvaluationFailure if "infrastructure_error" in rec else kind


def write_rewards(records: Iterable[RewardRecord | EvaluationFailure], path: str | Path) -> int:
    return write_records(path, REWARDS_SCHEMA, records)


def read_rewards(path: str | Path) -> list[RewardRecord | EvaluationFailure]:
    """The file's records, each per_test read-only; equal task ids, stack traces and test maps are one object each."""
    return read_declared(path, REWARDS_SCHEMA, record_type)
