"""Task registry: real repair tasks and the synthetic program suite.

A synthetic task is a straight-line integer program with exactly one corrupted
statement and a per-line menu of candidate replacements. Exactly one candidate
over the whole menu repairs the program, which is verified by exhaustive patch
enumeration at generation time. That property is what makes the whole training
loop checkable on a laptop: expected success rates are analytic (1/(L*m)
unguided, 1/m when a hint names the buggy line).
"""
from __future__ import annotations

import functools
import logging
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import RlvrLoopError, TaskFormatError
from .jsonl import derive_seed, read_records, write_records

log = logging.getLogger(__name__)

ISOLATION_MODES = ("process_sandbox", "in_memory_synthetic")

# Per-attempt test budget of a synthetic task, seconds. A synthetic program is
# straight-line and always finishes, so the evaluator never consults its
# budget; it stays in the task record as metadata.
DEFAULT_TIMEOUT_SYNTH_S = 1.0

SYNTH_REGRESSION_TEST = "program_parses"
SYNTH_FOCUSED_TEST = "output_matches"

# The widest candidate row a synthetic task can have. Every row holds distinct
# statements, and statement 1's candidates are all `x1 = x0 op k`: x0 is the
# only earlier variable, so the second operand is a constant k in 1..9 and op
# one of + - *, which makes 3 * 9 = 27 distinct statements. Every program has
# a statement 1, so no row wider than 27 can be filled.
MAX_SYNTH_CANDIDATES = 27


class ProgramError(RlvrLoopError):
    """A synthetic program failed to parse or evaluate."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestSuite:
    __test__ = False  # not a pytest class despite the name

    regression: tuple[str, ...]
    focused: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.regression) & set(self.focused)
        if overlap:
            raise TaskFormatError(f"regression and focused tests overlap: {sorted(overlap)}")
        if not (self.regression or self.focused):
            raise TaskFormatError("test suite is empty")

    @property
    def all_tests(self) -> tuple[str, ...]:
        return self.regression + self.focused


@dataclass(frozen=True)
class EnvSpec:
    setup_commands: tuple[str, ...]
    test_command: str
    timeout_s: float
    isolation: str

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise TaskFormatError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.isolation not in ISOLATION_MODES:
            raise TaskFormatError(f"unknown isolation mode {self.isolation!r}")
        if self.isolation == "in_memory_synthetic" and (self.setup_commands or self.test_command):
            raise TaskFormatError("in_memory_synthetic tasks must not declare external commands")


@dataclass(frozen=True)
class Task:
    id: str
    issue: str
    workspace: str
    env_spec: EnvSpec
    tests: TestSuite
    repo_name: str

    def __post_init__(self):
        synthetic = isinstance(self, SynthTask)
        kind, mode = ("synthetic", "in_memory_synthetic") if synthetic else ("real", "process_sandbox")
        if self.env_spec.isolation != mode:
            raise TaskFormatError(
                f"{self.id}: a {kind} task must use {mode} isolation, not {self.env_spec.isolation!r}"
            )

    @functools.cached_property
    def rendered_prompts(self) -> dict:
        """This task's scaffold prompts, each rendered once by the prompts module."""
        return {}


@dataclass(frozen=True)
class SynthTask(Task):
    lines: tuple[str, ...] = ()
    buggy_line: int = 0
    candidates: tuple[tuple[str, ...], ...] = ()
    expected_output: int = 0
    # The evaluator's memo: the patch's synth tuple (line, candidate) -> (reward, per_test, stacktrace),
    # per_test being one of the evaluator's three shared read-only maps.
    # It lives on this object and dies with its suite; two suites that reuse a task id
    # never share it. A field, not a cached_property, so that threads scoring this task
    # at once always find the same dict.
    patch_outcomes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if len(self.lines) < 2:
            raise TaskFormatError(f"{self.id}: synthetic program needs at least 2 lines")
        if not 0 <= self.buggy_line < len(self.lines):
            raise TaskFormatError(f"{self.id}: buggy_line {self.buggy_line} out of range")
        if len(self.candidates) != len(self.lines):
            raise TaskFormatError(f"{self.id}: need one candidate row per line")
        widths = {len(row) for row in self.candidates}
        if len(widths) != 1 or min(widths) < 2:
            raise TaskFormatError(f"{self.id}: candidate rows must share a width of at least 2")
        for j, row in enumerate(self.candidates):
            if len(set(row)) != len(row):
                raise TaskFormatError(f"{self.id}: duplicate candidates at line {j}")

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates[0])

    @functools.cached_property
    def patches(self) -> dict:
        """rollout.synth_patch's memo: (line, candidate), the patch's own synth tuple -> the one Patch for it."""
        return {}


@dataclass
class TaskDataset:
    tasks: tuple[Task, ...] = ()
    by_id: dict[str, Task] = field(init=False)

    def __post_init__(self):
        self.tasks = tuple(self.tasks)
        self.by_id = {}
        for t in self.tasks:
            if t.id in self.by_id:
                raise TaskFormatError(f"duplicate task id {t.id!r}")
            self.by_id[t.id] = t

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


# ---------------------------------------------------------------------------
# Straight-line program interpreter
# ---------------------------------------------------------------------------

_STMT_RE = re.compile(
    r"^\s*([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*|-?\d+)(?:\s*([+*-])\s*([A-Za-z_]\w*|-?\d+))?\s*$"
)
_INT_RE = re.compile(r"-?\d+")


# A parsed statement: (target, a, op, b) with each operand an int literal or
# a variable name, so running it matches no regex.
Statement = tuple[str, int | str, str | None, int | str | None]


@functools.lru_cache(maxsize=4096)  # a suite repeats each statement across many programs
def parse_statement(text: str) -> Statement:
    """`target = a` or `target = a op b` as (target, a, op, b), with op and b None in the first form."""
    m = _STMT_RE.match(text)
    if not m:
        raise ProgramError(f"statement does not parse: {text!r}")
    target, a, op, b = m.groups()
    a, b = (int(tok) if tok is not None and _INT_RE.fullmatch(tok) else tok for tok in (a, b))
    return target, a, op, b


def _execute(stmt: Statement, env: dict[str, int], idx: int) -> str:
    """Run one parsed statement at position idx in env; returns its target."""
    target, a, op, b = stmt
    if isinstance(a, str):
        if a not in env:
            raise ProgramError(f"statement {idx}: undefined variable {a!r}")
        a = env[a]
    if op is not None:
        if isinstance(b, str):
            if b not in env:
                raise ProgramError(f"statement {idx}: undefined variable {b!r}")
            b = env[b]
        a = a + b if op == "+" else a - b if op == "-" else a * b
    env[target] = a
    return target


def run_program(lines: Sequence[str]) -> int:
    """Evaluate a straight-line program; the final assignment is the output."""
    env: dict[str, int] = {}
    target = None
    for idx, line in enumerate(lines):
        try:
            stmt = parse_statement(line)
        except ProgramError as exc:
            raise ProgramError(f"statement {idx}: {exc}") from exc
        target = _execute(stmt, env, idx)
    if target is None:
        raise ProgramError("empty program")
    return env[target]


def apply_candidate(lines: Sequence[str], line_index: int, replacement: str) -> list[str]:
    if not 0 <= line_index < len(lines):
        raise ProgramError(f"line index {line_index} out of range for {len(lines)}-line program")
    patched = list(lines)
    patched[line_index] = replacement
    return patched


def enumerate_passing_patches(task: SynthTask) -> list[tuple[int, int]]:
    """Brute-force every (line, candidate) patch; return the ones that pass.

    This is the ground-truth oracle the evaluator must agree with, and the
    check generation uses to guarantee the unique-fix invariant.
    """
    return _passing_patches(task.lines, task.candidates, task.expected_output)


def _passing_patches(
    lines: Sequence[str], candidates: Sequence[Sequence[str]], expected: int
) -> list[tuple[int, int]]:
    """The patches run_program(apply_candidate(lines, j, stmt)) == expected accepts.

    The unpatched prefix before line j is run once, and each candidate at j
    runs from a copy of its variables through the unpatched suffix.
    """
    program: list[Statement | None] = []
    for line in lines:
        try:
            program.append(parse_statement(line))
        except ProgramError:
            program.append(None)  # fails every patch that keeps this line
    passing = []
    prefix: dict[str, int] = {}  # variables after the unpatched lines before j
    for j, row in enumerate(candidates):
        suffix = program[j + 1:]
        if None not in suffix:
            for k, text in enumerate(row):
                env = dict(prefix)
                try:
                    target = _execute(parse_statement(text), env, j)
                    for i, stmt in enumerate(suffix, j + 1):
                        target = _execute(stmt, env, i)
                except ProgramError:
                    continue
                if env[target] == expected:
                    passing.append((j, k))
        # An unpatched line that fails fails every patch after it too.
        if program[j] is None:
            break
        try:
            _execute(program[j], prefix, j)
        except ProgramError:
            break
    return passing


# ---------------------------------------------------------------------------
# Synthetic suite generation
# ---------------------------------------------------------------------------


def _sample_statement(rng: random.Random, idx: int, chain: bool) -> str:
    """Random assignment for position idx referencing only earlier variables.

    With chain=True the first operand is always x{idx-1}, which keeps every
    statement on the dataflow path to the output and makes dead lines rare.
    """
    var = f"x{idx}"
    if idx == 0:
        return f"{var} = {rng.randint(1, 9)}"
    pool = [f"x{j}" for j in range(idx)]
    a = pool[-1] if chain else rng.choice(pool)
    op = rng.choice("+-*")
    if rng.random() < 0.5 and len(pool) > 1:
        b = rng.choice(pool)
    else:
        b = str(rng.randint(1, 9))
    if op == "-" and b == a:
        b = str(rng.randint(1, 9))
    return f"{var} = {a} {op} {b}"


def _line_zero_candidate(rng: random.Random) -> str:
    # Plain constants run out above nine distinct candidates, so mix in
    # two-constant expressions.
    if rng.random() < 0.6:
        return f"x0 = {rng.randint(1, 9)}"
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    op = rng.choice("+*")
    return f"x0 = {a} {op} {b}"


def _sample_candidate(rng: random.Random, idx: int) -> str:
    if idx == 0:
        return _line_zero_candidate(rng)
    return _sample_statement(rng, idx, chain=False)


def _mutate_statement(rng: random.Random, stmt: str) -> str:
    """A single small corruption: a different constant, operator or second operand."""
    target, a, op, b = parse_statement(stmt)
    for _ in range(32):
        if op is None:
            cand = f"{target} = {rng.randint(1, 9)}"
        else:
            if rng.randrange(3) == 0:
                new_op, new_b = rng.choice([o for o in "+-*" if o != op]), b
            else:
                new_op, new_b = op, rng.randint(1, 9)
            if new_op == "-" and new_b == a:
                continue
            cand = f"{target} = {a} {new_op} {new_b}"
        if cand != stmt:
            return cand
    raise ProgramError(f"could not corrupt statement {stmt!r}")


def _issue_text(task_id: str, expected: int, actual: int, buggy_line: int, correct_stmt: str) -> str:
    return (
        f"Running program {task_id} yields the wrong result.\n"
        f"Expected behavior: the final value is {expected}.\n"
        f"Actual behavior: the final value is {actual}.\n"
        f"The defect is in statement {buggy_line}, which should read `{correct_stmt}`."
    )


def synth_env_spec() -> EnvSpec:
    return EnvSpec(
        setup_commands=(),
        test_command="",
        timeout_s=DEFAULT_TIMEOUT_SYNTH_S,
        isolation="in_memory_synthetic",
    )


def _generate_one(task_id: str, n_lines: int, n_candidates: int, rng: random.Random) -> SynthTask:
    for _ in range(64):  # program-level retries; practically one pass suffices
        correct = [_sample_statement(rng, i, chain=True) for i in range(n_lines)]
        expected = run_program(correct)
        buggy_line = rng.randrange(n_lines)

        try:
            for _ in range(16):
                broken_stmt = _mutate_statement(rng, correct[buggy_line])
                broken = list(correct)
                broken[buggy_line] = broken_stmt
                if run_program(broken) != expected:
                    break
            else:
                continue
        except ProgramError:
            continue

        candidates: list[list[str]] = []
        for j in range(n_lines):
            row: list[str] = []
            if j == buggy_line:
                row.append(correct[j])
            attempts = 0
            while len(row) < n_candidates and attempts < 400:
                attempts += 1
                cand = _sample_candidate(rng, j)
                if cand not in row:
                    row.append(cand)
            if len(row) < n_candidates:
                break
            rng.shuffle(row)
            candidates.append(row)
        if len(candidates) != n_lines:
            continue

        # Enforce the unique-fix invariant by enumeration, resampling any
        # wrong candidate that happens to pass (dead line, coincidental value).
        # The true fix restores the correct program, so it always passes.
        truth = (buggy_line, candidates[buggy_line].index(correct[buggy_line]))
        for _ in range(200):
            extras = [p for p in _passing_patches(broken, candidates, expected) if p != truth]
            if not extras:
                break
            j, k = extras[0]
            draws = (_sample_candidate(rng, j) for _ in range(200))
            replacement = next((cand for cand in draws if cand not in candidates[j]), None)
            if replacement is None:
                break
            candidates[j][k] = replacement
        if extras:  # a resample failed, or 200 did not make the fix unique
            continue

        actual = run_program(broken)
        return SynthTask(
            id=task_id,
            issue=_issue_text(task_id, expected, actual, buggy_line, correct[buggy_line]),
            workspace="inline",
            env_spec=synth_env_spec(),
            tests=TestSuite(regression=(SYNTH_REGRESSION_TEST,), focused=(SYNTH_FOCUSED_TEST,)),
            repo_name="synthetic-programs",
            lines=tuple(broken),
            buggy_line=buggy_line,
            candidates=tuple(tuple(row) for row in candidates),
            expected_output=expected,
        )
    raise TaskFormatError(f"failed to generate a valid synthetic task for {task_id}")


def generate_synth_suite(count: int, n_lines: int, n_candidates: int, seed: int) -> TaskDataset:
    """Deterministically generate `count` verified synthetic tasks.

    Each task uses an independent child seed so candidate resampling in one
    task cannot shift the random stream of the next.
    """
    if count < 1:
        raise TaskFormatError(f"count must be >= 1, got {count}")
    if n_lines < 2:
        raise TaskFormatError(f"n_lines must be >= 2, got {n_lines}")
    if not 2 <= n_candidates <= MAX_SYNTH_CANDIDATES:
        raise TaskFormatError(f"n_candidates must be in [2, {MAX_SYNTH_CANDIDATES}], got {n_candidates}")
    out = []
    for i in range(count):
        task_id = f"synth-{i:04d}"
        rng = random.Random(derive_seed("synth", seed, n_lines, n_candidates, i))
        out.append(_generate_one(task_id, n_lines, n_candidates, rng))
    return TaskDataset(tasks=tuple(out))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

TASKS_SCHEMA = "tasks"


def task_to_record(task: Task) -> dict:
    rec = {
        "kind": "synth" if isinstance(task, SynthTask) else "real",
        "id": task.id,
        "issue": task.issue,
        "workspace": task.workspace,
        "repo_name": task.repo_name,
        "env_spec": {
            "setup_commands": list(task.env_spec.setup_commands),
            "test_command": task.env_spec.test_command,
            "timeout_s": task.env_spec.timeout_s,
            "isolation": task.env_spec.isolation,
        },
        "tests": {
            "regression": list(task.tests.regression),
            "focused": list(task.tests.focused),
        },
    }
    if isinstance(task, SynthTask):
        rec.update(
            lines=list(task.lines),
            buggy_line=task.buggy_line,
            candidates=[list(row) for row in task.candidates],
            expected_output=task.expected_output,
        )
    return rec


def task_from_record(rec: dict) -> Task:
    try:
        env = rec["env_spec"]
        spec = EnvSpec(
            setup_commands=tuple(env["setup_commands"]),
            test_command=env["test_command"],
            timeout_s=float(env["timeout_s"]),
            isolation=env["isolation"],
        )
        tests = TestSuite(
            regression=tuple(rec["tests"]["regression"]),
            focused=tuple(rec["tests"]["focused"]),
        )
        common = dict(
            id=rec["id"],
            issue=rec["issue"],
            workspace=rec["workspace"],
            env_spec=spec,
            tests=tests,
            repo_name=rec["repo_name"],
        )
        if rec.get("kind") == "synth" or "lines" in rec:
            return SynthTask(
                **common,
                lines=tuple(rec["lines"]),
                buggy_line=int(rec["buggy_line"]),
                candidates=tuple(tuple(row) for row in rec["candidates"]),
                expected_output=int(rec["expected_output"]),
            )
        return Task(**common)
    except (KeyError, TypeError, ValueError) as exc:
        raise TaskFormatError(f"bad task record: {exc!r}") from exc


def load_tasks(path: str | Path) -> TaskDataset:
    """Load a JSONL task file, one task per line after the header.

    Raises TaskFormatError naming the path and line on parse failures,
    duplicate ids, or unresolvable real-task workspaces. An empty file is
    usable but suspicious, so it loads with a warning.
    """
    seen: set[str] = set()

    def decode(rec: dict) -> Task:
        task = task_from_record(rec)
        if task.id in seen:
            raise ValueError(f"duplicate task id {task.id!r}")
        seen.add(task.id)
        if not isinstance(task, SynthTask) and not Path(task.workspace).is_dir():
            raise ValueError(f"workspace {task.workspace!r} is not a directory")
        return task

    tasks = [task for _, task in read_records(path, TASKS_SCHEMA, decode)]
    if not tasks:
        log.warning("task file %s contains no tasks", path)
    return TaskDataset(tasks=tuple(tasks))


def save_tasks(dataset: TaskDataset | Iterable[Task], path: str | Path) -> int:
    tasks = dataset.tasks if isinstance(dataset, TaskDataset) else tuple(dataset)
    return write_records(path, TASKS_SCHEMA, (task_to_record(t) for t in tasks))
