"""Task registry: real repair tasks and the synthetic program suite.

A synthetic task is a straight-line integer program with exactly one corrupted
statement and a per-line menu of candidate replacements. Exactly one candidate
over the whole menu repairs the program, which is verified by exhaustive patch
enumeration at generation time. That property is what makes the whole training
loop checkable on a laptop: expected success rates are analytic (1/(L*m)
unguided, 1/m when a hint names the buggy line).

A Task is what both kinds share, an id and an issue. A RealTask adds its
workspace, environment, tests and repository name; a SynthTask, scored in
memory, adds only its program, candidate menu, buggy line and expected output.
"""
from __future__ import annotations

import functools
import logging
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

from .errors import RlvrLoopError, TaskFormatError
from .jsonl import derive_seed, read_declared, write_records

log = logging.getLogger(__name__)

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
    isolation: str  # a tasks file states it; the one mode that runs is process_sandbox

    def __post_init__(self):
        if not self.timeout_s > 0:  # NaN too: subprocess never times a command out on a NaN budget
            raise TaskFormatError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.isolation != "process_sandbox":
            raise TaskFormatError(f"unknown isolation mode {self.isolation!r}")


@dataclass(frozen=True)
class Task:
    kind: ClassVar[str]  # the tasks file's tag: load_tasks reads a "synth" line as a SynthTask

    id: str
    issue: str

    @functools.cached_property
    def rendered_prompts(self) -> dict:
        """This task's scaffold prompts, each rendered once by the prompts module."""
        return {}


@dataclass(frozen=True)
class RealTask(Task):
    """A repository task: its patched workspace copy runs env_spec's commands in a sandboxed process."""

    kind: ClassVar[str] = "real"

    workspace: str
    env_spec: EnvSpec
    tests: TestSuite
    repo_name: str


@dataclass(frozen=True)
class SynthTask(Task):
    kind: ClassVar[str] = "synth"
    repo_name = "synthetic-programs"  # the prompts' Repository: line; not a field, so no line writes it

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


def _generate_one(task_id: str, n_lines: int, n_candidates: int, rng: random.Random) -> SynthTask:
    """One verified task drawn from rng. Each loop is bounded, so generation ends on every seed: reaching a
    bound redraws the program, and after 64 programs raises TaskFormatError. No bound is reached in practice:
    - 32 tries per corruption: each differs from the statement with probability above 2/3 (all fail: < 3**-32).
    - 16 corruptions per program: one that keeps the output is retried; 16 such, or one that fails to run, redraw.
    - 400 draws per candidate row: a row needs at most 27 distinct statements, about 104 draws on average for
      all 27 (the coupon collector's 27 * H(27)).
    - 200 uniqueness rounds of up to 200 resample draws: a resample that finds no new statement, or a second
      passing patch left after 200 rounds, redraws the program.
    """
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


def load_tasks(path: str | Path) -> TaskDataset:
    """Load a JSONL task file, one task per line after the header.

    Raises TaskFormatError naming the path, and the line on parse failures or the task on duplicate ids or
    unresolvable real-task workspaces, which are checked once the read has checked every value. An empty file is
    usable but suspicious, so it loads with a warning.
    """
    tasks = read_declared(path, TASKS_SCHEMA,
                          lambda rec: SynthTask if rec.get("kind") == "synth" or "lines" in rec else RealTask)
    for task in tasks:
        if isinstance(task, RealTask) and not Path(task.workspace).is_dir():
            raise TaskFormatError(f"{path}: task {task.id!r}: workspace {task.workspace!r} is not a directory")
    if not tasks:
        log.warning("task file %s contains no tasks", path)
    try:
        return TaskDataset(tasks=tuple(tasks))
    except TaskFormatError as exc:  # a duplicate id
        raise TaskFormatError(f"{path}: {exc}") from None


def save_tasks(dataset: TaskDataset | Iterable[Task], path: str | Path) -> int:
    return write_records(path, TASKS_SCHEMA, dataset)
