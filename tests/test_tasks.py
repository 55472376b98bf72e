"""Synthetic task generation and the straight-line interpreter.

The interpreter is checked against exec() on the same source, which only
works because statements are deliberately a Python-compatible subset: two
independent evaluation routes must agree on every generated program.
"""
import json

import pytest

from rlvrloop.errors import TaskFormatError
from rlvrloop.tasks import (
    MAX_SYNTH_CANDIDATES,
    EnvSpec,
    ProgramError,
    SynthTask,
    Task,
    TaskDataset,
    TestSuite,
    apply_candidate,
    enumerate_passing_patches,
    generate_synth_suite,
    load_tasks,
    parse_statement,
    run_program,
    save_tasks,
    synth_env_spec,
    task_from_record,
    task_to_record,
)


def exec_output(lines):
    """Independent oracle: run the program through the Python interpreter."""
    ns: dict = {}
    for line in lines:
        exec(line, {}, ns)
    target = lines[-1].split("=")[0].strip()
    return ns[target]


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


def test_run_program_hand_computed():
    assert run_program(["x0 = 3", "x1 = x0 * 2"]) == 6
    assert run_program(["x0 = 7", "x1 = x0 - 9", "x2 = x1 + x0"]) == 5
    assert run_program(["a = 4", "b = a + a", "c = b * b"]) == 64
    assert run_program(["x0 = -3", "x1 = x0 * x0"]) == 9


def test_run_program_output_is_last_assignment_target():
    # x1 is assigned twice; the final line wins
    assert run_program(["x0 = 2", "x1 = 5", "x1 = x0 + 1"]) == 3


def test_run_program_undefined_variable():
    with pytest.raises(ProgramError, match="statement 1.*undefined variable 'y'"):
        run_program(["x0 = 1", "x1 = y + 2"])


def test_run_program_parse_error_names_statement():
    with pytest.raises(ProgramError, match="statement 1"):
        run_program(["x0 = 1", "x1 = x0 / 2"])


def test_run_program_empty():
    with pytest.raises(ProgramError, match="empty program"):
        run_program([])


@pytest.mark.parametrize(
    "text,parsed",
    [
        ("x0 = 5", ("x0", 5, None, None)),
        ("x1 = x0 + 3", ("x1", "x0", "+", 3)),
        ("  v  =  a  *  b  ", ("v", "a", "*", "b")),
        ("x2 = -4 - x1", ("x2", -4, "-", "x1")),
    ],
)
def test_parse_statement_forms(text, parsed):
    assert parse_statement(text) == parsed


@pytest.mark.parametrize("text", ["x0", "x0 == 2", "x0 = a / b", "= 3", "x0 = a + b + c"])
def test_parse_statement_rejects(text):
    with pytest.raises(ProgramError):
        parse_statement(text)


def test_apply_candidate_bounds():
    lines = ["x0 = 1", "x1 = x0 + 1"]
    assert apply_candidate(lines, 1, "x1 = x0 * 5")[1] == "x1 = x0 * 5"
    assert lines[1] == "x1 = x0 + 1"  # input untouched
    with pytest.raises(ProgramError):
        apply_candidate(lines, 2, "x2 = 0")


# ---------------------------------------------------------------------------
# Generation invariants
# ---------------------------------------------------------------------------


def test_unique_fix_invariant_medium_grid():
    """(line, candidate) enumeration finds exactly one passing patch per task."""
    suite = generate_synth_suite(12, 6, 8, seed=7)
    for task in suite:
        passing = enumerate_passing_patches(task)
        assert len(passing) == 1
        line, cand = passing[0]
        assert line == task.buggy_line
        fixed = apply_candidate(task.lines, line, task.candidates[line][cand])
        assert run_program(fixed) == task.expected_output
        # broken program still runs, just to the wrong value
        assert run_program(task.lines) != task.expected_output


def test_unique_fix_invariant_smallest_grid():
    suite = generate_synth_suite(6, 2, 2, seed=0)
    for task in suite:
        passing = enumerate_passing_patches(task)
        assert len(passing) == 1
        assert passing[0][0] == task.buggy_line


def test_interpreter_agrees_with_exec_on_generated_programs():
    suite = generate_synth_suite(8, 5, 6, seed=3)
    for task in suite:
        assert run_program(task.lines) == exec_output(list(task.lines))
        for j, row in enumerate(task.candidates):
            for stmt in row:
                patched = apply_candidate(task.lines, j, stmt)
                try:
                    ours = run_program(patched)
                except ProgramError:
                    continue
                assert ours == exec_output(patched)


def test_generated_shapes_and_ids():
    suite = generate_synth_suite(5, 4, 7, seed=2)
    assert [t.id for t in suite] == [f"synth-{i:04d}" for i in range(5)]
    for task in suite:
        assert task.n_lines == 4
        assert task.n_candidates == 7
        assert isinstance(task, SynthTask)
        assert task.env_spec.isolation == "in_memory_synthetic"
        assert set(task.tests.all_tests) == {"program_parses", "output_matches"}


def test_issue_text_names_defect_and_values():
    task = generate_synth_suite(1, 4, 4, seed=5).tasks[0]
    assert f"statement {task.buggy_line}" in task.issue
    assert f"the final value is {task.expected_output}" in task.issue
    assert f"the final value is {run_program(task.lines)}" in task.issue
    # the quoted correct statement actually is the fix
    quoted = task.issue.split("`")[1]
    assert quoted in task.candidates[task.buggy_line]


def test_generation_deterministic_and_prefix_stable():
    a = generate_synth_suite(6, 4, 4, seed=9)
    b = generate_synth_suite(6, 4, 4, seed=9)
    assert a == b
    # per-task child seeds: a shorter suite is a prefix of a longer one
    c = generate_synth_suite(3, 4, 4, seed=9)
    assert c.tasks == a.tasks[:3]
    assert generate_synth_suite(3, 4, 4, seed=10) != c


@pytest.mark.parametrize("count,lines,cands", [(0, 4, 4), (1, 1, 4), (1, 4, 1), (1, 4, MAX_SYNTH_CANDIDATES + 1)])
def test_generation_argument_validation(count, lines, cands):
    with pytest.raises(TaskFormatError):
        generate_synth_suite(count, lines, cands, seed=0)


def test_the_widest_row_holds_every_statement_1_candidate():
    """At MAX_SYNTH_CANDIDATES, statement 1's row is all 27 forms `x1 = x0 op k`, each once."""
    every = {f"x1 = x0 {op} {k}" for op in "+-*" for k in range(1, 10)}
    assert len(every) == MAX_SYNTH_CANDIDATES
    for task in generate_synth_suite(4, 3, MAX_SYNTH_CANDIDATES, seed=0):
        assert set(task.candidates[1]) == every
        fix = task.candidates[task.buggy_line].index(task.issue.split("`")[1])
        assert enumerate_passing_patches(task) == [(task.buggy_line, fix)]


# ---------------------------------------------------------------------------
# Dataclass validation
# ---------------------------------------------------------------------------


def test_test_suite_validation():
    with pytest.raises(TaskFormatError, match="overlap"):
        TestSuite(regression=("a",), focused=("a", "b"))
    with pytest.raises(TaskFormatError, match="empty"):
        TestSuite(regression=(), focused=())
    assert TestSuite(regression=("a",), focused=("b",)).all_tests == ("a", "b")


def test_env_spec_validation():
    with pytest.raises(TaskFormatError, match="timeout"):
        EnvSpec(setup_commands=(), test_command="", timeout_s=0, isolation="in_memory_synthetic")
    with pytest.raises(TaskFormatError, match="isolation"):
        EnvSpec(setup_commands=(), test_command="x", timeout_s=1, isolation="bare_metal")
    with pytest.raises(TaskFormatError, match="external commands"):
        EnvSpec(setup_commands=("pip install .",), test_command="", timeout_s=1, isolation="in_memory_synthetic")


def _synth_kwargs(**over):
    base = dict(
        id="t",
        issue="i",
        workspace="inline",
        env_spec=synth_env_spec(),
        tests=TestSuite(regression=("program_parses",), focused=("output_matches",)),
        repo_name="r",
        lines=("x0 = 1", "x1 = x0 + 1"),
        buggy_line=1,
        candidates=(("x0 = 1", "x0 = 2"), ("x1 = x0 + 1", "x1 = x0 + 2")),
        expected_output=3,
    )
    base.update(over)
    return base


def test_synth_task_validation():
    with pytest.raises(TaskFormatError, match="at least 2 lines"):
        SynthTask(**_synth_kwargs(lines=("x0 = 1",), candidates=(("a", "b"),)))
    with pytest.raises(TaskFormatError, match="out of range"):
        SynthTask(**_synth_kwargs(buggy_line=5))
    with pytest.raises(TaskFormatError, match="candidate row per line"):
        SynthTask(**_synth_kwargs(candidates=(("a", "b"),)))
    with pytest.raises(TaskFormatError, match="duplicate candidates"):
        SynthTask(**_synth_kwargs(candidates=(("x0 = 1", "x0 = 1"), ("a", "b"))))
    with pytest.raises(TaskFormatError, match="width"):
        SynthTask(**_synth_kwargs(candidates=(("x0 = 1", "x0 = 2"), ("a", "b", "c"))))


def test_dataset_rejects_duplicate_ids(one_task):
    with pytest.raises(TaskFormatError, match="duplicate task id"):
        TaskDataset(tasks=(one_task, one_task))


def test_dataset_index_is_derived_not_passed(small_suite):
    """by_id is built from tasks; the constructor takes no by_id."""
    assert TaskDataset(small_suite.tasks).by_id == {t.id: t for t in small_suite.tasks}
    with pytest.raises(TypeError, match="by_id"):
        TaskDataset(tasks=small_suite.tasks, by_id={})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, small_suite):
    path = tmp_path / "tasks.jsonl"
    save_tasks(small_suite, path)
    assert load_tasks(path) == small_suite


def test_save_is_byte_deterministic(tmp_path, small_suite):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_tasks(small_suite, a)
    save_tasks(small_suite, b)
    assert a.read_bytes() == b.read_bytes()


def test_record_round_trip_real_task(tmp_path):
    task = Task(
        id="real-1",
        issue="the widget is broken",
        workspace=str(tmp_path),
        env_spec=EnvSpec(
            setup_commands=("pip install -e .",),
            test_command="pytest -q",
            timeout_s=300.0,
            isolation="process_sandbox",
        ),
        tests=TestSuite(regression=("t_a",), focused=("t_b",)),
        repo_name="widget",
    )
    back = task_from_record(task_to_record(task))
    assert back == task
    assert not isinstance(back, SynthTask)


def test_load_real_task_requires_workspace_dir(tmp_path):
    rec = task_to_record(
        Task(
            id="real-1",
            issue="x",
            workspace=str(tmp_path / "missing"),
            env_spec=EnvSpec((), "pytest", 10.0, "process_sandbox"),
            tests=TestSuite(regression=("t",), focused=()),
            repo_name="w",
        )
    )
    path = tmp_path / "tasks.jsonl"
    from rlvrloop.jsonl import write_records

    write_records(path, "tasks", [rec])
    with pytest.raises(TaskFormatError, match="not a directory"):
        load_tasks(path)


def test_load_rejects_container_isolation(tmp_path):
    """A task that asks for container isolation fails at load; it never runs on the host."""
    rec = task_to_record(Task(
        id="real-1", issue="x", workspace=str(tmp_path),
        env_spec=EnvSpec((), "pytest", 10.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()), repo_name="w",
    ))
    rec["env_spec"]["isolation"] = "container"
    path = tmp_path / "tasks.jsonl"
    from rlvrloop.jsonl import write_records

    write_records(path, "tasks", [rec])
    with pytest.raises(TaskFormatError, match="line 2: .*unknown isolation mode 'container'"):
        load_tasks(path)


def test_load_rejects_isolation_that_does_not_match_the_task_kind(tmp_path, one_task):
    """A real task under in_memory_synthetic fails at load, so its attempts never score as
    model failures; a synthetic task under process_sandbox fails too, since its commands never run."""
    rec = task_to_record(Task(
        id="real-1", issue="x", workspace=str(tmp_path),
        env_spec=EnvSpec((), "pytest", 10.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()), repo_name="w",
    ))
    rec["env_spec"].update(test_command="", isolation="in_memory_synthetic")
    path = tmp_path / "tasks.jsonl"
    from rlvrloop.jsonl import write_records

    write_records(path, "tasks", [rec])
    with pytest.raises(TaskFormatError, match="line 2: .*real task must use process_sandbox"):
        load_tasks(path)
    with pytest.raises(TaskFormatError, match="real task must use process_sandbox"):
        Task(id="real-1", issue="x", workspace=str(tmp_path), env_spec=synth_env_spec(),
             tests=TestSuite(regression=("t",), focused=()), repo_name="w")

    rec = task_to_record(one_task)
    rec["env_spec"].update(setup_commands=["false"], isolation="process_sandbox")
    write_records(path, "tasks", [rec])
    with pytest.raises(TaskFormatError, match="line 2: .*synthetic task must use in_memory_synthetic"):
        load_tasks(path)


def test_load_names_offending_line(tmp_path, small_suite):
    path = tmp_path / "tasks.jsonl"
    save_tasks(small_suite, path)
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({"kind": "synth", "id": "broken"})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TaskFormatError, match="line 3"):
        load_tasks(path)


def test_load_rejects_duplicate_ids(tmp_path, small_suite):
    path = tmp_path / "tasks.jsonl"
    save_tasks(list(small_suite.tasks) + [small_suite.tasks[0]], path)
    with pytest.raises(TaskFormatError, match="duplicate task id"):
        load_tasks(path)


def test_load_empty_file_warns(tmp_path, caplog):
    path = tmp_path / "tasks.jsonl"
    save_tasks([], path)
    with caplog.at_level("WARNING"):
        dataset = load_tasks(path)
    assert len(dataset) == 0
    assert any("no tasks" in r.message for r in caplog.records)


def test_bad_record_raises_task_format_error():
    with pytest.raises(TaskFormatError, match="bad task record"):
        task_from_record({"kind": "synth", "id": "x"})
