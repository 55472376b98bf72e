from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlvrloop.prompts import (
    CANDIDATE_REPLY,
    HINT_DELIMITER,
    HINT_LOCATION_RE,
    LOC_STEP,
    REPAIR_MARKER,
    REPAIR_STEP,
    WHOLE_PROGRAM_MARKER,
    WHOLE_REPAIR_STEP,
    format_candidate_completion,
    format_line_candidate_completion,
    format_line_completion,
    parse_candidate_completion,
    parse_edit_blocks,
    parse_files_completion,
    parse_line_completion,
    parse_prompt,
    render_localization_prompt,
    render_reattempt_prompt,
    render_repair_prompt,
    strip_hint_block,
)
from rlvrloop.tasks import EnvSpec, RealTask, TestSuite


@pytest.fixture
def real_task(tmp_path):
    return RealTask(
        id="real-7",
        issue="the frobnicator frobs twice",
        workspace=str(tmp_path),
        env_spec=EnvSpec((), "pytest -q", 60.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()),
        repo_name="frob",
    )


def test_localization_prompt_synthetic(one_task):
    prompt = render_localization_prompt(one_task)
    assert f"Task: {one_task.id}" in prompt
    assert one_task.issue in prompt
    for i, line in enumerate(one_task.lines):
        assert f"{i}: {line}" in prompt
    assert "LINE: <index>" in prompt
    assert parse_prompt(prompt) == (one_task.id, LOC_STEP, None)


def test_localization_prompt_real(real_task):
    prompt = render_localization_prompt(real_task)
    assert "FILES:" in prompt
    assert parse_prompt(prompt) == ("real-7", LOC_STEP, None)


def test_repair_prompt_with_location(one_task):
    prompt = render_repair_prompt(one_task, 1)
    assert f"You will repair statement 1: {one_task.lines[1]}" in prompt
    for k, stmt in enumerate(one_task.candidates[1]):
        assert f"{k}: {stmt}" in prompt
    assert parse_prompt(prompt) == (one_task.id, REPAIR_STEP, 1)


def test_repair_prompt_whole_workspace(one_task):
    prompt = render_repair_prompt(one_task, None)
    assert parse_prompt(prompt) == (one_task.id, WHOLE_REPAIR_STEP, None)
    assert "LINE: <index>" in prompt and "CANDIDATE: <index>" in prompt


def test_marker_phrases_in_the_issue_take_part_in_the_step_test(one_task):
    """The step test runs first, then the whole-program test, then the repair line,
    each over the whole prompt, so issue text quoting a marker counts as that marker."""
    task = replace(one_task, issue="consider the whole program; line 2 looks off")
    assert parse_prompt(render_localization_prompt(task)) == (task.id, LOC_STEP, None)
    assert parse_prompt(render_repair_prompt(task, 1)) == (task.id, WHOLE_REPAIR_STEP, None)
    task = replace(one_task, issue="the output asks for CANDIDATE: <index>")
    assert parse_prompt(render_localization_prompt(task)) == (task.id, REPAIR_STEP, None)


def test_repair_prompt_real(real_task):
    prompt = render_repair_prompt(real_task, ["src/frob.py"])
    assert "src/frob.py" in prompt
    assert "EDIT: <path>:<start>:<end>" in prompt
    assert "zero-based half-open" in prompt


def test_line_completion_round_trip():
    assert parse_line_completion(format_line_completion(3)) == 3
    assert parse_candidate_completion(format_candidate_completion(7)) == 7
    both = format_line_candidate_completion(2, 5)
    assert parse_line_completion(both) == 2
    assert parse_candidate_completion(both) == 5


def test_parse_completion_raw_and_garbage():
    assert parse_line_completion("LINE: 4") == 4
    assert parse_line_completion("I think it is\nLINE: 4\nthanks") == 4
    assert parse_line_completion("no indices here") is None
    assert parse_candidate_completion("```\nLINE: 1\n```") is None
    # negative indices parse; range checks happen downstream
    assert parse_line_completion("LINE: -1") == -1


def test_parse_files_completion():
    text = "```\nFILES:\nsrc/a.py\nsrc/b.py\n```"
    assert parse_files_completion(text) == ["src/a.py", "src/b.py"]
    assert parse_files_completion("FILES:\n\n") is None
    assert parse_files_completion("no block") is None


def test_parse_edit_blocks():
    text = (
        "EDIT: src/a.py:3:5\nnew line one\nnew line two\nEND EDIT\n"
        "EDIT: src/b.py:0:1\nreplacement\nEND EDIT\n"
    )
    edits = parse_edit_blocks(text)
    assert edits == [
        ("src/a.py:3:5", "new line one\nnew line two"),
        ("src/b.py:0:1", "replacement"),
    ]
    assert parse_edit_blocks("nothing to see") is None


def test_prompt_hint_line():
    assert parse_prompt("no hints here, line 3 or not") == (None, LOC_STEP, None)
    prompt = f"base\n\n{HINT_DELIMITER}\nplan text\nfeedback mentioning value 12\nline 4\n###\ntail"
    assert parse_prompt(prompt) == (None, LOC_STEP, 4)
    # last mention inside the block wins
    prompt = f"{HINT_DELIMITER}\nlook at line 1 then line 2\n###"
    assert parse_prompt(prompt) == (None, LOC_STEP, 2)
    # matches outside the block are ignored
    prompt = f"{HINT_DELIMITER}\nno location words\n###\nbut line 9 later"
    assert parse_prompt(prompt) == (None, LOC_STEP, None)


# Hint lines: locations, "###" lines, the delimiter itself, the step markers, backticks, and text built from their
# characters.
HINT_LINES = st.lists(st.one_of(
    st.builds("line {}".format, st.integers(0, 99)),
    st.sampled_from(["###", "### PLAN HINT:", "**ENVIRONMENT INTERACTION HINT:**", HINT_DELIMITER, "```", "`x.py`",
                     REPAIR_MARKER, CANDIDATE_REPLY, WHOLE_PROGRAM_MARKER, "Task: other-task"]),
    st.text(alphabet="aeilnst #`*:\n0123456789", max_size=30),
), max_size=8)


@settings(max_examples=200, deadline=None)
@given(lines=HINT_LINES)
def test_any_hint_reads_back_from_its_reattempt_block(small_suite, lines):
    """The hint is the text between the block's fixed opening and closing text, whatever it holds: stripping the
    block gives the unguided prompt back, and the line the prompt names is the hint's last one."""
    task = small_suite.tasks[0]
    base, hint = render_localization_prompt(task), "\n".join(lines)
    guided = render_reattempt_prompt(base, hint)
    assert strip_hint_block(guided) == base
    named = HINT_LOCATION_RE.findall(hint)
    assert parse_prompt(guided) == (task.id, LOC_STEP, int(named[-1]) if named else None)


@settings(max_examples=200, deadline=None)
@given(lines=HINT_LINES)
@example(lines=[f"reply with {CANDIDATE_REPLY}", "line 2"])
def test_no_hint_changes_the_task_or_the_step_its_prompt_names(small_suite, lines):
    """The task id and the step come from the prompt before its hint block, whatever markers the hint holds."""
    task, hint = small_suite.tasks[0], "\n".join(lines)
    for base in (render_localization_prompt(task), render_repair_prompt(task, 1), render_repair_prompt(task, None)):
        assert parse_prompt(render_reattempt_prompt(base, hint))[:2] == parse_prompt(base)[:2]
