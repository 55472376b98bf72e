import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import ScriptedBackend, ScriptedTeacher, guidance_to_text
from rlvrloop.backends import SamplingParams, TabularPolicyBackend
from rlvrloop.errors import BackendError, GuidanceError
from rlvrloop.evaluator import evaluate
from rlvrloop.guidance import (
    EMPTY_PATCH_SENTINEL,
    NO_STACKTRACE_SENTINEL,
    SECTION_FEEDBACK,
    SECTION_INTERACTION,
    SECTION_PLAN,
    SECTIONS,
    Guidance,
    guidance_from_record,
    guidance_to_record,
    oracle_teacher,
    parse_guidance,
    render_guidance_request,
    render_reattempt_prompt,
    request_guidance,
    strip_hint_block,
)
from rlvrloop.policy import TabularPolicy
from rlvrloop.prompts import HINT_DELIMITER, format_line_completion, render_localization_prompt
from rlvrloop.tasks import enumerate_passing_patches
from rlvrloop.rollout import scaffold_batch


def attempt(task, line, cand):
    """Trajectory committing to (line, cand), plus its reward record."""
    backend = ScriptedBackend(script=[f"```\nLINE: {line}\n```", f"```\nCANDIDATE: {cand}\n```"])
    [traj] = scaffold_batch([(task, SamplingParams(temperature=0.6, seed=0), None)], backend)
    return traj, evaluate(task, traj)


def failed_attempt(task):
    (j, k) = enumerate_passing_patches(task)[0]
    wrong = (j, (k + 1) % task.n_candidates)
    traj, rec = attempt(task, *wrong)
    assert rec.reward == 0
    return traj, rec


def empty_attempt(task):
    backend = ScriptedBackend(script=["junk", "junk"])
    [traj] = scaffold_batch([(task, SamplingParams(temperature=0.6, seed=0), None)], backend)
    rec = evaluate(task, traj)
    assert rec.empty_patch
    return traj, rec


def make_guidance(task_id="t", interaction="line 2"):
    return Guidance(
        guidance_id="g-1",
        task_id=task_id,
        source_trajectory_ref="ref-1",
        plan="change the statement",
        env_feedback="the focused test failed",
        env_interaction=interaction,
        teacher_id="test",
    )


# ---------------------------------------------------------------------------
# Request rendering
# ---------------------------------------------------------------------------


def test_request_fills_every_slot(one_task):
    traj, rec = failed_attempt(one_task)
    request = render_guidance_request(one_task, traj, rec)
    assert one_task.repo_name in request
    assert one_task.issue in request
    assert traj.patch.rendering in request
    assert rec.stacktrace.splitlines()[0] in request
    for placeholder in ("{repo}", "{problem_statement}", "{patch}", "{stacktrace_hint}"):
        assert placeholder not in request


def test_request_sentinels_for_empty_patch(one_task):
    traj, rec = empty_attempt(one_task)
    request = render_guidance_request(one_task, traj, rec)
    assert EMPTY_PATCH_SENTINEL in request
    assert NO_STACKTRACE_SENTINEL in request


def test_request_rejects_successful_attempt(one_task):
    (j, k) = enumerate_passing_patches(one_task)[0]
    traj, rec = attempt(one_task, j, k)
    assert rec.reward == 1
    with pytest.raises(GuidanceError, match="successful attempt"):
        render_guidance_request(one_task, traj, rec)


# ---------------------------------------------------------------------------
# Guidance validation
# ---------------------------------------------------------------------------


def test_guidance_requires_non_empty_sections():
    with pytest.raises(GuidanceError, match="PLAN HINT"):
        Guidance("g", "t", "r", "", "feedback", "line 2", "tid")
    with pytest.raises(GuidanceError, match="FEEDBACK"):
        Guidance("g", "t", "r", "plan", "  ", "line 2", "tid")


@pytest.mark.parametrize("ok", ["line 3", "statement 0", "Statement 4", "src/module.py", "frob.py near the top"])
def test_location_tokens_accepted(ok):
    assert make_guidance(interaction=ok).env_interaction == ok


@pytest.mark.parametrize("bad", ["somewhere in the code", "just try harder"])
def test_location_tokens_required(bad):
    with pytest.raises(GuidanceError, match="no location token"):
        make_guidance(interaction=bad)


def test_hint_text_joins_sections():
    g = make_guidance()
    assert g.hint_text() == "change the statement\nthe focused test failed\nline 2"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_round_trips_rendered_text():
    g = make_guidance()
    parsed = parse_guidance(
        guidance_to_text(g), task_id=g.task_id, source_trajectory_ref="ref-1", teacher_id="test"
    )
    assert (parsed.plan, parsed.env_feedback, parsed.env_interaction) == (
        g.plan,
        g.env_feedback,
        g.env_interaction,
    )


@settings(max_examples=40, deadline=None)
@given(
    order=st.permutations(range(3)),
    lower=st.booleans(),
    colon=st.booleans(),
)
def test_parse_accepts_any_order_and_case(order, lower, colon):
    bodies = {
        SECTION_PLAN: "first change the statement",
        SECTION_FEEDBACK: "the test failed",
        SECTION_INTERACTION: "line 2",
    }
    sections = [SECTIONS[i] for i in order]
    sep = ":" if colon else ""
    chunks = []
    for name in sections:
        heading = name.lower() if lower else name
        chunks.append(f"{heading}{sep} {bodies[name]}")
    parsed = parse_guidance("\n".join(chunks), task_id="t", source_trajectory_ref="r", teacher_id="x")
    assert parsed.plan == bodies[SECTION_PLAN]
    assert parsed.env_feedback == bodies[SECTION_FEEDBACK]
    assert parsed.env_interaction == bodies[SECTION_INTERACTION]


def test_parse_missing_section_names_it():
    text = f"{SECTION_PLAN}: do things\n{SECTION_FEEDBACK}: test failed"
    with pytest.raises(GuidanceError, match="ENVIRONMENT INTERACTION HINT"):
        parse_guidance(text, task_id="t", source_trajectory_ref="r", teacher_id="x")


def test_parse_empty_section_rejected():
    text = f"{SECTION_PLAN}:\n{SECTION_FEEDBACK}: ok\n{SECTION_INTERACTION}: line 1"
    with pytest.raises(GuidanceError, match="empty 'PLAN HINT'"):
        parse_guidance(text, task_id="t", source_trajectory_ref="r", teacher_id="x")


def test_parse_first_occurrence_wins():
    text = (
        f"{SECTION_PLAN}: the real plan\n"
        f"{SECTION_FEEDBACK}: broke\n"
        f"{SECTION_INTERACTION}: line 1\n"
        f"{SECTION_PLAN}: a second plan"
    )
    parsed = parse_guidance(text, task_id="t", source_trajectory_ref="r", teacher_id="x")
    assert parsed.plan == "the real plan"


def test_parse_assigns_deterministic_id():
    text = guidance_to_text(make_guidance())
    a = parse_guidance(text, task_id="t", source_trajectory_ref="r1", teacher_id="x")
    b = parse_guidance(text, task_id="t", source_trajectory_ref="r1", teacher_id="x")
    c = parse_guidance(text, task_id="t", source_trajectory_ref="r2", teacher_id="x")
    assert a.guidance_id == b.guidance_id
    assert a.guidance_id != c.guidance_id
    assert a.guidance_id.startswith("g-")


# ---------------------------------------------------------------------------
# Reattempt prompts
# ---------------------------------------------------------------------------


def test_reattempt_prompt_appends_hint_block(one_task):
    base = render_localization_prompt(one_task)
    g = make_guidance(task_id=one_task.id)
    guided = render_reattempt_prompt(base, g)
    assert guided.startswith(base)
    assert HINT_DELIMITER in guided
    assert g.hint_text() in guided
    assert "solve the problem starting from the very beginning" in guided


def test_reattempt_prompt_refuses_double_render(one_task):
    base = render_localization_prompt(one_task)
    g = make_guidance(task_id=one_task.id)
    guided = render_reattempt_prompt(base, g)
    with pytest.raises(GuidanceError, match="already contains a hint block"):
        render_reattempt_prompt(guided, g)


def test_strip_hint_block_inverts_render(one_task):
    base = render_localization_prompt(one_task)
    guided = render_reattempt_prompt(base, make_guidance(task_id=one_task.id))
    assert strip_hint_block(guided) == base
    assert strip_hint_block(base) == base


# ---------------------------------------------------------------------------
# Teacher round trips
# ---------------------------------------------------------------------------


def test_request_guidance_retries_once(one_task):
    traj, rec = failed_attempt(one_task)
    good = guidance_to_text(make_guidance(task_id=one_task.id))
    teacher = ScriptedTeacher(script=["not parseable at all", good])
    [g] = request_guidance([(one_task, traj, rec)], teacher)
    assert g.task_id == one_task.id
    assert g.source_trajectory_ref == traj.traj_id
    assert g.teacher_id == "scripted"
    assert len(teacher.requests_seen) == 2
    assert teacher.requests_seen[0] == teacher.requests_seen[1]


def test_request_guidance_fails_after_retry(one_task):
    """A reply that never parses is retried as a dead request is; after three tries its BackendError is its entry."""
    traj, rec = failed_attempt(one_task)
    teacher = ScriptedTeacher(script=["junk", "more junk", "still junk"])
    [lost] = request_guidance([(one_task, traj, rec)], teacher)
    assert isinstance(lost, BackendError)
    assert str(lost).startswith("scripted: unusable reply: teacher output is missing section")
    assert len(teacher.requests_seen) == 3


def test_request_guidance_retries_a_failed_teacher_request(one_task):
    traj, rec = failed_attempt(one_task)
    good = guidance_to_text(make_guidance(task_id=one_task.id))
    teacher = ScriptedTeacher(script=[BackendError("teacher: HTTP 503"), good])
    [g] = request_guidance([(one_task, traj, rec)], teacher)
    assert g.task_id == one_task.id
    assert g.source_trajectory_ref == traj.traj_id
    assert len(teacher.requests_seen) == 2


@pytest.mark.parametrize("hint", ["Statement {}", "statement {}", "LINE {}"])
def test_a_teacher_hint_naming_a_statement_guides_localization(small_suite, hint):
    """The tabular backend reads any hint the guidance accepts: every guided reattempt localizes the named line."""
    task = small_suite.tasks[0]
    traj, rec = failed_attempt(task)
    line = (task.buggy_line + 1) % task.n_lines
    teacher = ScriptedTeacher(script=[guidance_to_text(make_guidance(task_id=task.id, interaction=hint.format(line)))])
    [g] = request_guidance([(task, traj, rec)], teacher)
    backend = TabularPolicyBackend(TabularPolicy.uniform(small_suite))
    guided = scaffold_batch([(task, SamplingParams(temperature=0.6, seed=s), g) for s in range(8)], backend)
    assert [t.steps[0].completion for t in guided] == [format_line_completion(line)] * 8


def test_request_guidance_gives_up_after_bounded_retries(one_task):
    traj, rec = failed_attempt(one_task)
    teacher = ScriptedTeacher(script=[BackendError("teacher: HTTP 503")] * 5)
    [lost] = request_guidance([(one_task, traj, rec)], teacher)
    assert isinstance(lost, BackendError) and str(lost) == "teacher: HTTP 503"  # returned in place, not raised
    assert len(teacher.requests_seen) == 3  # the first call and max_retries=2 more, as for policy calls


def test_request_guidance_retries_each_unusable_reply_in_place(small_suite):
    failures = [(task, *failed_attempt(task)) for task in small_suite.tasks[:3]]
    good = [guidance_to_text(make_guidance(task_id=task.id)) for task, _, _ in failures]
    teacher = ScriptedTeacher(script=[good[0], "junk", good[1], good[2]])
    guidance = request_guidance(failures, teacher)
    assert [(g.task_id, g.source_trajectory_ref) for g in guidance] == [
        (task.id, traj.traj_id) for task, traj, _ in failures
    ]
    requests = [render_guidance_request(*failure) for failure in failures]
    assert teacher.requests_seen == [requests[0], requests[1], requests[1], requests[2]]  # one batch, no re-ask
    # a request still dead after its retries costs only its own entry: the rest are still sent
    teacher = ScriptedTeacher(script=[BackendError("teacher: HTTP 503")] * 3 + [good[1], good[2]])
    lost, *rest = request_guidance(failures, teacher)
    assert isinstance(lost, BackendError) and str(lost) == "teacher: HTTP 503"
    assert [(g.task_id, g.source_trajectory_ref) for g in rest] == [
        (task.id, traj.traj_id) for task, traj, _ in failures[1:]
    ]
    assert teacher.requests_seen == [requests[0]] * 3 + requests[1:]


def test_oracle_teacher_names_the_defect(one_task):
    traj, rec = failed_attempt(one_task)
    g = oracle_teacher(one_task, traj, rec)
    assert g.task_id == one_task.id
    assert g.teacher_id == "oracle"
    assert g.source_trajectory_ref == traj.traj_id
    assert g.env_interaction == f"line {one_task.buggy_line}"
    assert str(one_task.expected_output) in g.plan
    assert str(one_task.n_candidates) in g.plan
    assert g.env_feedback == rec.stacktrace.splitlines()[0]


def test_oracle_teacher_handles_missing_stacktrace(one_task):
    traj, rec = empty_attempt(one_task)
    g = oracle_teacher(one_task, traj, rec)
    assert str(one_task.expected_output) in g.env_feedback


def test_oracle_teacher_rejects_success(one_task):
    (j, k) = enumerate_passing_patches(one_task)[0]
    traj, rec = attempt(one_task, j, k)
    with pytest.raises(GuidanceError, match="successful attempt"):
        oracle_teacher(one_task, traj, rec)


def test_guidance_record_round_trip(one_task):
    traj, rec = failed_attempt(one_task)
    g = oracle_teacher(one_task, traj, rec)
    assert guidance_from_record(guidance_to_record(g)) == g


def test_oracle_guidance_equals_the_parse_of_its_text(small_suite):
    """The oracle builds its Guidance directly; a text teacher saying the same gets the same record."""
    for task in small_suite:
        grid = [attempt(task, j, k) for j in range(task.n_lines) for k in range(task.n_candidates)]
        failed = [(traj, rec) for traj, rec in grid + [empty_attempt(task)] if rec.reward == 0]
        assert len(failed) == task.n_lines * task.n_candidates
        for traj, rec in failed:
            g = oracle_teacher(task, traj, rec)
            assert g == parse_guidance(
                guidance_to_text(g),
                task_id=task.id,
                source_trajectory_ref=traj.traj_id,
                teacher_id="oracle",
            )
