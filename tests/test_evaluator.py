"""Evaluator behavior, checked two ways where it counts.

The synthetic evaluator must agree with brute-force patch enumeration on
every cell of the (line, candidate) grid, and the sandboxed evaluator is
driven end to end against a scripted throwaway repository.
"""
import dataclasses
import itertools
import json
import re
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import ScriptedBackend, workspace_fingerprint
from rlvrloop import evaluator, jsonl
from rlvrloop.backends import SamplingParams
from rlvrloop.errors import SandboxProvisionError
from rlvrloop.evaluator import (
    EvaluationFailure,
    RewardRecord,
    STACKTRACE_TAIL_CHARS,
    evaluate,
    evaluate_batch,
    read_rewards,
    write_rewards,
    _parse_test_lines,
)
from rlvrloop.jsonl import dumps, record_lines
from rlvrloop.rollout import Patch, Step, Trajectory, scaffold_batch, synth_patch
from rlvrloop.tasks import (
    EnvSpec,
    ProgramError,
    RealTask,
    SynthTask,
    TestSuite,
    apply_candidate,
    enumerate_passing_patches,
    generate_synth_suite,
)


def synth_attempt(task, line, cand):
    backend = ScriptedBackend(script=[f"```\nLINE: {line}\n```", f"```\nCANDIDATE: {cand}\n```"])
    [traj] = scaffold_batch([(task, SamplingParams(temperature=0.6, seed=0), None)], backend)
    return traj


def manual_trajectory(task_id, patch, traj_id="t/x/0/u"):
    return Trajectory(
        task_id=task_id,
        steps=(Step("p", "c"), Step("p", "c")),
        patch=patch,
        guidance_id=None,
        sampling=SamplingParams(temperature=0.6, seed=0),
        traj_id=traj_id,
    )


# ---------------------------------------------------------------------------
# Synthetic isolation
# ---------------------------------------------------------------------------


def test_evaluator_agrees_with_enumeration_everywhere(small_suite):
    """Dual route: evaluator reward == membership in the enumerated fix set."""
    for task in small_suite:
        passing = set(enumerate_passing_patches(task))
        for line, cand in itertools.product(range(task.n_lines), range(task.n_candidates)):
            rec = evaluate(task, synth_attempt(task, line, cand))
            assert rec.reward == int((line, cand) in passing), (task.id, line, cand)


def test_success_record_shape(one_task):
    line, cand = enumerate_passing_patches(one_task)[0]
    rec = evaluate(one_task, synth_attempt(one_task, line, cand))
    assert rec.reward == 1
    assert rec.per_test == {"program_parses": "pass", "output_matches": "pass"}
    assert rec.stacktrace is None
    assert not rec.empty_patch
    assert rec.task_id == one_task.id
    assert rec.wall_time_s >= 0


def test_failure_record_names_expected_and_actual(one_task):
    line, cand = enumerate_passing_patches(one_task)[0]
    rec = evaluate(one_task, synth_attempt(one_task, line, (cand + 1) % one_task.n_candidates))
    assert rec.reward == 0
    assert rec.per_test["program_parses"] == "pass"
    assert rec.per_test["output_matches"] == "fail"
    assert f"expected {one_task.expected_output}" in rec.stacktrace
    assert "patched statement" in rec.stacktrace


def test_empty_patch_short_circuits(one_task):
    backend = ScriptedBackend(script=["junk", "junk"])
    [traj] = scaffold_batch([(one_task, SamplingParams(temperature=0.6, seed=0), None)], backend)
    rec = evaluate(one_task, traj)
    assert rec.reward == 0
    assert rec.empty_patch
    assert rec.per_test == {}
    assert rec.stacktrace is None


def test_program_error_candidate_scores_zero():
    task = SynthTask(
        id="t-err",
        issue="x",
        lines=("x0 = 1", "x1 = x0 + 1"),
        buggy_line=1,
        candidates=(("x0 = 1", "x0 = 2"), ("x1 = x0 + 4", "x1 = q + 1")),
        expected_output=5,
    )
    assert enumerate_passing_patches(task) == [(1, 0)]
    rec = evaluate(task, synth_attempt(task, 1, 1))
    assert rec.reward == 0
    assert rec.per_test == {"program_parses": "error", "output_matches": "error"}
    assert "undefined variable" in rec.stacktrace


def test_task_mismatch_rejected(small_suite):
    a, b = small_suite.tasks[0], small_suite.tasks[1]
    traj = synth_attempt(a, 0, 0)
    with pytest.raises(ValueError, match="does not belong"):
        evaluate(b, traj)


def test_evaluate_idempotent(one_task):
    traj = synth_attempt(one_task, 1, 1)
    a, b = evaluate(one_task, traj), evaluate(one_task, traj)
    assert a == b
    assert list(record_lines([a])) == list(record_lines([b]))


def test_wall_clock_never_changes_a_synthetic_reward(one_task, monkeypatch):
    import rlvrloop.evaluator as ev

    ticks = iter([0.0, 3600.0])  # an hour: a synthetic task has no time budget
    monkeypatch.setattr(ev.time, "perf_counter", lambda: next(ticks))
    rec = evaluate(one_task, synth_attempt(one_task, *enumerate_passing_patches(one_task)[0]))
    assert rec.reward == 1
    assert rec.per_test == {"program_parses": "pass", "output_matches": "pass"}
    assert rec.stacktrace is None


def grid_trajectory(task, line, cand):
    return manual_trajectory(task.id, Patch(edits=(), rendering=f"({line}, {cand})", synth=(line, cand)))


def test_outcome_memo_belongs_to_the_task_object(one_task):
    """Two tasks that share an id never see each other's scored patches."""
    a = dataclasses.replace(one_task)
    b = dataclasses.replace(
        one_task,
        candidates=tuple(row[::-1] for row in one_task.candidates),
        expected_output=one_task.expected_output + 1,
    )
    records = {a: [], b: []}
    for _ in range(2):
        for line, cand in itertools.product(range(a.n_lines), range(a.n_candidates)):
            traj = grid_trajectory(a, line, cand)
            for task in (a, b):
                rec = evaluate(task, traj)
                assert rec == evaluate(dataclasses.replace(task), traj), (task is a, line, cand)
                records[task].append(rec)
    assert a.patch_outcomes is not b.patch_outcomes
    assert not {id(o) for o in a.patch_outcomes.values()} & {id(o) for o in b.patch_outcomes.values()}
    # a record's per_test is read-only, so no caller can change a later record
    first = evaluate(a, grid_trajectory(a, 0, 0))
    before = dict(first.per_test)
    with pytest.raises(AttributeError):
        first.per_test.clear()
    with pytest.raises(TypeError):
        first.per_test["output_matches"] = "pass"
    later = evaluate(a, grid_trajectory(a, 0, 0))
    assert later.per_test == before
    assert later == evaluate(dataclasses.replace(a), grid_trajectory(a, 0, 0))


def test_records_of_one_outcome_share_one_test_map(small_suite):
    items = [(task, grid_trajectory(task, line, 1)) for _ in range(3) for task in small_suite for line in range(2)]
    records = evaluate_batch(items, workers=1)
    by_outcome = {}
    for (task, traj), rec in zip(items, records):
        assert by_outcome.setdefault((id(task), traj.patch.synth), rec.per_test) is rec.per_test
    assert len(by_outcome) == 2 * len(small_suite.tasks)
    module_maps = {id(evaluator._SYNTH_PASS), id(evaluator._SYNTH_FAIL), id(evaluator._SYNTH_ERROR)}
    assert {id(rec.per_test) for rec in records} <= module_maps
    # an empty patch has no tests, and every empty-patch record shares that map too
    empty = [evaluate(task, manual_trajectory(task.id, None)) for task in small_suite]
    assert all(rec.per_test == {} and rec.per_test is empty[0].per_test for rec in empty)


def test_every_synthetic_record_holds_one_of_three_module_test_maps():
    """Across tasks too: a synthetic outcome's test map is the pass, the fail or the error map."""
    suite = generate_synth_suite(6, 4, 4, seed=21)  # fresh tasks, so empty memos
    items = [(task, synth_attempt(task, line, cand)) for task in suite for line in range(4) for cand in range(4)]
    items += [(task, manual_trajectory(task.id, Patch((), "x", synth))) for task in suite for synth in ((9, 0), None)]
    records = evaluate_batch(items, workers=1)
    maps = (evaluator._SYNTH_PASS, evaluator._SYNTH_FAIL, evaluator._SYNTH_ERROR)
    assert {id(rec.per_test) for rec in records} == {id(m) for m in maps}
    assert all((rec.per_test is evaluator._SYNTH_PASS) == (rec.reward == 1) for rec in records)
    for m in maps:
        with pytest.raises(TypeError):
            m["output_matches"] = "pass"
        assert not hasattr(m, "clear")
    assert dict(evaluator._SYNTH_PASS) == {"program_parses": "pass", "output_matches": "pass"}
    assert dict(evaluator._SYNTH_FAIL) == {"program_parses": "pass", "output_matches": "fail"}
    assert dict(evaluator._SYNTH_ERROR) == {"program_parses": "error", "output_matches": "error"}
    # each memo key is the scored patch's own synth tuple, which every task shares
    for task in suite:
        assert len(task.patch_outcomes) == 16
        assert all(key is synth_patch(task, *key).synth for key in task.patch_outcomes)


# The interpreter before statements were compiled: a regex match per operand and
# the whole patched program run for every patch. The property test below holds the
# compiled, prefix-sharing route to it.
_REF_STMT = re.compile(
    r"^\s*([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*|-?\d+)(?:\s*([+*-])\s*([A-Za-z_]\w*|-?\d+))?\s*$"
)


def reference_run(lines):
    env = {}

    def value(tok, idx):
        if re.fullmatch(r"-?\d+", tok):
            return int(tok)
        if tok not in env:
            raise ProgramError(f"statement {idx}: undefined variable {tok!r}")
        return env[tok]

    target = None
    for idx, line in enumerate(lines):
        m = _REF_STMT.match(line)
        if not m:
            raise ProgramError(f"statement {idx}: statement does not parse: {line!r}")
        target, a, op, b = m.groups()
        va = value(a, idx)
        if op is None:
            env[target] = va
        else:
            vb = value(b, idx)
            env[target] = va + vb if op == "+" else va - vb if op == "-" else va * vb
    if target is None:
        raise ProgramError("empty program")
    return env[target]


def reference_outcome(lines):
    try:
        return reference_run(lines)
    except ProgramError as exc:
        return str(exc)


# y is assigned only when a statement happens to target it, so many programs and
# candidates read an undefined variable, in the prefix or in the patch itself
VARS = ("x0", "x1", "x2", "y")
OPERANDS = st.one_of(st.sampled_from(VARS), st.integers(-9, 12).map(str))
STATEMENTS = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(VARS), OPERANDS),
    st.builds("{} = {} {} {}".format, st.sampled_from(VARS), OPERANDS, st.sampled_from("+-*"), OPERANDS),
    st.sampled_from(["x1 = x0 / 2", "x2 == 3", "oops"]),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_prefix_sharing_enumeration_matches_naive_runs(data):
    n_lines = data.draw(st.integers(2, 5))
    width = data.draw(st.integers(2, 3))
    lines = tuple(data.draw(st.lists(STATEMENTS, min_size=n_lines, max_size=n_lines)))
    candidates = tuple(
        tuple(data.draw(st.lists(STATEMENTS, min_size=width, max_size=width, unique=True)))
        for _ in range(n_lines)
    )
    outcomes = {
        (j, k): reference_outcome(apply_candidate(lines, j, stmt))
        for j, row in enumerate(candidates) for k, stmt in enumerate(row)
    }
    values = [v for v in outcomes.values() if isinstance(v, int)]
    expected = data.draw(st.sampled_from(values) if values else st.integers(-50, 50))
    task = SynthTask(
        id="prop", issue="x", lines=lines, buggy_line=0, candidates=candidates, expected_output=expected,
    )

    # every small target too, so a patch scored from a wrong prefix is caught
    # whatever value it happens to reach
    for target in {expected, *values, *range(-20, 21)}:
        naive = [cell for cell, out in outcomes.items() if isinstance(out, int) and out == target]
        assert enumerate_passing_patches(dataclasses.replace(task, expected_output=target)) == naive
    for (j, k), out in outcomes.items():
        for _ in range(2):  # the second evaluation comes from the task's memo
            rec = evaluate(task, grid_trajectory(task, j, k))
            if isinstance(out, str):
                assert (rec.reward, rec.stacktrace) == (0, out)
                assert rec.per_test == {"program_parses": "error", "output_matches": "error"}
            else:
                assert rec.reward == int(out == expected)
                assert rec.per_test["program_parses"] == "pass"


# ---------------------------------------------------------------------------
# Subprocess sandbox
# ---------------------------------------------------------------------------

def test_sandbox_pass_and_fail(scripted_repo):
    task, ws = scripted_repo
    before = workspace_fingerprint(ws)

    good = manual_trajectory(task.id, Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d"))
    rec = evaluate(task, good)
    assert rec.reward == 1
    assert rec.per_test == {"t_parse": "pass", "t_value": "pass"}

    bad = manual_trajectory(task.id, Patch(edits=(("app.py:1:2", "    return 4"),), rendering="d"))
    rec = evaluate(task, bad)
    assert rec.reward == 0
    assert rec.per_test["t_value"] == "fail"
    assert "FAIL t_value" in rec.stacktrace

    # evaluation never mutates the source workspace
    assert workspace_fingerprint(ws) == before


def test_sandbox_patch_apply_failure_is_model_failure(scripted_repo):
    task, _ = scripted_repo
    for location in ("missing.py:0:1", "../escape.py:0:1", "app.py:5:9"):
        traj = manual_trajectory(task.id, Patch(edits=((location, "x"),), rendering="d"))
        rec = evaluate(task, traj)
        assert isinstance(rec, RewardRecord)
        assert rec.reward == 0
        assert "patch application failed" in rec.stacktrace
        assert set(rec.per_test.values()) == {"error"}


def test_sandbox_unreported_test_is_error(scripted_repo):
    task, ws = scripted_repo
    (ws / "runtests.py").write_text("print('PASS t_parse')\n")
    traj = manual_trajectory(task.id, Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d"))
    rec = evaluate(task, traj)
    assert rec.reward == 0
    assert rec.per_test == {"t_parse": "pass", "t_value": "error"}


def test_sandbox_timeout_is_model_failure(scripted_repo):
    task, ws = scripted_repo
    slow = RealTask(
        id=task.id,
        issue=task.issue,
        workspace=task.workspace,
        env_spec=EnvSpec((), "sleep 5", 0.5, "process_sandbox"),
        tests=task.tests,
        repo_name=task.repo_name,
    )
    traj = manual_trajectory(task.id, Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d"))
    rec = evaluate(slow, traj)
    assert rec.reward == 0
    assert "timed out" in rec.stacktrace


def test_sandbox_setup_failure_is_infra(scripted_repo):
    """A setup command that exits non-zero or times out, and a workspace that does not copy, are all
    SandboxProvisionError: infrastructure, never a reward."""
    task, ws = scripted_repo
    traj = manual_trajectory(task.id, Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d"))

    def with_setup(setup, timeout_s):
        env_spec = EnvSpec(setup, "python3 runtests.py", timeout_s, "process_sandbox")
        return dataclasses.replace(task, env_spec=env_spec)

    for setup, timeout_s, words in ((("exit 3",), 30.0, "exited 3"), (("sleep 5",), 0.5, "timed out")):
        with pytest.raises(SandboxProvisionError, match=words):
            evaluate(with_setup(setup, timeout_s), traj)
    # a dangling symlink makes shutil.copytree raise shutil.Error, an OSError
    (ws / "stale-link").symlink_to(ws / "no-such-file")
    with pytest.raises(SandboxProvisionError, match="workspace copy failed"):
        evaluate(task, traj)


def test_output_that_is_not_utf8_costs_no_more_than_its_own_attempt(scripted_repo):
    """A command's undecodable bytes read as U+FFFD: a test command that prints byte 0xff after its report
    still scores, and a setup command that prints one and fails is that attempt's EvaluationFailure."""
    task, _ = scripted_repo
    fix = manual_trajectory(task.id, Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d"))
    noisy = dataclasses.replace(task, env_spec=EnvSpec((), "python3 runtests.py; printf '\\377\\n'", 30.0,
                                                       "process_sandbox"))
    rec = evaluate(noisy, fix)
    assert (rec.reward, dict(rec.per_test)) == (1, {"t_parse": "pass", "t_value": "pass"})
    broken = dataclasses.replace(task, env_spec=EnvSpec(("printf '\\377\\n'; exit 1",), "python3 runtests.py", 30.0,
                                                        "process_sandbox"))
    [failure] = evaluate_batch([(broken, fix)], workers=1)
    assert isinstance(failure, EvaluationFailure)
    assert "exited 1" in failure.infrastructure_error and "�" in failure.infrastructure_error


def test_missing_workspace_is_infra(tmp_path):
    task = RealTask(
        id="real-x",
        issue="x",
        workspace=str(tmp_path / "nope"),
        env_spec=EnvSpec((), "true", 10.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()),
        repo_name="r",
    )
    traj = manual_trajectory(task.id, Patch(edits=(("a.py:0:0", "x"),), rendering="d"))
    with pytest.raises(SandboxProvisionError, match="not a directory"):
        evaluate(task, traj)


def test_stacktrace_tail_is_bounded(scripted_repo):
    task, ws = scripted_repo
    (ws / "runtests.py").write_text(
        "print('x' * 12000)\nprint('PASS t_parse')\nprint('FAIL t_value')\n"
    )
    traj = manual_trajectory(task.id, Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d"))
    rec = evaluate(task, traj)
    assert rec.reward == 0
    assert len(rec.stacktrace) <= STACKTRACE_TAIL_CHARS
    assert "FAIL t_value" in rec.stacktrace


def test_parse_test_lines_protocol():
    out = "noise\nPASS t_a\nFAIL t_b\nERROR t_c\nPASS t_unknown\nnot a line\n"
    assert _parse_test_lines(out, ("t_a", "t_b", "t_c", "t_d")) == {
        "t_a": "pass",
        "t_b": "fail",
        "t_c": "error",
        "t_d": "error",
    }


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


def test_batch_preserves_order_and_isolates_infra(small_suite, scripted_repo, tmp_path, monkeypatch):
    import rlvrloop.backends as backends

    real, _ = scripted_repo
    broken = RealTask(
        id="real-broken",
        issue="x",
        workspace=str(tmp_path / "gone"),
        env_spec=EnvSpec((), "true", 10.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()),
        repo_name="r",
    )
    t0, t1 = small_suite.tasks[0], small_suite.tasks[1]
    fix = Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d")
    items = [
        (t0, synth_attempt(t0, 0, 0)),
        (broken, manual_trajectory(broken.id, Patch(edits=(("a:0:0", "x"),), rendering="d"), "b/x/0/u")),
        (t1, synth_attempt(t1, 1, 1)),
        (real, manual_trajectory(real.id, fix, "r/x/0/u")),
        (t0, synth_attempt(t0, *enumerate_passing_patches(t0)[0])),
        (real, manual_trajectory(real.id, Patch(edits=(("app.py:1:2", "    return 4"),), rendering="d"), "r/x/1/u")),
    ]
    pools = []

    class CountingPool(backends.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backends, "ThreadPoolExecutor", CountingPool)
    records = evaluate_batch(items, workers=3)
    assert len(pools) == 1  # the sandboxed items share one pool
    assert [r.trajectory_ref for r in records] == [traj.traj_id for _, traj in items]
    assert [type(r) for r in records] == [
        RewardRecord, EvaluationFailure, RewardRecord, RewardRecord, RewardRecord, RewardRecord,
    ]
    assert records[1].task_id == "real-broken"
    assert [r.reward for i, r in enumerate(records) if i != 1] == [0, 0, 1, 1, 0]

    serial = evaluate_batch(items, workers=1)
    assert len(pools) == 1
    assert serial == records


@pytest.mark.parametrize("workers", [1, 3])
def test_a_bug_in_sandboxed_evaluation_propagates(small_suite, scripted_repo, monkeypatch, workers):
    """Only the declared infrastructure errors become EvaluationFailure; a plain ValueError fails the batch."""
    import rlvrloop.evaluator as ev

    def buggy(task, trajectory):
        raise ValueError("a bug, not an infrastructure failure")

    monkeypatch.setattr(ev, "_evaluate_sandboxed", buggy)
    real, _ = scripted_repo
    t0 = small_suite.tasks[0]
    fix = Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d")
    items = [(t0, synth_attempt(t0, 0, 0))]
    items += [(real, manual_trajectory(real.id, fix, f"r/x/{i}/u")) for i in range(2)]
    with pytest.raises(ValueError, match="a bug"):
        evaluate_batch(items, workers=workers)


def test_pooled_mixed_batch_keeps_one_outcome_per_patch(scripted_repo):
    """Synthetic items scored on pool threads beside a sandboxed one still share one outcome object per patch."""
    import sys

    real, _ = scripted_repo
    fix = Patch(edits=(("app.py:1:2", "    return 7"),), rendering="d")

    def batch():
        suite = generate_synth_suite(2, 4, 4, seed=3)  # fresh tasks, so empty outcome memos
        cells = [(task, line, cand) for task in suite for line in range(4) for cand in range(4)]
        # eight adjacent copies of each cell, so several threads score one patch at once
        return [(real, manual_trajectory(real.id, fix, "r/x/0/u"))] + [
            (task, grid_trajectory(task, line, cand)) for task, line, cand in cells for _ in range(8)
        ]

    items, serial_items = batch(), batch()
    # each memo is made with its task, so no two threads can each make one (functools.cached_property
    # takes no lock from Python 3.12 on)
    assert all(vars(task)["patch_outcomes"] == {} for task, _ in items[1:])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = evaluate_batch(items, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert records == evaluate_batch(serial_items, workers=1)
    for (task, traj), record in zip(items[1:], records[1:]):
        assert record.per_test is task.patch_outcomes[traj.patch.synth][1]


def test_synthetic_batch_never_builds_a_thread_pool(small_suite, monkeypatch):
    import rlvrloop.backends as backends

    def no_pool(*args, **kwargs):
        raise AssertionError("synthetic items must be scored in the calling thread")

    monkeypatch.setattr(backends, "ThreadPoolExecutor", no_pool)
    items = [(task, synth_attempt(task, 1, cand)) for task in small_suite for cand in range(2)]
    records = evaluate_batch(items, workers=4)
    assert [r.trajectory_ref for r in records] == [traj.traj_id for _, traj in items]
    assert records == [evaluate(task, traj) for task, traj in items]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_reward_record_validation():
    with pytest.raises(ValueError, match="reward must be 0 or 1"):
        RewardRecord("t", "r", 2, {}, False, None, 0.0)
    with pytest.raises(ValueError, match="empty patch cannot earn reward"):
        RewardRecord("t", "r", 1, {}, True, None, 0.0)


@pytest.mark.parametrize("reward, empty_patch, message", [
    (True, False, "reward must be 0 or 1, got True"),
    (False, False, "reward must be 0 or 1, got False"),
    (1.0, False, "reward must be 0 or 1, got 1.0"),
])
def test_reward_record_refuses_a_value_its_file_would_not_read_back_as(tmp_path, reward, empty_patch, message):
    """A reward is the int 0 or 1: a record holding True or 1.0 there would write a line the read refuses, so it is
    refused where it is built."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RewardRecord("t", "r", reward, {}, empty_patch, None)
    accepted = [RewardRecord("t", f"r{r}{e}", r, {}, e, None) for r, e in [(0, True), (0, False), (1, False)]]
    write_rewards(accepted, tmp_path / "a.jsonl")
    write_rewards(read_rewards(tmp_path / "a.jsonl"), tmp_path / "b.jsonl")
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()


def test_record_round_trip_discriminates_infra(tmp_path, one_task):
    rec = evaluate(one_task, synth_attempt(one_task, 0, 1))
    infra = EvaluationFailure(task_id="t", trajectory_ref="r", infrastructure_error="sandbox broke")
    path = tmp_path / "rewards.jsonl"
    write_rewards([rec, infra], path)
    assert read_rewards(path) == [rec, infra]
    header, scored, lost = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lost) == {"task_id": "t", "trajectory_ref": "r", "infrastructure_error": "sandbox broke"}
    # scoring time stays in memory; a file written by an older version may
    # still carry it, and reading ignores it
    assert "wall_time_s" not in json.loads(scored)
    path.write_text("\n".join([header, dumps(json.loads(scored) | {"wall_time_s": 0.25}), lost]) + "\n")
    assert read_rewards(path) == [rec, infra]


def test_read_rewards_shares_task_ids_stack_traces_and_test_maps(tmp_path, small_suite):
    items = [(task, synth_attempt(task, line, cand)) for task in small_suite for line in range(2) for cand in range(2)]
    records = evaluate_batch(items * 2, workers=1) + [EvaluationFailure(items[0][0].id, "r", "sandbox broke")]
    path = tmp_path / "rewards.jsonl"
    write_rewards(records, path)
    back = read_rewards(path)
    assert back == records
    assert list(record_lines(back)) == list(record_lines(records))
    one = {}
    for rec in back:
        assert one.setdefault(rec.task_id, rec.task_id) is rec.task_id
        if isinstance(rec, RewardRecord):
            assert one.setdefault(rec.stacktrace, rec.stacktrace) is rec.stacktrace
            assert one.setdefault(tuple(rec.per_test.items()), rec.per_test) is rec.per_test
            with pytest.raises(TypeError):
                rec.per_test["output_matches"] = "pass"
    scored = [rec for rec in back if isinstance(rec, RewardRecord)]
    assert len({id(rec.per_test) for rec in scored}) == len({tuple(rec.per_test.items()) for rec in scored}) < 4


def reference_record(rec):
    """A reward file's record, spelled out field by field: the oracle the writer's lines are checked against."""
    if isinstance(rec, EvaluationFailure):
        return {"task_id": rec.task_id, "trajectory_ref": rec.trajectory_ref,
                "infrastructure_error": rec.infrastructure_error}
    return {
        "task_id": rec.task_id,
        "trajectory_ref": rec.trajectory_ref,
        "reward": rec.reward,
        "per_test": dict(rec.per_test),
        "empty_patch": rec.empty_patch,
        "stacktrace": rec.stacktrace,
    }


def test_rewards_file_lines_are_dumps_of_each_record(tmp_path, small_suite, monkeypatch):
    """write_rewards renders each line from its type's compiled template; every line must be dumps of the record,
    for failures, None and non-ASCII stack traces, bool fields, and tasks that come back after another."""
    a, b = small_suite.tasks[:2]
    scored = evaluate_batch([(task, synth_attempt(task, line, 1)) for task in (a, b) for line in range(3)], workers=1)
    odd = [
        EvaluationFailure(a.id, "a/x/1/u", "sandbox \u00e9chou\u00e9 \u6f22 \"quoted\"\n\ttab"),
        RewardRecord(b.id, "b/x/2/u", 1, MappingProxyType({"z": "pass", "a": "pass"}), False, None),
        RewardRecord(b.id, "b/x/3/u", 0, {"t\u00e9st": "fail"}, True, "trace \u00e9 \u6f22\x00\x7f"),
        RewardRecord(a.id, "a/x/4/u", 1, MappingProxyType({}), False, ""),
        RewardRecord(a.id, "a/x/5/u", 0, {"k": "error"}, False, None),
    ]
    records = scored[:3] + odd[:3] + scored[3:] + odd[3:] + scored[:2]
    path = tmp_path / "rewards.jsonl"
    assert write_rewards(records, path) == len(records)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [dumps(reference_record(r)) for r in records]

    proxies = []
    monkeypatch.setattr(jsonl, "MappingProxyType", lambda m: proxies.append(m) or MappingProxyType(m))
    back = read_rewards(path)
    assert [reference_record(r) for r in back] == [reference_record(r) for r in records]
    distinct = {tuple(r.per_test.items()) for r in records if isinstance(r, RewardRecord)}
    assert len(proxies) == len(distinct)  # one read-only map per distinct test map, none per record


def test_workspace_fingerprint_sensitivity(tmp_path):
    (tmp_path / "a.txt").write_text("one")
    f1 = workspace_fingerprint(tmp_path)
    assert f1 == workspace_fingerprint(tmp_path)
    (tmp_path / "a.txt").write_text("two")
    assert workspace_fingerprint(tmp_path) != f1
