import json
import logging
import math

import numpy as np
import pytest

from doubles import ScriptedBackend
from rlvrloop.backends import TabularPolicyBackend
from rlvrloop.errors import BackendError, GuidanceLeakError, TaskFormatError
from rlvrloop.guidance import Guidance
from rlvrloop.jsonl import dumps
from rlvrloop.policy import TabularPolicy
from rlvrloop.prompts import HINT_DELIMITER, LOC_STEP, REPAIR_STEP
from rlvrloop.rollout import (
    TEMPERATURE_GREEDY,
    TEMPERATURE_SAMPLING,
    Patch,
    SamplingParams,
    Step,
    Trajectory,
    read_trajectories,
    rollout_all_tasks,
    rollout_params,
    scaffold_batch,
    synth_patch,
    trajectory_from_record,
    trajectory_to_record,
    write_trajectories,
)
from rlvrloop.tasks import generate_synth_suite


def make_guidance(task, line=None):
    return Guidance(
        guidance_id="g-test",
        task_id=task.id,
        source_trajectory_ref="src-ref",
        plan="replace the defective statement",
        env_feedback="output_matches failed",
        env_interaction=f"line {task.buggy_line if line is None else line}",
        teacher_id="test",
    )


@pytest.fixture
def backend(small_suite):
    return TabularPolicyBackend(TabularPolicy.uniform(small_suite))


def params(seed=0, temperature=0.6):
    return SamplingParams(temperature=temperature, seed=seed)


def attempt(task, backend, params, guidance=None):
    """The trajectory of one live attempt, run through scaffold_batch."""
    [traj] = scaffold_batch([(task, params, guidance)], backend)
    assert not traj.is_placeholder
    return traj


def test_scaffold_shape(one_task, backend):
    traj = attempt(one_task, backend, params())
    assert [s.role for s in traj.steps] == [LOC_STEP, REPAIR_STEP]
    assert traj.task_id == one_task.id
    assert traj.patch is not None
    line, cand = traj.patch.synth
    assert 0 <= line < one_task.n_lines and 0 <= cand < one_task.n_candidates
    assert traj.patch.rendering == f"({line}, {cand})"
    assert not traj.is_guided
    assert traj.traj_id == f"{one_task.id}/tabular/0/u"
    # the repair prompt committed to the localized statement
    assert f"You will repair statement {line}:" in traj.steps[1].prompt


def test_scaffold_deterministic(one_task, backend):
    a = attempt(one_task, backend, params(seed=5))
    b = attempt(one_task, backend, params(seed=5))
    assert trajectory_to_record(a) == trajectory_to_record(b)
    c = attempt(one_task, backend, params(seed=6))
    assert trajectory_to_record(c) != trajectory_to_record(a)


def test_loc_and_repair_seeds_independent(one_task, backend):
    """Across seeds, line and candidate draws must not be correlated."""
    pairs = [attempt(one_task, backend, params(seed=s)).patch.synth for s in range(300)]
    lines = np.array([p[0] for p in pairs], dtype=float)
    cands = np.array([p[1] for p in pairs], dtype=float)
    corr = np.corrcoef(lines, cands)[0, 1]
    assert abs(corr) < 0.15


def test_malformed_completion_is_empty_patch(one_task):
    scripted = ScriptedBackend(script=["gibberish", "more gibberish"])
    traj = attempt(one_task, scripted, params())
    assert traj.patch is None
    assert traj.steps[0].completion == "gibberish"
    # unparseable localization fell back to whole-workspace repair
    assert "consider the whole program" in traj.steps[1].prompt


def test_out_of_range_line_falls_back_to_whole_workspace(one_task):
    scripted = ScriptedBackend(
        script=["```\nLINE: 99\n```", "```\nLINE: 1\nCANDIDATE: 1\n```"]
    )
    traj = attempt(one_task, scripted, params())
    assert "consider the whole program" in traj.steps[1].prompt
    assert traj.patch.synth == (1, 1)


def test_whole_workspace_repair_needs_both_indices(one_task):
    scripted = ScriptedBackend(script=["nonsense", "```\nCANDIDATE: 1\n```"])
    traj = attempt(one_task, scripted, params())
    assert traj.patch is None


def test_out_of_range_candidate_is_empty_patch(one_task):
    scripted = ScriptedBackend(script=["```\nLINE: 0\n```", "```\nCANDIDATE: 99\n```"])
    traj = attempt(one_task, scripted, params())
    assert traj.patch is None


def test_guided_scaffold_follows_hint(one_task, backend):
    guidance = make_guidance(one_task)
    traj = attempt(one_task, backend, params(), guidance=guidance)
    assert traj.is_guided
    assert traj.guidance_id == "g-test"
    assert traj.traj_id.endswith("/g")
    assert HINT_DELIMITER in traj.steps[0].prompt
    # the tabular backend mechanizes hint-following: localization commits to
    # the hinted statement, so only the candidate draw remains random
    assert traj.patch is None or traj.patch.synth[0] == one_task.buggy_line
    assert f"LINE: {one_task.buggy_line}" in traj.steps[0].completion


def test_guidance_leak_blocked_in_eval_mode(one_task):
    # the leaking attempt comes second: no request is sent, not even the first attempt's
    scripted = ScriptedBackend(script=["```\nLINE: 0\n```"] * 4)
    attempts = [(one_task, params(), None), (one_task, params(), make_guidance(one_task))]
    with pytest.raises(GuidanceLeakError):
        scaffold_batch(attempts, scripted, eval_mode=True)
    assert scripted.prompts == []


def test_guidance_task_mismatch_rejected(small_suite):
    a, b = small_suite.tasks[0], small_suite.tasks[1]
    scripted = ScriptedBackend(script=["```\nLINE: 0\n```"] * 4)
    with pytest.raises(TaskFormatError):
        scaffold_batch([(a, params(), None), (a, params(), make_guidance(b))], scripted)
    assert scripted.prompts == []


def test_backend_retry_then_success(one_task):
    scripted = ScriptedBackend(
        script=[BackendError("x"), BackendError("x"), "```\nLINE: 0\n```", "```\nCANDIDATE: 0\n```"]
    )
    traj = attempt(one_task, scripted, params())
    assert traj.patch.synth == (0, 0)


def test_backend_exhausted_error_returned_by_index(one_task, caplog):
    # slot 0 localizes, slot 1 dies through all retries, then slot 0 repairs
    down = BackendError("down")
    scripted = ScriptedBackend(script=["```\nLINE: 0\n```", down, down, down, "```\nCANDIDATE: 0\n```"])
    with caplog.at_level(logging.WARNING, logger="rlvrloop.rollout"):
        out = scaffold_batch([(one_task, params(seed=0), None), (one_task, params(seed=1), None)], scripted)
    assert [r.getMessage() for r in caplog.records] == ["1 of 2 attempts died at the backend; the first: down"]
    assert out[0].patch.synth == (0, 0) and not out[0].is_placeholder
    assert out[1].is_placeholder and out[1].patch is None


def test_rollout_params_slot_zero_greedy():
    p0 = rollout_params(0, "t", 0)
    p1 = rollout_params(0, "t", 1)
    assert p0.temperature == TEMPERATURE_GREEDY
    assert p1.temperature == TEMPERATURE_SAMPLING
    assert p0.seed != p1.seed
    assert rollout_params(0, "t", 1) == p1
    assert rollout_params(0, "other", 1).seed != p1.seed
    assert rollout_params(1, "t", 1).seed != p1.seed


def test_sample_rollouts_exact_count(one_task, backend):
    batch = rollout_all_tasks([one_task], backend, 8, base_seed=0, workers=1)
    assert len(batch) == 8
    assert batch[0].sampling.temperature == TEMPERATURE_GREEDY
    assert all(t.sampling.temperature == TEMPERATURE_SAMPLING for t in batch[1:])
    assert len({t.traj_id for t in batch}) == 8
    assert all(not t.is_guided for t in batch)


def test_sample_rollouts_deterministic(one_task, backend):
    a = [trajectory_to_record(t) for t in rollout_all_tasks([one_task], backend, 6, base_seed=3, workers=1)]
    b = [trajectory_to_record(t) for t in rollout_all_tasks([one_task], backend, 6, base_seed=3, workers=1)]
    assert a == b


def test_sample_rollouts_pads_failed_slots(one_task):
    # slot 0 dies through all retries; slot 1 succeeds
    scripted = ScriptedBackend(
        script=[BackendError("down")] * 3 + ["```\nLINE: 0\n```", "```\nCANDIDATE: 1\n```"]
    )
    batch = rollout_all_tasks([one_task], scripted, 2, base_seed=0, workers=1)
    assert len(batch) == 2
    assert batch[0].patch is None and batch[0].steps[0].completion == ""
    assert batch[1].patch.synth == (0, 1)


def test_sample_rollouts_all_failed_are_placeholders(one_task):
    """A task whose every slot died still gets its n slots, each a placeholder; nothing raises."""
    scripted = ScriptedBackend(script=[BackendError("down")] * 6)
    batch = rollout_all_tasks([one_task], scripted, 2, base_seed=0, workers=1)
    assert len(batch) == 2 and all(t.is_placeholder and t.patch is None for t in batch)
    assert [t.sampling for t in batch] == [rollout_params(0, one_task.id, slot) for slot in range(2)]


def test_sample_rollouts_rejects_bad_n(one_task, backend):
    with pytest.raises(ValueError, match="rollout count must be >= 1, got 0"):
        rollout_all_tasks([one_task], backend, 0, base_seed=0, workers=1)


def test_trajectory_record_round_trip(one_task, backend):
    for guided in (False, True):
        guidance = make_guidance(one_task) if guided else None
        traj = attempt(one_task, backend, params(seed=2), guidance=guidance)
        assert trajectory_from_record(trajectory_to_record(traj)) == traj


def test_write_read_trajectories(tmp_path, one_task, backend):
    batch = rollout_all_tasks([one_task], backend, 4, base_seed=1, workers=1)
    path = tmp_path / "trajs.jsonl"
    assert write_trajectories(batch, path) == 4
    assert read_trajectories(path) == batch


# Characters JSON must escape: non-ASCII (inside and beyond the BMP), quotes, backslashes, controls.
ODD = 'é ünï "quoted" back\\slash \x00\x1f\x7f tab\t nl\n \u2028 \U0001f600'


def codec_corpus(small_suite, backend):
    """Trajectories of every shape the writer meets, tasks interleaved so each task's memo is rebuilt."""
    a, b = small_suite.tasks[0], small_suite.tasks[1]
    unguided = rollout_all_tasks([a, b], backend, 4, base_seed=7, workers=1)
    guided = [attempt(a, backend, params(seed=s), guidance=make_guidance(a)) for s in range(3)]
    dead = ScriptedBackend(script=[BackendError("down")] * 3)
    [placeholder] = scaffold_batch([(a, params(seed=9), None)], dead)
    assert placeholder.is_placeholder and placeholder.steps[-1].prompt == ""
    real = [
        Trajectory(
            task_id="real-" + ODD,
            steps=(Step(LOC_STEP, ODD, ODD), Step(REPAIR_STEP, ODD + "!", "")),
            patch=Patch(edits=(("app.py:1:2", ODD), ("b.py:0:0", "")), rendering=ODD, synth=synth),
            guidance_id=guidance_id,
            sampling=SamplingParams(temperature=temperature, seed=seed, max_tokens=max_tokens),
            backend_id=ODD,
            traj_id=f"real/{ODD}/{seed}",
        )
        for synth, guidance_id, temperature, seed, max_tokens in [
            (None, None, 0, 0, 1),
            ((), "g-" + ODD, 0.0, 2**63 - 1, 256),
            (None, None, 0.6, 2**64 + 1, 10**6),
            ((), None, 1, 10**30, 7),
            (None, "", float("inf"), 3, 256),
            (None, None, float("nan"), 3, 256),
        ]
    ]
    synth_patch_odd = Trajectory(a.id, unguided[0].steps, Patch(((ODD, ODD),), ODD, (0, 3)), None,
                                 SamplingParams(1e-300, 1), "tabular", "odd")
    return unguided[:4] + guided + [placeholder] + real[:3] + unguided[4:] + [synth_patch_odd] + real[3:] + unguided[:2]


def test_writer_matches_the_reference_encoder_line_for_line(tmp_path, small_suite, backend):
    corpus = codec_corpus(small_suite, backend)
    path = tmp_path / "trajs.jsonl"
    assert write_trajectories(corpus, path) == len(corpus)
    header, *lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert header == dumps({"schema": "trajectories", "schema_version": 1})
    assert lines == [dumps(trajectory_to_record(t)) for t in corpus]


def test_reader_decodes_each_record_and_shares_repeated_prompts(tmp_path, small_suite, backend):
    # a NaN temperature never equals itself, so it stays out of the equality checks
    corpus = [t for t in codec_corpus(small_suite, backend) if not math.isnan(t.sampling.temperature)]
    path = tmp_path / "trajs.jsonl"
    write_trajectories(corpus, path)
    back = read_trajectories(path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert back == [trajectory_from_record(rec) for rec in records]
    assert len(back) == len(corpus) and back[:8] == corpus[:8]
    # two slots of one task: one localization prompt object, and one repair prompt when they localized alike
    first, second = back[0], back[1]
    assert first.task_id == second.task_id and first.steps[0].prompt == second.steps[0].prompt
    assert first.steps[0].prompt is second.steps[0].prompt
    repeated = {}
    for traj in back:
        for step in traj.steps:
            assert repeated.setdefault(step.prompt, step.prompt) is step.prompt


def test_reader_names_the_line_of_a_record_without_sampling(tmp_path, one_task, backend):
    path = tmp_path / "trajs.jsonl"
    write_trajectories(rollout_all_tasks([one_task], backend, 3, base_seed=0, workers=1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[2])
    del rec["sampling"]
    lines[2] = dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TaskFormatError, match=r"trajs\.jsonl: line 3: missing field 'sampling'"):
        read_trajectories(path)


def test_one_phase_shares_one_patch_per_task_line_and_candidate(small_suite, backend):
    batch = rollout_all_tasks(small_suite, backend, 32, base_seed=4, workers=1)
    patches = {}
    for traj in batch:
        if traj.patch is not None:
            task = small_suite.by_id[traj.task_id]
            assert patches.setdefault((traj.task_id, traj.patch.synth), traj.patch) is traj.patch
            assert synth_patch(task, *traj.patch.synth) is traj.patch
    assert len(patches) < sum(traj.patch is not None for traj in batch)


def test_equal_tabular_completions_are_one_object(small_suite, backend):
    batch = rollout_all_tasks(small_suite, backend, 16, base_seed=5, workers=1)
    texts = {}
    for traj in batch:
        for step in traj.steps:
            assert texts.setdefault(step.completion, step.completion) is step.completion
    assert len(texts) < len(batch)


def test_guided_prompts_rendered_once_per_prompt_and_hint(small_suite, backend):
    a, b = small_suite.tasks[0], small_suite.tasks[1]
    hint_a, hint_b = make_guidance(a), make_guidance(b)
    attempts = [(task, params(seed=s), g) for s in range(3) for task, g in ((a, hint_a), (b, hint_b), (a, None))]
    out = scaffold_batch(attempts, backend)
    guided = [t.steps[0].prompt for t in out if t.is_guided]
    assert len(guided) == 6 and len({id(p) for p in guided}) == 2
    assert all(HINT_DELIMITER in p for p in guided)
    assert attempt(a, backend, params(seed=0), hint_a).steps[0].prompt == out[0].steps[0].prompt


def test_reader_shares_task_ids_and_completions(tmp_path, small_suite, backend):
    path = tmp_path / "trajs.jsonl"
    write_trajectories(rollout_all_tasks(small_suite, backend, 8, base_seed=6, workers=1), path)
    back = read_trajectories(path)
    one = {}
    for traj in back:
        assert one.setdefault(traj.task_id, traj.task_id) is traj.task_id
        assert one.setdefault(traj.backend_id, traj.backend_id) is traj.backend_id
        for step in traj.steps:
            assert one.setdefault(step.role, step.role) is step.role
            assert one.setdefault(step.completion, step.completion) is step.completion


def exchange_of(traj):
    """(localization prompt, localization completion, repair prompt, repair completion)."""
    return tuple(text for step in traj.steps for text in (step.prompt, step.completion))


@pytest.fixture(scope="module")
def repeated_exchanges():
    """8 tasks x 32 slots on a 3x3 grid under a uniform policy: many slots repeat an exchange."""
    suite = generate_synth_suite(8, 3, 3, seed=12)
    return rollout_all_tasks(suite, TabularPolicyBackend(TabularPolicy.uniform(suite)), 32, base_seed=7, workers=1)


def test_a_batch_shares_one_steps_tuple_per_distinct_exchange(repeated_exchanges):
    by_exchange = {}
    for traj in repeated_exchanges:
        assert by_exchange.setdefault(exchange_of(traj), traj.steps) is traj.steps
    assert len({id(traj.steps) for traj in repeated_exchanges}) == len(by_exchange) < len(repeated_exchanges) // 2


def test_dead_attempts_with_one_prompt_share_one_placeholder_pair(one_task):
    dead_backend = ScriptedBackend(script=[BackendError("down")] * 9)
    out = scaffold_batch([(one_task, params(seed=s), None) for s in range(3)], dead_backend)
    assert len(out) == 3 and all(traj.is_placeholder for traj in out)
    assert out[0].steps is out[1].steps is out[2].steps


def test_reader_shares_one_steps_tuple_per_distinct_pair(tmp_path, repeated_exchanges):
    path = tmp_path / "trajs.jsonl"
    write_trajectories(repeated_exchanges, path)
    back = read_trajectories(path)
    assert back == repeated_exchanges
    by_pair = {}
    for traj in back:
        assert by_pair.setdefault(traj.steps, traj.steps) is traj.steps
    assert len({id(traj.steps) for traj in back}) == len(by_pair) < len(back) // 2


def test_patches_of_two_tasks_share_their_labels(small_suite):
    a, b = small_suite.tasks[:2]
    for line in range(a.n_lines):
        for cand in range(a.n_candidates):
            pa, pb = synth_patch(a, line, cand), synth_patch(b, line, cand)
            assert pa is not pb and pa.edits[0][1] == a.candidates[line][cand]
            assert pa.rendering is pb.rendering and pa.synth is pb.synth and pa.edits[0][0] is pb.edits[0][0]
            assert (pa.edits[0][0], pa.rendering, pa.synth) == (f"line:{line}", f"({line}, {cand})", (line, cand))
    for task in (a, b):
        assert all(key is patch.synth for key, patch in task.patches.items())
