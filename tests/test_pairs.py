"""Pair assembly, SFT sampling, accounting, and dataset serialization."""
import json
import math

import pytest

from rlvrloop.backends import SamplingParams, TabularPolicyBackend
from rlvrloop.errors import AssemblyError, TaskFormatError
from rlvrloop.evaluator import RewardRecord
from rlvrloop.guidance import Guidance
from rlvrloop.loop import (
    evaluate_trajectories,
    guide_failures,
    reattempt_with_guidance,
    rollout_all_tasks,
)
from rlvrloop.pairs import (
    PROVENANCE_GUIDED,
    PROVENANCE_ROLLOUT,
    assemble_guided_pair,
    assemble_rollout_pairs,
    build_rlvr_dataset,
    emit_dataset,
    load_dataset,
    sample_sft_subset,
)
from rlvrloop.policy import TabularPolicy
from rlvrloop.prompts import HINT_DELIMITER, render_reattempt_prompt
from rlvrloop.rollout import Patch, Step, Trajectory


def mk_traj(task_id, ref, response, prompt=None, guidance_id=None):
    prompt = prompt if prompt is not None else f"PROMPT({task_id})"
    return Trajectory(
        task_id=task_id,
        steps=(
            Step(prompt, "LINE: 0"),
            Step("repair prompt", response),
        ),
        patch=Patch(edits=(("line:0", "x0 = 1"),), rendering=response, synth=(0, 1)),
        guidance_id=guidance_id,
        sampling=SamplingParams(temperature=0.6, seed=0),
        traj_id=ref,
    )


def mk_rec(ref, reward, task_id="t1"):
    return RewardRecord(
        task_id=task_id,
        trajectory_ref=ref,
        reward=reward,
        per_test={},
        empty_patch=False,
        stacktrace=None,
        wall_time_s=0.0,
    )


def mk_guidance(task_id, source_ref):
    return Guidance(
        guidance_id=f"g-{source_ref}",
        task_id=task_id,
        source_trajectory_ref=source_ref,
        plan="fix the bad statement",
        env_feedback="output mismatched",
        env_interaction="look at line 0",
        teacher_id="scripted",
    )


# ---------------------------------------------------------------------------
# Rollout pairs
# ---------------------------------------------------------------------------


def test_single_success_single_failure():
    trajs = [mk_traj("t1", "a", "good"), mk_traj("t1", "b", "bad")]
    recs = [mk_rec("a", 1), mk_rec("b", 0)]
    pairs, stats = assemble_rollout_pairs(trajs, recs)
    assert len(pairs) == 1
    pair = pairs[0]
    assert (pair.winner.trajectory_ref, pair.loser.trajectory_ref) == ("a", "b")
    assert pair.provenance == PROVENANCE_ROLLOUT
    assert pair.prompt == "PROMPT(t1)"
    assert pair.winner.response == "LINE: 0\ngood"
    assert stats == {
        "dropped_identical_responses": 0,
        "dropped_duplicate_pairs": 0,
        "skipped_unscored": 0,
    }


def test_round_robin_matching_order():
    # 2 positives x 2 negatives, hand traced: round 0 gives (p0,n0),(p1,n1);
    # round 1 gives (p0,n1),(p1,n0)
    trajs = [
        mk_traj("t1", "p0", "w0"),
        mk_traj("t1", "p1", "w1"),
        mk_traj("t1", "n0", "l0"),
        mk_traj("t1", "n1", "l1"),
    ]
    recs = [mk_rec("p0", 1), mk_rec("p1", 1), mk_rec("n0", 0), mk_rec("n1", 0)]
    pairs, _ = assemble_rollout_pairs(trajs, recs, max_pairs_per_task=4)
    keys = [(p.winner.trajectory_ref, p.loser.trajectory_ref) for p in pairs]
    assert keys == [("p0", "n0"), ("p1", "n1"), ("p0", "n1"), ("p1", "n0")]

    capped, _ = assemble_rollout_pairs(trajs, recs, max_pairs_per_task=3)
    assert [(p.winner.trajectory_ref, p.loser.trajectory_ref) for p in capped] == keys[:3]


def test_cap_applies_per_task_not_globally():
    trajs, recs = [], []
    for tid in ("t1", "t2"):
        trajs += [mk_traj(tid, f"{tid}-p", "w"), mk_traj(tid, f"{tid}-n", "l")]
        recs += [mk_rec(f"{tid}-p", 1, tid), mk_rec(f"{tid}-n", 0, tid)]
    pairs, _ = assemble_rollout_pairs(trajs, recs, max_pairs_per_task=1)
    assert len(pairs) == 2
    assert {p.task_id for p in pairs} == {"t1", "t2"}


def test_identical_responses_dropped():
    trajs = [mk_traj("t1", "a", "same"), mk_traj("t1", "b", "same")]
    recs = [mk_rec("a", 1), mk_rec("b", 0)]
    pairs, stats = assemble_rollout_pairs(trajs, recs)
    assert pairs == []
    assert stats["dropped_identical_responses"] == 1


def test_unscored_trajectories_skipped():
    trajs = [mk_traj("t1", "a", "w"), mk_traj("t1", "b", "l"), mk_traj("t1", "c", "?")]
    recs = [mk_rec("a", 1), mk_rec("b", 0)]
    pairs, stats = assemble_rollout_pairs(trajs, recs)
    assert len(pairs) == 1
    assert stats["skipped_unscored"] == 1


def test_all_pass_or_all_fail_yields_nothing():
    trajs = [mk_traj("t1", "a", "x"), mk_traj("t1", "b", "y")]
    for rewards in ((1, 1), (0, 0)):
        recs = [mk_rec("a", rewards[0]), mk_rec("b", rewards[1])]
        pairs, _ = assemble_rollout_pairs(trajs, recs)
        assert pairs == []


def test_guided_trajectory_rejected_by_rollout_pairing():
    trajs = [mk_traj("t1", "a", "w", guidance_id="g-1")]
    with pytest.raises(AssemblyError, match="guided trajectory"):
        assemble_rollout_pairs(trajs, [mk_rec("a", 1)])


def test_prompt_mismatch_is_an_error():
    trajs = [mk_traj("t1", "a", "w", prompt="P1"), mk_traj("t1", "b", "l", prompt="P2")]
    recs = [mk_rec("a", 1), mk_rec("b", 0)]
    with pytest.raises(AssemblyError, match="prompts differ"):
        assemble_rollout_pairs(trajs, recs)


# ---------------------------------------------------------------------------
# Guided repair pairs
# ---------------------------------------------------------------------------


@pytest.fixture
def guided_setup():
    loser = mk_traj("t1", "t1/x/0/u", "wrong answer")
    guidance = mk_guidance("t1", loser.traj_id)
    guided_prompt = render_reattempt_prompt(loser.steps[0].prompt, guidance.hint_text())
    winner = mk_traj(
        "t1", "t1/x/9/g", "right answer", prompt=guided_prompt, guidance_id=guidance.guidance_id
    )
    return loser, mk_rec(loser.traj_id, 0), winner, mk_rec(winner.traj_id, 1), guidance


def test_guided_pair_strips_hint_from_prompt(guided_setup):
    loser, lrec, winner, wrec, _ = guided_setup
    pair = assemble_guided_pair(loser, lrec, winner, wrec)
    assert pair.provenance == PROVENANCE_GUIDED
    assert pair.prompt == loser.steps[0].prompt
    assert HINT_DELIMITER not in pair.prompt
    assert pair.winner.trajectory_ref == winner.traj_id
    assert pair.loser.trajectory_ref == loser.traj_id


def test_guided_pair_rejects_hint_leak_in_winner(guided_setup):
    loser, lrec, winner, wrec, guidance = guided_setup
    leaky = mk_traj(
        "t1",
        winner.traj_id,
        f"{HINT_DELIMITER}\nstolen hint",
        prompt=winner.steps[0].prompt,
        guidance_id=guidance.guidance_id,
    )
    with pytest.raises(AssemblyError, match="leaks the hint block"):
        assemble_guided_pair(loser, lrec, leaky, wrec)


def test_guided_pair_validates_roles_and_rewards(guided_setup):
    loser, lrec, winner, wrec, guidance = guided_setup
    with pytest.raises(AssemblyError, match="rewards"):
        assemble_guided_pair(loser, mk_rec(loser.traj_id, 1), winner, wrec)
    with pytest.raises(AssemblyError, match="rewards"):
        assemble_guided_pair(loser, lrec, winner, mk_rec(winner.traj_id, 0))
    with pytest.raises(AssemblyError, match="not a guided trajectory"):
        assemble_guided_pair(loser, lrec, mk_traj("t1", "w2", "r"), wrec)
    guided_loser = mk_traj("t1", loser.traj_id, "wrong", guidance_id="g-z")
    with pytest.raises(AssemblyError, match="unguided failure"):
        assemble_guided_pair(guided_loser, lrec, winner, wrec)
    other = mk_traj("t2", "t2/x/0/u", "wrong")
    with pytest.raises(AssemblyError, match="two different tasks"):
        assemble_guided_pair(other, mk_rec(other.traj_id, 0, "t2"), winner, wrec)


def test_guided_pair_stripped_prompt_must_match_loser(guided_setup):
    loser, lrec, winner, wrec, _ = guided_setup
    drifted = mk_traj("t1", loser.traj_id, "wrong answer", prompt="some other prompt")
    with pytest.raises(AssemblyError, match="does not match"):
        assemble_guided_pair(drifted, lrec, winner, wrec)


# ---------------------------------------------------------------------------
# SFT subset
# ---------------------------------------------------------------------------


def test_sft_subset_takes_ceil_per_task():
    trajs = [mk_traj("t1", f"a{i}", f"r{i}") for i in range(5)]
    trajs += [mk_traj("t2", f"b{i}", f"r{i}") for i in range(3)]
    out = sample_sft_subset(trajs, fraction=0.2, seed=0)
    by_task = {}
    for ex in out:
        by_task[ex.task_id] = by_task.get(ex.task_id, 0) + 1
    # ceil(0.2*5)=1, ceil(0.2*3)=1
    assert by_task == {"t1": 1, "t2": 1}

    half = sample_sft_subset([t for t in trajs if t.task_id == "t1"], fraction=0.5, seed=0)
    assert len(half) == math.ceil(0.5 * 5) == 3


def test_sft_subset_fraction_edges():
    trajs = [mk_traj("t1", f"a{i}", f"r{i}") for i in range(4)]
    assert sample_sft_subset(trajs, fraction=0.0, seed=0) == []
    full = sample_sft_subset(trajs, fraction=1.0, seed=0)
    assert [ex.target for ex in full] == [t.response_text() for t in trajs]
    with pytest.raises(AssemblyError, match="fraction"):
        sample_sft_subset(trajs, fraction=1.5)


def test_sft_subset_deterministic_and_seed_sensitive():
    trajs = [mk_traj("t1", f"a{i}", f"r{i}") for i in range(20)]
    one = sample_sft_subset(trajs, fraction=0.2, seed=5)
    two = sample_sft_subset(trajs, fraction=0.2, seed=5)
    assert one == two
    picks = {tuple(ex.target for ex in sample_sft_subset(trajs, 0.2, seed=s)) for s in range(6)}
    assert len(picks) > 1


def test_sft_subset_empty_warns(caplog):
    with caplog.at_level("WARNING"):
        assert sample_sft_subset([], fraction=0.2) == []
    assert "zero positive" in caplog.text


def test_sft_subset_rejects_guided():
    with pytest.raises(AssemblyError, match="guided"):
        sample_sft_subset([mk_traj("t1", "a", "r", guidance_id="g-1")])


# ---------------------------------------------------------------------------
# Full build
# ---------------------------------------------------------------------------


def build_scored_round(suite, n=8, seed=0):
    policy = TabularPolicy.uniform(suite)
    backend = TabularPolicyBackend(policy)
    trajs = rollout_all_tasks(suite, backend, n, seed, workers=1)
    recs = evaluate_trajectories(suite, trajs, workers=1)
    guidance = guide_failures(suite, trajs, recs, None)
    gtrajs = reattempt_with_guidance(suite, guidance, backend, seed, workers=1)
    grecs = evaluate_trajectories(suite, gtrajs, workers=1)
    return trajs, recs, gtrajs, grecs, guidance


def test_build_rlvr_dataset_end_to_end(small_suite):
    trajs, recs, gtrajs, grecs, guidance = build_scored_round(small_suite)
    ds = build_rlvr_dataset(trajs, recs, gtrajs, grecs, guidance)

    # counts frozen from the deterministic pipeline on this suite and seed
    assert ds.accounting["rollout_pairs"] == 16
    assert ds.accounting["guided_repair_pairs"] == 13
    assert ds.accounting["pairs_total"] == 29 == len(ds.pairs)
    assert ds.accounting["positives_total"] == 4
    assert ds.accounting["negatives_total"] == 44
    assert ds.accounting["guided_successes"] == 13
    assert ds.accounting["skipped_guided_no_failure"] == 0
    assert ds.accounting["sft_examples"] == len(ds.sft) == 4

    rewards = {r.trajectory_ref: r.reward for r in recs}
    rewards |= {r.trajectory_ref: r.reward for r in grecs}
    unguided_prompt = {t.traj_id: t.steps[0].prompt for t in trajs}
    for pair in ds.pairs:
        assert rewards[pair.winner.trajectory_ref] == 1
        assert rewards[pair.loser.trajectory_ref] == 0
        assert HINT_DELIMITER not in pair.prompt
        assert HINT_DELIMITER not in pair.winner.response
        assert pair.prompt == unguided_prompt[pair.loser.trajectory_ref]
        if pair.provenance == PROVENANCE_GUIDED:
            assert pair.winner.trajectory_ref.endswith("/g")
    keys = [(p.winner.trajectory_ref, p.loser.trajectory_ref) for p in ds.pairs]
    assert len(keys) == len(set(keys))

    for ex in ds.sft:
        assert rewards[ds_ref_for(ex, trajs)] == 1


def ds_ref_for(example, trajs):
    for t in trajs:
        if t.task_id == example.task_id and t.response_text() == example.target:
            return t.traj_id
    raise AssertionError(f"sft example for {example.task_id} matches no trajectory")


def test_guided_success_without_failure_is_skipped(guided_setup):
    loser, lrec, winner, wrec, guidance = guided_setup
    # the source failure never shows up in the unguided round
    ds = build_rlvr_dataset([], [], [winner], [wrec], [guidance])
    assert ds.pairs == ()
    assert ds.accounting["skipped_guided_no_failure"] == 1


def test_duplicate_guided_listing_is_dropped(guided_setup):
    loser, lrec, winner, wrec, guidance = guided_setup
    ds = build_rlvr_dataset([loser], [lrec], [winner, winner], [wrec], [guidance])
    assert ds.accounting["guided_repair_pairs"] == 1
    assert ds.accounting["dropped_duplicate_pairs"] == 1


def test_include_guided_in_sft_ablation(guided_setup):
    """The arm adds the reward-1 guided trajectories to the SFT set, and no failed one."""
    loser, lrec, winner, wrec, guidance = guided_setup
    failed = mk_traj("t1", "t1/x/8/g", "still wrong", prompt=winner.steps[0].prompt, guidance_id=guidance.guidance_id)
    ds = build_rlvr_dataset(
        [loser], [lrec], [winner, failed], [wrec, mk_rec(failed.traj_id, 0)], [guidance],
        sft_fraction=1.0, include_guided_in_sft=True,
    )
    assert [ex.target for ex in ds.sft] == [winner.response_text()]
    assert HINT_DELIMITER in ds.sft[0].prompt

    default = build_rlvr_dataset([loser], [lrec], [winner], [wrec], [guidance], sft_fraction=1.0)
    assert default.sft == ()


# ---------------------------------------------------------------------------
# Serialization and audit
# ---------------------------------------------------------------------------


def test_emit_load_round_trip(small_suite, tmp_path):
    trajs, recs, gtrajs, grecs, guidance = build_scored_round(small_suite)
    ds = build_rlvr_dataset(trajs, recs, gtrajs, grecs, guidance)
    path = tmp_path / "dataset.jsonl"
    emit_dataset(ds, path)
    assert load_dataset(path) == ds

    emit_dataset(ds, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_load_audits_accounting(tmp_path, guided_setup):
    loser, lrec, winner, wrec, guidance = guided_setup
    ds = build_rlvr_dataset([loser], [lrec], [winner], [wrec], [guidance])
    path = tmp_path / "dataset.jsonl"
    emit_dataset(ds, path)

    lines = path.read_text().splitlines()
    header = json.loads(lines[1])
    assert header["record"] == "accounting"
    header["pairs_total"] += 1
    lines[1] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TaskFormatError, match="accounting mismatch for pairs_total"):
        load_dataset(path)


def test_load_rejects_unknown_record_kind(tmp_path, guided_setup):
    loser, lrec, winner, wrec, guidance = guided_setup
    ds = build_rlvr_dataset([loser], [lrec], [winner], [wrec], [guidance])
    path = tmp_path / "dataset.jsonl"
    emit_dataset(ds, path)
    with path.open("a") as fh:
        fh.write('{"record":"mystery"}\n')
    with pytest.raises(TaskFormatError, match="unknown record kind"):
        load_dataset(path)
