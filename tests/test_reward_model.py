"""Reward-model featurization, training, and best-of-k ranking."""
import json
import math

import numpy as np
import pytest

from rlvrloop.backends import TabularPolicyBackend
from rlvrloop.errors import CheckpointError, TrainingError
from rlvrloop.evaluator import RewardRecord
from rlvrloop.jsonl import SCHEMA_VERSION
from rlvrloop.loop import evaluate_trajectories, rollout_all_tasks
from rlvrloop.pairs import PairSide, PreferencePair, build_rlvr_dataset
from rlvrloop.policy import TabularPolicy
from rlvrloop.reward_model import (
    FEATURIZATION_VERSION,
    N_FEATURES,
    PairwiseRM,
    RMConfig,
    RMPairs,
    build_rm_training_pairs,
    featurize,
    rank_best_of_k,
    ranking_accuracy,
    rm_train,
)
from rlvrloop.rollout import Patch, synth_patch
from rlvrloop.tasks import EnvSpec, Task, TestSuite, enumerate_passing_patches, generate_synth_suite

LN2 = 0.6931471805599453


def patch_at(line, text):
    return Patch(edits=((f"line:{line}", text),), rendering=text, synth=(line, 0))


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------


def test_featurize_shape_and_determinism():
    patch = patch_at(3, "x1 = x0 + 2")
    a = featurize("statement 3 is wrong, should be `x1 = x0 + 2`", patch)
    b = featurize("statement 3 is wrong, should be `x1 = x0 + 2`", patch)
    assert a.shape == (N_FEATURES,)
    assert np.array_equal(a, b)


def test_featurize_empty_patch_indicator():
    for patch in (None, Patch(edits=(), rendering="")):
        f = featurize("anything", patch)
        assert f[0] == 1.0
        assert np.all(f[1:] == 0.0)


def test_featurize_hand_computed_values():
    patch = patch_at(3, "x1 = x0 + 2")
    f = featurize("statement 3 is wrong, should be `x1 = x0 + 2`", patch)
    assert f[0] == 0.0
    assert f[1] == 1.0  # one edit
    assert f[2] == len("x1 = x0 + 2") / 100.0
    assert f[3] == 3 / 10.0
    assert f[5] == 1.0  # edits the statement the issue names
    assert f[6] == 1.0  # replacement token set equals the quoted fix's
    assert f[7] == 1.0  # exact normalized quote match

    off_line = featurize("statement 3 is wrong, should be `x1 = x0 + 2`", patch_at(2, "x1 = x0 + 2"))
    assert off_line[5] == 0.0
    wrong_fix = featurize("statement 3 is wrong, should be `x1 = x0 + 2`", patch_at(3, "x1 = 9"))
    assert wrong_fix[7] == 0.0
    assert 0.0 <= wrong_fix[6] < 1.0


def test_featurize_without_hints_or_quotes():
    f = featurize("something is broken somewhere", patch_at(1, "y = 2"))
    assert f[5] == 0.0 and f[6] == 0.0 and f[7] == 0.0


# ---------------------------------------------------------------------------
# Loss and training
# ---------------------------------------------------------------------------


def rand_pairs(rng, n):
    """n (winner, loser) pairs of random feature vectors."""
    return RMPairs(rng.normal(size=(n, N_FEATURES)), rng.normal(size=(n, N_FEATURES)))


def test_rm_loss_at_zero_weights_is_ln2():
    history = []
    rm_train(rand_pairs(np.random.default_rng(3), 5), RMConfig(epochs=0), history_out=history)
    assert history == [{"epoch": 0, "loss": pytest.approx(LN2, abs=1e-15)}]


def test_rm_gradient_matches_finite_differences():
    # rm_train matches this loop oracle bit for bit (the stacked-vs-loop tests below)
    rng = np.random.default_rng(9)
    pairs = rand_pairs(rng, 6)
    for trial in range(5):
        w = rng.normal(size=N_FEATURES)
        _, grad = loop_rm_loss_and_grad(w, pairs)
        h = 1e-6
        numeric = np.zeros(N_FEATURES)
        for i in range(N_FEATURES):
            up, down = w.copy(), w.copy()
            up[i] += h
            down[i] -= h
            loss_up, loss_down = loop_rm_loss_and_grad(up, pairs)[0], loop_rm_loss_and_grad(down, pairs)[0]
            numeric[i] = (loss_up - loss_down) / (2 * h)
        assert np.max(np.abs(grad - numeric)) < 1e-6


def test_rm_train_requires_pairs():
    with pytest.raises(TrainingError, match="at least one"):
        rm_train(RMPairs(np.empty((0, N_FEATURES)), np.empty((0, N_FEATURES))))


def test_rm_train_degenerate_features_warns(caplog):
    with caplog.at_level("WARNING"):
        rm = rm_train(RMPairs(np.ones((2, N_FEATURES)), np.ones((2, N_FEATURES))))
    assert "identical features" in caplog.text
    assert np.all(rm.weights == 0.0)


# ---------------------------------------------------------------------------
# The stacked trainer against the per-pair loop it replaced
# ---------------------------------------------------------------------------


def loop_rm_loss_and_grad(weights, pairs):
    """Reference oracle: the per-pair loss/gradient loop, one pair at a time."""
    grad = np.zeros_like(weights)
    total = 0.0
    for winner, loser in zip(pairs.winners, pairs.losers):
        diff = winner - loser
        z = float(weights @ diff)
        total += float(np.logaddexp(0.0, -z))
        grad -= (1.0 / (1.0 + np.exp(z))) * diff
    return total / len(pairs), grad / len(pairs)


def loop_rm_train(pairs, config=RMConfig()):
    weights = np.zeros(N_FEATURES, dtype=np.float64)
    history = []
    for epoch in range(config.epochs):
        loss, grad = loop_rm_loss_and_grad(weights, pairs)
        history.append({"epoch": epoch, "loss": loss})
        weights = weights - config.learning_rate * grad
    history.append({"epoch": config.epochs, "loss": loop_rm_loss_and_grad(weights, pairs)[0]})
    return weights, history


def assert_trains_like_loop_oracle(pairs, config=RMConfig()):
    want_weights, want_history = loop_rm_train(pairs, config)
    history = []
    rm = rm_train(pairs, config, history_out=history)
    assert np.array_equal(rm.weights, want_weights)
    assert rm.weights.tobytes() == want_weights.tobytes()
    assert history == want_history


def pipeline_rm_pairs():
    suite = generate_synth_suite(8, 4, 4, seed=21)
    trajs, recs = scored_round(suite, 0)
    return build_rm_training_pairs(
        build_rlvr_dataset(trajs, recs, max_pairs_per_task=8).pairs, suite.by_id
    )


def test_stacked_rm_train_matches_loop_oracle_on_pipeline_pairs():
    pairs = pipeline_rm_pairs()
    assert len(pairs) > 10
    assert_trains_like_loop_oracle(pairs)
    first = RMPairs(pairs.winners[:1], pairs.losers[:1])
    assert_trains_like_loop_oracle(first, RMConfig(learning_rate=0.1, epochs=7))


def test_stacked_rm_train_matches_loop_oracle_with_empty_patch_sides(one_task):
    (fix_line, fix_cand), = enumerate_passing_patches(one_task)
    fix = patch_at(fix_line, one_task.candidates[fix_line][fix_cand])
    others = [
        patch_at(line, one_task.candidates[line][cand])
        for line in range(one_task.n_lines)
        for cand in range(one_task.n_candidates)
        if (line, cand) != (fix_line, fix_cand)
    ]
    empty = Patch(edits=(), rendering="")
    sides = [(fix, p) for p in others]
    sides += [(fix, None), (others[0], empty), (None, others[1]), (fix, fix)]
    winners, losers = (np.array([featurize(one_task.issue, p) for p in side]) for side in zip(*sides))
    assert_trains_like_loop_oracle(RMPairs(winners, losers))


# ---------------------------------------------------------------------------
# Separability on synthetic suites
# ---------------------------------------------------------------------------


def scored_round(suite, seed):
    backend = TabularPolicyBackend(TabularPolicy.uniform(suite))
    trajs = rollout_all_tasks(suite, backend, 8, seed, workers=1)
    recs = evaluate_trajectories(suite, trajs, workers=1)
    return trajs, recs


def test_rm_separates_held_out_synthetic_pairs():
    """Issue-grounded features generalize across disjoint task suites."""
    train_suite = generate_synth_suite(8, 4, 4, seed=21)
    held_suite = generate_synth_suite(4, 4, 4, seed=22)
    ttr, tre = scored_round(train_suite, 0)
    htr, hre = scored_round(held_suite, 1)
    train_pairs = build_rm_training_pairs(
        build_rlvr_dataset(ttr, tre, max_pairs_per_task=8).pairs, train_suite.by_id
    )
    held_pairs = build_rm_training_pairs(
        build_rlvr_dataset(htr, hre, max_pairs_per_task=8).pairs, held_suite.by_id
    )
    assert train_pairs and held_pairs
    history = []
    rm = rm_train(train_pairs, RMConfig(), history_out=history)
    assert history[-1]["loss"] < history[0]["loss"]
    assert ranking_accuracy(rm, train_pairs) == 1.0
    assert ranking_accuracy(rm, held_pairs) == 1.0

    # and the trained model picks a passing patch out of each solvable group
    rewards = {r.trajectory_ref: r.reward for r in hre if isinstance(r, RewardRecord)}
    checked = 0
    for task in held_suite:
        group = [t for t in htr if t.task_id == task.id]
        if not any(rewards[t.traj_id] == 1 for t in group):
            continue
        result = rank_best_of_k(rm, task.issue, [t.patch for t in group])
        assert rewards[group[result.selected_index].traj_id] == 1
        checked += 1
    assert checked >= 1


def test_rm_scores_true_fix_above_every_alternative(one_task):
    # Direct check on the full candidate grid, no sampling involved.
    suite = generate_synth_suite(8, 4, 4, seed=21)
    ttr, tre = scored_round(suite, 0)
    pairs = build_rm_training_pairs(
        build_rlvr_dataset(ttr, tre, max_pairs_per_task=8).pairs, suite.by_id
    )
    rm = rm_train(pairs)
    (fix_line, fix_cand), = enumerate_passing_patches(one_task)
    fix_score = rm.score(featurize(one_task.issue, synth_patch(one_task, fix_line, fix_cand)))
    for line in range(one_task.n_lines):
        for cand in range(one_task.n_candidates):
            if (line, cand) == (fix_line, fix_cand):
                continue
            other = rm.score(featurize(one_task.issue, synth_patch(one_task, line, cand)))
            assert fix_score > other


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def test_rank_best_of_k_argmax_and_ties():
    rm = PairwiseRM(weights=np.eye(N_FEATURES)[7])  # score = exact-quote feature
    issue = "fix `x = 1`"
    patches = [patch_at(0, "x = 2"), patch_at(0, "x = 1"), patch_at(1, "x = 1")]
    result = rank_best_of_k(rm, issue, patches)
    assert result.selected_index == 1
    assert result.scores[1] == 1.0 and result.scores[0] < 1.0

    tied = rank_best_of_k(rm, issue, [patch_at(0, "x = 1"), patch_at(1, "x = 1")])
    assert tied.selected_index == 0

    with pytest.raises(ValueError, match="empty"):
        rank_best_of_k(rm, issue, [])


def test_rank_invariant_to_positive_score_rescaling():
    rng = np.random.default_rng(4)
    w = rng.normal(size=N_FEATURES)
    patches = [patch_at(i, f"x{i} = {i}") for i in range(5)]
    base = rank_best_of_k(PairwiseRM(w), "fix `x2 = 2`", patches)
    scaled = rank_best_of_k(PairwiseRM(3.0 * w), "fix `x2 = 2`", patches)
    assert base.selected_index == scaled.selected_index


def test_rank_scores_equal_per_patch_scores(small_suite):
    rng = np.random.default_rng(5)
    rm = PairwiseRM(rng.normal(size=N_FEATURES))
    for task in small_suite:
        patches = [patch_at(line, task.candidates[line][cand])
                   for line in range(task.n_lines) for cand in range(task.n_candidates)]
        patches += [None, Patch(edits=(), rendering="")]
        result = rank_best_of_k(rm, task.issue, patches)
        assert result.scores == tuple(rm.score(featurize(task.issue, p)) for p in patches)


# ---------------------------------------------------------------------------
# Pair construction from datasets
# ---------------------------------------------------------------------------


def make_pref_pair(task, w_actions, l_actions):
    return PreferencePair(
        task_id=task.id,
        prompt="p",
        winner=PairSide("w", "rw", w_actions),
        loser=PairSide("l", "rl", l_actions),
        provenance="rollout_pair",
    )


def test_build_rm_training_pairs_rebuilds_patches(one_task):
    (fix_line, fix_cand), = enumerate_passing_patches(one_task)
    pair = make_pref_pair(one_task, (fix_line, fix_cand), (0, 0))
    pairs = build_rm_training_pairs([pair], {one_task.id: one_task})
    (winner,), (loser,) = pairs.winners, pairs.losers
    assert winner[7] == 1.0  # rebuilt patch is the quoted fix
    assert np.array_equal(winner, featurize(one_task.issue, synth_patch(one_task, fix_line, fix_cand)))
    assert np.array_equal(loser, featurize(one_task.issue, synth_patch(one_task, 0, 0)))

    missing = build_rm_training_pairs(
        [make_pref_pair(one_task, None, (0, 0))], {one_task.id: one_task}
    )
    assert missing.winners[0][0] == 1.0  # no actions means empty patch


def test_build_rm_training_pairs_skips_real_tasks(tmp_path):
    real = Task(
        id="r1",
        issue="x",
        workspace=str(tmp_path),
        env_spec=EnvSpec((), "true", 10.0, "process_sandbox"),
        tests=TestSuite(regression=("t",), focused=()),
        repo_name="r",
    )
    pair = PreferencePair("r1", "p", PairSide("w", "a", None), PairSide("l", "b", None), "rollout_pair")
    pairs = build_rm_training_pairs([pair], {"r1": real})
    assert not pairs and pairs.winners.shape == pairs.losers.shape == (0, N_FEATURES)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_rm_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    rm = PairwiseRM(weights=rng.normal(size=N_FEATURES))
    path = tmp_path / "rm.json"
    rm.save(path)
    back = PairwiseRM.load(path)
    assert np.array_equal(back.weights, rm.weights)


def test_rm_load_rejects_bad_checkpoints(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(CheckpointError, match="cannot read"):
        PairwiseRM.load(missing)

    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"schema": "other"}')
    with pytest.raises(CheckpointError, match="not a reward model"):
        PairwiseRM.load(wrong)

    stale = tmp_path / "stale.json"
    rm = PairwiseRM()
    rm.save(stale)
    rec = json.loads(stale.read_text())
    rec["featurization_version"] = FEATURIZATION_VERSION + 1
    stale.write_text(json.dumps(rec))
    with pytest.raises(CheckpointError, match="featurization version"):
        PairwiseRM.load(stale)


def test_rm_load_checks_the_schema_version(tmp_path):
    """A checkpoint from a newer schema fails to load; one written before the field existed loads."""
    path = tmp_path / "rm.json"
    PairwiseRM(weights=np.arange(N_FEATURES, dtype=np.float64)).save(path)
    rec = json.loads(path.read_text())
    rec["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(rec))
    with pytest.raises(CheckpointError, match="newer than supported"):
        PairwiseRM.load(path)
    del rec["schema_version"]
    path.write_text(json.dumps(rec))
    assert np.array_equal(PairwiseRM.load(path).weights, np.arange(N_FEATURES))
