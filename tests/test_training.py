"""SFT and DPO trainers against frozen scalars and finite-difference oracles.

The analytic gradients are the load-bearing part of both trainers, so they
are checked here against central differences computed from the loss alone.
The packed trainers are also checked bit for bit against the per-pair loop
they replaced, kept below as the reference.
"""
import csv
import math

import numpy as np
import pytest

from rlvrloop.errors import TrainingDivergedError, TrainingError
from rlvrloop.pairs import PairSide, PreferencePair, SFTExample
from rlvrloop.policy import ReferencePolicy, TabularPolicy, softmax
from rlvrloop.tasks import generate_synth_suite
from rlvrloop.training import (
    DIVERGENCE_FACTOR,
    DPOConfig,
    dpo_loss,
    dpo_loss_and_grad,
    dpo_train,
    sft_train,
    write_history_csv,
)

LN2 = 0.6931471805599453


@pytest.fixture(scope="module")
def grid():
    return generate_synth_suite(2, 3, 3, seed=2)


def mk_pair(task_id, w, l):
    return PreferencePair(
        task_id=task_id,
        prompt="p",
        winner=PairSide("w-ref", "winner text", w),
        loser=PairSide("l-ref", "loser text", l),
        provenance="rollout_pair",
    )


def mk_example(task_id, actions):
    return SFTExample(task_id=task_id, prompt="p", target="t", actions=actions)


def fd_grad(loss_fn, policy, h=1e-5):
    """Central-difference gradient of loss_fn(policy) in flat theta space."""
    theta = policy.theta()
    out = np.zeros_like(theta)
    for i in range(theta.size):
        for sign in (1.0, -1.0):
            bumped = theta.copy()
            bumped[i] += sign * h
            policy.set_theta(bumped)
            out[i] += sign * loss_fn(policy)
    policy.set_theta(theta)
    return out / (2 * h)


def assert_grad_close(analytic, numeric, atol=1e-6, rtol=1e-4):
    assert np.max(np.abs(analytic - numeric)) < atol
    big = np.abs(numeric) > 1e-6
    if big.any():
        rel = np.abs(analytic[big] - numeric[big]) / np.abs(numeric[big])
        assert np.max(rel) < rtol


def random_actions(rng, task):
    return (int(rng.integers(task.n_lines)), int(rng.integers(task.n_candidates)))


# ---------------------------------------------------------------------------
# Frozen scalars
# ---------------------------------------------------------------------------


def test_dpo_loss_at_reference_is_ln2(grid):
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    pairs = [mk_pair(t.id, (0, 0), (1, 1)) for t in grid]
    assert dpo_loss(policy, ref, pairs, beta=0.1) == pytest.approx(LN2, abs=1e-15)
    history = []
    dpo_train(policy, pairs, DPOConfig(beta=0.1, epochs=0), reference=ref, history_out=history)
    (row,) = history
    assert row["loss"] == pytest.approx(LN2, abs=1e-15)
    assert row["margin"] == pytest.approx(0.0, abs=1e-15)


def test_dpo_loss_known_log_ratio_gap():
    # winner and loser on different lines, uniform candidate rows: the
    # log-ratio difference reduces to the line logit gap, here 2.0, and
    # -log sigmoid(0.1 * 2.0) = 0.5981388693815918
    suite = generate_synth_suite(1, 2, 2, seed=5)
    tid = suite.tasks[0].id
    policy = TabularPolicy.uniform(suite)
    ref = ReferencePolicy(policy)
    policy.head(tid).line_logits[0] = 2.0
    pair = mk_pair(tid, (0, 0), (1, 0))
    assert dpo_loss(policy, ref, [pair], beta=0.1) == pytest.approx(0.5981388693815918, abs=1e-12)


# ---------------------------------------------------------------------------
# Gradient oracles
# ---------------------------------------------------------------------------


def test_sft_gradient_matches_finite_differences(grid):
    # sft_train matches this loop oracle bit for bit (the packed-vs-loop tests below)
    rng = np.random.default_rng(7)
    policy = TabularPolicy.uniform(grid)
    examples = [mk_example(t.id, random_actions(rng, t)) for t in grid for _ in range(3)]
    for trial in range(5):
        policy.set_theta(rng.normal(scale=1.5, size=policy.theta().size))
        _, grad = loop_sft_loss_and_grad(policy, examples)
        numeric = fd_grad(lambda p: loop_sft_loss_and_grad(p, examples)[0], policy)
        assert_grad_close(grad, numeric)


def test_dpo_gradient_matches_finite_differences(grid):
    rng = np.random.default_rng(13)
    policy = TabularPolicy.uniform(grid)
    policy.set_theta(rng.normal(scale=1.0, size=policy.theta().size))
    ref = ReferencePolicy(policy)  # frozen away from uniform
    pairs = [
        mk_pair(t.id, random_actions(rng, t), random_actions(rng, t))
        for t in grid
        for _ in range(4)
    ]
    for trial in range(5):
        policy.set_theta(rng.normal(scale=1.5, size=policy.theta().size))
        loss, grad = dpo_loss_and_grad(policy, ref, pairs, beta=0.3)
        assert loss == pytest.approx(dpo_loss(policy, ref, pairs, beta=0.3), abs=1e-12)
        numeric = fd_grad(lambda p: dpo_loss(p, ref, pairs, beta=0.3), policy)
        assert_grad_close(grad, numeric)


def test_identical_winner_loser_gives_zero_gradient(grid):
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    pair = mk_pair(grid.tasks[0].id, (1, 2), (1, 2))
    loss, grad = dpo_loss_and_grad(policy, ref, [pair], beta=0.1)
    assert loss == pytest.approx(LN2, abs=1e-15)
    assert np.all(grad == 0.0)


def test_actions_out_of_table_rejected(grid):
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    with pytest.raises(TrainingError, match="outside policy table"):
        dpo_loss_and_grad(policy, ref, [mk_pair(grid.tasks[0].id, (99, 0), (0, 0))], beta=0.1)
    with pytest.raises(TrainingError, match="carries no"):
        sft_train(policy, [mk_example(grid.tasks[0].id, None)], DPOConfig())


# ---------------------------------------------------------------------------
# Training dynamics
# ---------------------------------------------------------------------------


def test_sft_loss_decreases_monotonically(grid):
    policy = TabularPolicy.uniform(grid)
    examples = [mk_example(t.id, (0, 1)) for t in grid]
    history = []
    sft_train(policy, examples, DPOConfig(epochs=50), history_out=history)
    losses = [row["loss"] for row in history]
    assert len(losses) == 51
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
    assert policy.fine_tuned


def test_sft_concentrates_on_single_example(grid):
    policy = TabularPolicy.uniform(grid)
    tid = grid.tasks[0].id
    sft_train(policy, [mk_example(tid, (1, 2))], DPOConfig(epochs=400, learning_rate=0.5))
    assert math.exp(policy.logprob(tid, 1, 2)) > 0.99


def test_dpo_raises_margin_and_lowers_loss(grid):
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    pairs = [mk_pair(t.id, (0, 0), (1, 1)) for t in grid]
    history = []
    dpo_train(policy, pairs, DPOConfig(epochs=200), reference=ref, history_out=history)
    assert history[0]["loss"] == pytest.approx(LN2, abs=1e-15)
    assert history[-1]["loss"] < 0.45
    assert history[0]["margin"] == pytest.approx(0.0, abs=1e-15)
    assert history[-1]["margin"] > 0.5
    for t in grid:
        assert policy.logprob(t.id, 0, 0) > ref.logprob(t.id, 0, 0)
        assert policy.logprob(t.id, 1, 1) < ref.logprob(t.id, 1, 1)


def test_dpo_divergence_guard(grid):
    tid = grid.tasks[0].id
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    policy.head(tid).cand_logits[0, 0] = 0.01
    # contradictory preferences have no finite optimum; a hot learning rate
    # oscillates with growing amplitude until the guard trips
    pairs = [mk_pair(tid, (0, 0), (0, 1)), mk_pair(tid, (0, 1), (0, 0))]
    with pytest.raises(TrainingDivergedError, match=f"{DIVERGENCE_FACTOR}x"):
        dpo_train(policy, pairs, DPOConfig(learning_rate=1e4, epochs=60), reference=ref)


def test_dpo_divergence_guard_checks_the_row_after_the_last_epoch(grid):
    """Three hot epochs stay under the guard, and the loss at the final theta trips it."""
    tid = grid.tasks[0].id
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    policy.head(tid).cand_logits[0, 0] = 0.01
    pairs = [mk_pair(tid, (0, 0), (0, 1)), mk_pair(tid, (0, 1), (0, 0))]
    history = []
    with pytest.raises(TrainingDivergedError, match="at epoch 3"):
        dpo_train(policy, pairs, DPOConfig(learning_rate=1e4, epochs=3), reference=ref, history_out=history)
    assert [row["epoch"] for row in history] == [0, 1, 2]
    assert max(row["loss"] for row in history) < DIVERGENCE_FACTOR * history[0]["loss"]


def test_reference_does_not_move_during_dpo(grid):
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    actions = [(t.id, line, cand) for t in grid for line in range(t.n_lines) for cand in range(t.n_candidates)]
    frozen = [ref.logprob(*action) for action in actions]
    pairs = [mk_pair(t.id, (0, 0), (1, 1)) for t in grid]
    dpo_train(policy, pairs, DPOConfig(epochs=50), reference=ref)
    assert [ref.logprob(*action) for action in actions] == frozen
    assert [policy.logprob(*action) for action in actions] != frozen


def test_training_is_bit_identical(grid):
    pairs = [mk_pair(t.id, (0, 0), (1, 1)) for t in grid]
    examples = [mk_example(t.id, (2, 0)) for t in grid]
    prints = []
    for _ in range(2):
        policy = TabularPolicy.uniform(grid)
        sft_train(policy, examples, DPOConfig(epochs=30))
        dpo_train(policy, pairs, DPOConfig(epochs=30))
        prints.append(policy.theta().tobytes())
    assert prints[0] == prints[1]


def test_empty_datasets_leave_policy_unchanged(grid, caplog):
    policy = TabularPolicy.uniform(grid)
    before = policy.theta().tobytes()
    with caplog.at_level("WARNING"):
        sft_train(policy, [], DPOConfig())
        dpo_train(policy, [], DPOConfig())
    assert policy.theta().tobytes() == before
    assert not policy.fine_tuned
    assert "no examples" in caplog.text
    assert "no pairs" in caplog.text


def test_dpo_loss_of_no_pairs_is_zero_with_a_zero_gradient(grid):
    policy = TabularPolicy.uniform(grid)
    policy.set_theta(np.arange(policy.theta().size, dtype=np.float64))
    loss, grad = dpo_loss_and_grad(policy, ReferencePolicy(TabularPolicy.uniform(grid)), [], beta=0.1)
    assert loss == 0.0 == dpo_loss(policy, ReferencePolicy(policy), [], beta=0.1)
    assert grad.tolist() == [0.0] * policy.theta().size


def test_config_validation():
    with pytest.raises(TrainingError, match="beta"):
        DPOConfig(beta=0.0)
    with pytest.raises(TrainingError, match="learning_rate"):
        DPOConfig(learning_rate=-1.0)
    with pytest.raises(TrainingError, match="epochs"):
        DPOConfig(epochs=-1)


# ---------------------------------------------------------------------------
# Reference oracle: the per-pair loops the packed trainers replaced
# ---------------------------------------------------------------------------


def loop_logprob_grad(policy, grad, task_id, actions, weight):
    """grad += weight * d log pi(line, cand | task) / d theta, in policy.theta() layout."""
    offset = 0
    for tid in policy.task_order():
        if tid == task_id:
            break
        offset += policy.heads[tid].line_logits.size + policy.heads[tid].cand_logits.size
    head = policy.head(task_id)
    line, cand = actions
    n_lines, n_cands = head.cand_logits.shape
    grad[offset : offset + n_lines] -= weight * softmax(head.line_logits)
    grad[offset + line] += weight
    row_at = offset + n_lines + line * n_cands
    grad[row_at : row_at + n_cands] -= weight * softmax(head.cand_logits[line])
    grad[row_at + cand] += weight


def loop_sft_loss_and_grad(policy, examples):
    grad = np.zeros_like(policy.theta())
    total = 0.0
    for ex in examples:
        total -= policy.logprob(ex.task_id, *ex.actions)
        loop_logprob_grad(policy, grad, ex.task_id, ex.actions, -1.0 / len(examples))
    return total / len(examples), grad


def loop_dpo_loss_grad_margin(policy, reference, pairs, beta):
    grad = np.zeros_like(policy.theta())
    total = 0.0
    margins = []
    for pair in pairs:
        w, l = pair.winner.actions, pair.loser.actions
        delta_policy = policy.logprob(pair.task_id, *w) - policy.logprob(pair.task_id, *l)
        delta_ref = reference.logprob(pair.task_id, *w) - reference.logprob(pair.task_id, *l)
        z = beta * (delta_policy - delta_ref)
        margins.append(z)
        total += float(np.logaddexp(0.0, -z))
        coeff = -float(1.0 / (1.0 + np.exp(z))) * beta / len(pairs)
        loop_logprob_grad(policy, grad, pair.task_id, w, coeff)
        loop_logprob_grad(policy, grad, pair.task_id, l, -coeff)
    return total / len(pairs), grad, float(np.mean(margins))


def loop_sft_train(policy, examples, config, history_out):
    theta = policy.theta()
    for epoch in range(config.epochs):
        loss, grad = loop_sft_loss_and_grad(policy, examples)
        history_out.append({"epoch": epoch, "loss": loss})
        theta = theta - config.learning_rate * grad
        policy.set_theta(theta)
    history_out.append({"epoch": config.epochs, "loss": loop_sft_loss_and_grad(policy, examples)[0]})
    policy.fine_tuned = True


def loop_dpo_train(policy, pairs, config, reference, history_out):
    theta = policy.theta()
    initial_loss = None
    for epoch in range(config.epochs):
        loss, grad, margin = loop_dpo_loss_grad_margin(policy, reference, pairs, config.beta)
        if initial_loss is None:
            initial_loss = loss
        if loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
            raise TrainingDivergedError(f"epoch {epoch}")
        history_out.append({"epoch": epoch, "loss": loss, "margin": margin})
        theta = theta - config.learning_rate * grad
        policy.set_theta(theta)
    loss, _, margin = loop_dpo_loss_grad_margin(policy, reference, pairs, config.beta)
    history_out.append({"epoch": config.epochs, "loss": loss, "margin": margin})


def train_packed_and_loop(policy, examples, pairs, sft, dpo, reference=None):
    """Train one clone of policy with the library and one with the oracle.

    Without a reference, each side freezes its own policy after SFT, as the
    loop does. Returns (policy, history rows, divergence raised) per side.
    """
    out = []
    for sft_fn, dpo_fn in ((sft_train, dpo_train), (loop_sft_train, loop_dpo_train)):
        trained = policy.clone()
        history = []
        if examples:
            sft_fn(trained, examples, sft, history_out=history)
        ref = reference if reference is not None else ReferencePolicy(trained)
        diverged = False
        try:
            dpo_fn(trained, pairs, dpo, reference=ref, history_out=history)
        except TrainingDivergedError:
            diverged = True
        out.append((trained, history, diverged))
    return out


def assert_bit_identical(packed, oracle):
    assert packed[0].theta().tobytes() == oracle[0].theta().tobytes()
    assert repr(packed[1]) == repr(oracle[1])
    assert packed[2] == oracle[2]


def random_pairs(rng, tasks, per_task):
    return [
        mk_pair(t.id, random_actions(rng, t), random_actions(rng, t))
        for t in tasks
        for _ in range(per_task)
    ]


def test_packed_training_matches_loop_oracle_on_uniform_grid(grid):
    rng = np.random.default_rng(31)
    examples = [mk_example(t.id, random_actions(rng, t)) for t in grid for _ in range(2)]
    pairs = random_pairs(rng, grid, 4)
    packed, oracle = train_packed_and_loop(
        TabularPolicy.uniform(grid), examples, pairs, DPOConfig(epochs=25), DPOConfig(epochs=40)
    )
    assert_bit_identical(packed, oracle)
    assert len(packed[1]) == 26 + 41


def test_packed_training_matches_loop_oracle_with_reference_off_uniform(grid):
    rng = np.random.default_rng(37)
    policy = TabularPolicy.uniform(grid)
    policy.set_theta(rng.normal(scale=1.0, size=policy.theta().size))
    ref = ReferencePolicy(policy)
    policy.set_theta(rng.normal(scale=1.5, size=policy.theta().size))
    pairs = random_pairs(rng, grid, 5)
    packed, oracle = train_packed_and_loop(
        policy, [], pairs, None, DPOConfig(beta=0.3, learning_rate=0.8, epochs=40), reference=ref
    )
    assert_bit_identical(packed, oracle)


def test_packed_training_matches_loop_oracle_on_mixed_shapes():
    # two (L, m) groups of two tasks each, plus heads no pair or example names
    rng = np.random.default_rng(41)
    policy = TabularPolicy()
    shapes = {"a0": (3, 4), "b0": (5, 2), "a1": (3, 4), "b1": (5, 2), "idle-a": (3, 4), "idle-c": (2, 6)}
    for tid, (n_lines, n_cands) in shapes.items():
        policy.ensure_task(tid, n_lines, n_cands)
    policy.set_theta(rng.normal(size=policy.theta().size))
    named = ["b1", "a0", "b0", "a1"]
    pairs = [
        mk_pair(tid, *[(int(rng.integers(shapes[tid][0])), int(rng.integers(shapes[tid][1]))) for _ in range(2)])
        for tid in named * 3
    ]
    examples = [mk_example(p.task_id, p.winner.actions) for p in pairs[:6]]
    ref = ReferencePolicy(policy)

    assert np.array_equal(
        dpo_loss_and_grad(policy, ref, pairs, 0.2)[1], loop_dpo_loss_grad_margin(policy, ref, pairs, 0.2)[1]
    )

    packed, oracle = train_packed_and_loop(policy, examples, pairs, DPOConfig(epochs=20), DPOConfig(epochs=30))
    assert_bit_identical(packed, oracle)
    for tid in ("idle-a", "idle-c"):
        assert np.array_equal(packed[0].heads[tid].line_logits, policy.heads[tid].line_logits)
        assert np.array_equal(packed[0].heads[tid].cand_logits, policy.heads[tid].cand_logits)
    assert packed[0].heads["a0"].line_logits.shape == (3,)
    assert packed[0].heads["b1"].cand_logits.shape == (5, 2)


def test_divergence_leaves_policy_where_the_loop_oracle_leaves_it(grid):
    tid = grid.tasks[0].id
    policy = TabularPolicy.uniform(grid)
    ref = ReferencePolicy(policy)
    policy.head(tid).cand_logits[0, 0] = 0.01
    pairs = [mk_pair(tid, (0, 0), (0, 1)), mk_pair(tid, (0, 1), (0, 0))]
    packed, oracle = train_packed_and_loop(
        policy, [], pairs, None, DPOConfig(learning_rate=1e4, epochs=60), reference=ref
    )
    assert packed[2] and oracle[2]
    assert_bit_identical(packed, oracle)
    assert len(packed[1]) > 1  # the guard tripped after some updates had landed
    assert packed[0].theta().tobytes() != policy.theta().tobytes()


# ---------------------------------------------------------------------------
# History files
# ---------------------------------------------------------------------------


def test_history_csv_round_trip(tmp_path):
    history = [
        {"epoch": 0, "loss": 0.6931471805599453, "margin": 0.0},
        {"epoch": 1, "loss": 0.5, "margin": 0.25},
    ]
    path = tmp_path / "log.csv"
    write_history_csv(history, path)
    write_history_csv(history, tmp_path / "log2.csv")
    assert path.read_bytes() == (tmp_path / "log2.csv").read_bytes()

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["loss"] == repr(0.6931471805599453)
    assert float(rows[1]["margin"]) == 0.25

    write_history_csv([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == ""
