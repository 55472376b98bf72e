import json

import numpy as np
import pytest

from rlvrloop.errors import CheckpointError, TrainingError
from rlvrloop.jsonl import SCHEMA_VERSION
from rlvrloop.policy import (
    ReferencePolicy,
    TabularPolicy,
    log_softmax,
    softmax,
)


def test_softmax_matches_direct_formula():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    expected = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(softmax(logits), expected)
    assert softmax(logits).sum() == pytest.approx(1.0)


def test_softmax_temperature_sharpens():
    logits = np.array([1.0, 0.0])
    hot = softmax(logits, temperature=2.0)
    cold = softmax(logits, temperature=0.5)
    assert cold[0] > hot[0]


def test_softmax_temperature_zero_is_argmax_lowest_index_tie():
    assert softmax(np.array([0.0, 1.0, 1.0]), temperature=0).tolist() == [0.0, 1.0, 0.0]
    assert softmax(np.zeros(3), temperature=0).tolist() == [1.0, 0.0, 0.0]


def test_softmax_negative_temperature_rejected():
    with pytest.raises(ValueError):
        softmax(np.zeros(2), temperature=-1)


def test_softmax_overflow_safe():
    p = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all() and p[0] == pytest.approx(1.0)


def test_log_softmax_consistent_with_softmax():
    logits = np.array([0.5, -0.5, 3.0])
    assert np.allclose(np.exp(log_softmax(logits)), softmax(logits))


def test_uniform_policy_shapes(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    assert set(policy.heads) == {t.id for t in small_suite}
    head = policy.head(small_suite.tasks[0].id)
    assert head.line_logits.shape == (4,)
    assert head.cand_logits.shape == (4, 4)
    assert not policy.fine_tuned


def test_uniform_logprob_is_analytic(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    tid = small_suite.tasks[0].id
    # uniform over 4 lines and 4 candidates: log(1/16)
    assert policy.logprob(tid, 2, 3) == pytest.approx(np.log(1 / 16))


def test_logprob_bounds_checked(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    tid = small_suite.tasks[0].id
    with pytest.raises(TrainingError):
        policy.logprob(tid, 4, 0)
    with pytest.raises(TrainingError):
        policy.logprob(tid, 0, -1)
    with pytest.raises(TrainingError):
        policy.logprob("no-such-task", 0, 0)


def test_theta_round_trip(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    theta = policy.theta()
    assert theta.shape == (len(small_suite) * (4 + 16),)
    new = theta + np.arange(theta.size)
    policy.set_theta(new)
    assert np.array_equal(policy.theta(), new)
    with pytest.raises(TrainingError, match="does not match"):
        policy.set_theta(np.zeros(theta.size + 1))


def test_set_theta_copies_input(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    theta = policy.theta() + 1.0
    policy.set_theta(theta)
    theta[0] = 99.0
    assert policy.theta()[0] == 1.0


def test_clone_is_independent(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    other = policy.clone()
    other.head(small_suite.tasks[0].id).line_logits[0] = 5.0
    assert policy.head(small_suite.tasks[0].id).line_logits[0] == 0.0
    assert policy.fingerprint() != other.fingerprint()


def test_fingerprint_stable_and_sensitive(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    f1 = policy.fingerprint()
    assert f1 == policy.fingerprint()
    policy.head(small_suite.tasks[0].id).cand_logits[0, 0] += 1e-12
    assert policy.fingerprint() != f1


def test_save_load_round_trip(tmp_path, small_suite):
    policy = TabularPolicy.uniform(small_suite)
    policy.head(small_suite.tasks[1].id).line_logits[2] = -0.75
    policy.fine_tuned = True
    path = tmp_path / "policy.json"
    policy.save(path, provenance={"phase": "test"})
    back = TabularPolicy.load(path)
    assert back.fine_tuned
    assert back.fingerprint() == policy.fingerprint()


def test_save_is_byte_deterministic(tmp_path, small_suite):
    policy = TabularPolicy.uniform(small_suite)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    policy.save(a, provenance={"phase": "x"})
    policy.save(b, provenance={"phase": "x"})
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text("{\"schema\": \"something_else\"}")
    with pytest.raises(CheckpointError):
        TabularPolicy.load(path)
    with pytest.raises(CheckpointError):
        TabularPolicy.load(tmp_path / "missing.json")


def test_load_checks_the_schema_version(tmp_path, small_suite):
    """A checkpoint from a newer schema fails to load; one written before the field existed loads."""
    path = tmp_path / "p.json"
    TabularPolicy.uniform(small_suite).save(path)
    rec = json.loads(path.read_text())
    rec["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(rec))
    with pytest.raises(CheckpointError, match="newer than supported"):
        TabularPolicy.load(path)
    del rec["schema_version"]
    path.write_text(json.dumps(rec))
    assert TabularPolicy.load(path).fingerprint() == TabularPolicy.uniform(small_suite).fingerprint()


@pytest.mark.parametrize("line_logits, cand_logits", [
    ([0.0, 0.0], [[0.0] * 3] * 3),  # two line logits beside three candidate rows
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),  # a 1-D candidate table
    ([[0.0, 0.0, 0.0]], [[0.0] * 3] * 3),  # 2-D line logits
])
def test_load_checks_head_shapes(tmp_path, line_logits, cand_logits):
    """Each head's line logits are 1-D of length L and its candidate logits 2-D with L rows."""
    path = tmp_path / "p.json"
    policy = TabularPolicy()
    policy.ensure_task("t-0", 3, 3)
    policy.save(path)
    rec = json.loads(path.read_text())
    rec["heads"]["t-0"] = {"line_logits": line_logits, "cand_logits": cand_logits}
    path.write_text(json.dumps(rec))
    with pytest.raises(CheckpointError, match=f"{path}: task t-0: "):
        TabularPolicy.load(path)


def test_reference_policy_is_frozen(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    ref = ReferencePolicy(policy)
    tid = small_suite.tasks[0].id

    # mutating the live policy does not move the reference
    actions = [(tid, line, cand) for line in range(4) for cand in range(4)]
    before = [ref.logprob(*action) for action in actions]
    policy.head(tid).line_logits[0] = 3.0
    policy.head(tid).cand_logits[1, 2] = -2.0
    assert ref.logprob(tid, 0, 0) == pytest.approx(np.log(1 / 16))
    assert [ref.logprob(*action) for action in actions] == before

    # the reference's own arrays refuse writes
    with pytest.raises(ValueError):
        ref._policy.head(tid).line_logits[0] = 1.0
