"""pass@k against brute-force subset enumeration, plus report aggregation."""
import itertools
import json
import math

import numpy as np
import pytest

from rlvrloop.backends import SamplingParams
from rlvrloop.evaluator import EvaluationFailure, RewardRecord
from rlvrloop.jsonl import derive_seed
from rlvrloop.metrics import (
    BOOTSTRAP_RESAMPLES,
    DEFAULT_KS,
    EvalReport,
    aggregate,
    bootstrap_std,
    guidance_uplift_report,
    pass_at_k,
    render_report_text,
    resample_indices,
)
from rlvrloop.rollout import (
    Patch,
    Step,
    TEMPERATURE_GREEDY,
    TEMPERATURE_SAMPLING,
    Trajectory,
)


def pass_at_k_oracle(n, c, k):
    """Average over every size-k subset of outcomes; the estimator's ground truth."""
    outcomes = [1] * c + [0] * (n - c)
    subsets = list(itertools.combinations(range(n), k))
    return sum(1 for s in subsets if any(outcomes[i] for i in s)) / len(subsets)


def mk_traj(task_id, ref, temperature):
    return Trajectory(
        task_id=task_id,
        steps=(Step("localization", "p", "c"), Step("repair", "p", "c")),
        patch=Patch(edits=(("line:0", "x = 1"),), rendering="r", synth=(0, 0)),
        guidance_id=None,
        sampling=SamplingParams(temperature=temperature, seed=0),
        backend_id="x",
        traj_id=ref,
    )


def mk_rec(task_id, ref, reward, empty_patch=False):
    return RewardRecord(
        task_id=task_id,
        trajectory_ref=ref,
        reward=reward,
        per_test={},
        empty_patch=empty_patch,
        stacktrace=None,
        wall_time_s=0.0,
    )


def scored_task(task_id, rewards, start_greedy=True):
    """One task's trajectories and records; slot 0 greedy when asked."""
    trajs, recs = [], []
    for slot, reward in enumerate(rewards):
        temp = TEMPERATURE_GREEDY if slot == 0 and start_greedy else TEMPERATURE_SAMPLING
        ref = f"{task_id}/x/{slot}/u"
        trajs.append(mk_traj(task_id, ref, temp))
        recs.append(mk_rec(task_id, ref, reward))
    return trajs, recs


# ---------------------------------------------------------------------------
# pass@k
# ---------------------------------------------------------------------------


def test_pass_at_k_matches_enumeration_exhaustively():
    for n in range(1, 9):
        for c in range(n + 1):
            for k in range(1, n + 1):
                assert abs(pass_at_k(n, c, k) - pass_at_k_oracle(n, c, k)) < 1e-12, (n, c, k)


def test_pass_at_k_frozen_values():
    # 1 - C(2,2)/C(4,2) = 1 - 1/6
    assert pass_at_k(4, 2, 2) == pytest.approx(5 / 6, abs=1e-15)
    # 1 - C(7,1)/C(10,1)
    assert pass_at_k(10, 3, 1) == pytest.approx(0.3, abs=1e-15)
    assert pass_at_k(16, 0, 8) == 0.0
    assert pass_at_k(16, 16, 1) == 1.0
    assert pass_at_k(16, 1, 16) == 1.0  # n - c < k forces a success into every subset


def test_pass_at_k_validation():
    for n, c, k in ((0, 0, 1), (4, -1, 1), (4, 5, 1), (4, 2, 0), (4, 2, 5)):
        with pytest.raises(ValueError):
            pass_at_k(n, c, k)


def test_pass_at_k_monotone_in_k():
    for n, c in ((8, 3), (6, 1), (7, 7)):
        vals = [pass_at_k(n, c, k) for k in range(1, n + 1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_std_deterministic_and_sane():
    values = [0.0, 1.0, 1.0, 0.0, 1.0]
    a = bootstrap_std(values, seed=3)
    assert a == bootstrap_std(values, seed=3)
    assert a != bootstrap_std(values, seed=4)
    # analytic std of the mean is sqrt(p(1-p)/n) ~ 0.219; bootstrap should land near it
    assert abs(a - math.sqrt(0.6 * 0.4 / 5)) < 0.05
    assert bootstrap_std([1.0, 1.0, 1.0]) == 0.0
    assert bootstrap_std([]) == 0.0


def splitmix64_index(state, n, k):
    """Entry k (1-based, row-major) of the index matrix, in Python integers: SplitMix64's k-th output
    from state, (z >> 32) * n >> 32."""
    z = (state + k * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return ((z ^ z >> 31) >> 32) * n >> 32


def reference_bootstrap_std(values, seed):
    """The whole-matrix formula: the rule's (BOOTSTRAP_RESAMPLES, n) indices at once, then every resample's mean."""
    arr = np.asarray(values, dtype=np.float64)
    state, k = derive_seed("bootstrap", seed, BOOTSTRAP_RESAMPLES), np.arange(1, BOOTSTRAP_RESAMPLES * arr.size + 1)
    z = np.uint64(state) + k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ z >> np.uint64(shift)) * np.uint64(mult)
    z ^= z >> np.uint64(31)
    idx = ((z >> np.uint64(32)) * np.uint64(arr.size) >> np.uint64(32)).astype(np.int64)
    return float(arr[idx.reshape(BOOTSTRAP_RESAMPLES, arr.size)].mean(axis=1).std())


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 127, 128, 255, 256, 1000])
def test_bootstrap_std_matches_the_whole_matrix_formula_bit_for_bit(n):
    for seed in range(5):
        values = np.random.default_rng([n, seed]).random(n)
        for sample in (values, (values < 0.4).astype(float)):
            assert bootstrap_std(sample, seed=seed) == reference_bootstrap_std(sample, seed)


@pytest.mark.parametrize(
    "state, n, first",
    [
        (0, 1, [0]),
        (0, 7, [6, 3, 0, 6, 0, 2, 1]),
        (0, 64, [56, 27, 1, 62, 6, 20, 11, 49]),
        (2**63 - 1, 1, [0]),
        (2**63 - 1, 7, [1, 6, 6, 0, 2, 0, 1]),
        (2**63 - 1, 64, [10, 60, 59, 8, 20, 7, 11, 35]),
    ],
)
def test_resample_indices_are_pinned_splitmix64_draws(state, n, first):
    """Literal pins, so a numpy whose integer promotion differs shows here first."""
    with np.errstate(all="raise"):
        rows = resample_indices(state, n, 0, 3)
        assert rows.shape == (3, n)
        assert rows.ravel()[:len(first)].tolist() == first
        assert rows.ravel().tolist() == [splitmix64_index(state, n, k) for k in range(1, 3 * n + 1)]
        assert resample_indices(state, n, 2, 1).tolist() == rows[2:].tolist()


def test_bootstrap_std_of_a_fixed_sample_is_pinned():
    assert bootstrap_std([0.0, 1.0, 1.0, 0.0, 1.0], seed=3) == 0.2135232071696189


def test_resample_indices_lie_in_range_and_move_with_the_state():
    for n in (1, 2, 3, 7, 64, 1000):
        idx = resample_indices(derive_seed("bootstrap", n), n, 0, 100)
        assert idx.min() >= 0 and idx.max() < n
    assert not resample_indices(2**63 - 1, 1, 0, BOOTSTRAP_RESAMPLES).any()
    assert resample_indices(1, 64, 0, 1).tolist() != resample_indices(2, 64, 0, 1).tolist()
    counts = np.bincount(resample_indices(derive_seed("uniform"), 7, 0, BOOTSTRAP_RESAMPLES).ravel(), minlength=7)
    assert np.abs(counts / BOOTSTRAP_RESAMPLES - 1).max() < 0.1  # 7,000 draws, 1,000 expected per index


@pytest.mark.parametrize("n, successes", [(7, 2), (64, 1), (64, 13), (128, 110)])
def test_bootstrap_std_averages_to_the_analytic_std_of_the_mean(n, successes):
    """Over 100 seeds the mean bootstrap std of a 0/1 sample is within 2% of sqrt(p(1-p)/n)."""
    sample = [1.0] * successes + [0.0] * (n - successes)
    p = successes / n
    mean_std = np.mean([bootstrap_std(sample, seed=seed) for seed in range(100)])
    assert abs(mean_std / math.sqrt(p * (1 - p) / n) - 1) < 0.02


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_reconciles_totals():
    trajs, recs = [], []
    outcomes = {"t1": [1, 0, 1, 0], "t2": [0, 0, 0, 1], "t3": [1, 1, 1, 1]}
    for task_id, rewards in outcomes.items():
        tt, rr = scored_task(task_id, rewards)
        trajs += tt
        recs += rr
    report = aggregate(trajs, recs)

    assert report.totals == {
        "tasks": 3,
        "records": 12,
        "successes": 7,
        "empty_patches": 0,
        "infra_errors": 0,
    }
    assert report.totals["records"] == sum(s["n"] for s in report.per_task.values())
    assert report.totals["successes"] == sum(s["c"] for s in report.per_task.values())
    # greedy rewards: t1=1, t2=0, t3=1
    assert report.pass_at_1 == pytest.approx(2 / 3)
    for k in report.pass_at_k_table:
        expected = sum(pass_at_k(4, sum(v), k) for v in outcomes.values()) / 3
        assert report.pass_at_k_table[k] == pytest.approx(expected, abs=1e-12)
    assert set(report.pass_at_k_table) == {k for k in DEFAULT_KS if k <= 4}


def test_aggregate_counts_infra_and_skips_them():
    trajs, recs = scored_task("t1", [1, 0])
    recs.append(EvaluationFailure(task_id="t1", trajectory_ref="t1/x/9/u", error="boom"))
    report = aggregate(trajs, recs)
    assert report.totals["infra_errors"] == 1
    assert report.per_task["t1"]["n"] == 2


def test_aggregate_first_greedy_wins():
    trajs = [mk_traj("t1", "a", TEMPERATURE_GREEDY), mk_traj("t1", "b", TEMPERATURE_GREEDY)]
    recs = [mk_rec("t1", "a", 0), mk_rec("t1", "b", 1)]
    assert aggregate(trajs, recs).pass_at_1 == 0.0


def test_aggregate_without_greedy_warns(caplog):
    trajs, recs = scored_task("t1", [1, 1], start_greedy=False)
    with caplog.at_level("WARNING"):
        report = aggregate(trajs, recs)
    assert "no greedy rollout" in caplog.text
    assert report.pass_at_1 == 0.0


def test_aggregate_empty(caplog):
    with caplog.at_level("WARNING"):
        report = aggregate([], [])
    assert report.totals == {"tasks": 0, "records": 0, "successes": 0, "infra_errors": 0}
    assert report.pass_at_k_table == {}


def test_aggregate_selections():
    trajs, recs = scored_task("t1", [0, 1])
    tt, rr = scored_task("t2", [0, 0])
    trajs += tt
    recs += rr
    report = aggregate(trajs, recs, selections={"t1": 1, "t2": 0})
    assert report.best_at_1 == pytest.approx(0.5)

    with pytest.raises(ValueError, match="selections missing"):
        aggregate(trajs, recs, selections={"t1": 1})


def test_aggregate_empty_patch_counting():
    trajs, recs = scored_task("t1", [0, 0])
    recs[1] = mk_rec("t1", recs[1].trajectory_ref, 0, empty_patch=True)
    report = aggregate(trajs, recs)
    assert report.totals["empty_patches"] == 1
    assert report.per_task["t1"]["empty_patches"] == 1


# ---------------------------------------------------------------------------
# Guidance uplift
# ---------------------------------------------------------------------------


def test_guidance_uplift_report_numbers():
    unguided = [mk_rec("t1", f"u{i}", r) for i, r in enumerate([1, 0, 0, 0])]
    guided = [mk_rec("t1", f"g{i}", r, empty_patch=(r == 0 and i == 2)) for i, r in enumerate([1, 1, 0, 1])]
    guided.append(EvaluationFailure(task_id="t1", trajectory_ref="g9", error="x"))
    up = guidance_uplift_report(unguided, guided)
    assert up["unguided"] == {
        "attempts": 4, "successes": 1, "success_rate": 0.25, "empty_patch_rate": 0.0,
    }
    assert up["guided"]["attempts"] == 4  # infra failure not an attempt
    assert up["guided"]["successes"] == 3
    assert up["delta"]["successes"] == 2
    assert up["delta"]["success_rate"] == pytest.approx(0.5)
    assert up["guided"]["empty_patch_rate"] == pytest.approx(0.25)


def test_guidance_uplift_empty_arms():
    up = guidance_uplift_report([], [])
    assert up["unguided"]["success_rate"] == 0.0
    assert up["delta"] is None


# ---------------------------------------------------------------------------
# Rendering and persistence
# ---------------------------------------------------------------------------


def test_report_round_trip_and_text():
    trajs, recs = scored_task("t1", [1, 0, 1, 0])
    uplift = guidance_uplift_report(recs, recs)
    report = aggregate(trajs, recs, selections={"t1": 1}, guidance_uplift=uplift)

    loaded = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert loaded["pass_at_1"] == 1.0
    assert set(loaded["pass_at_k"]) == {"1", "2", "4"}
    assert loaded["best_at_1"] == 1.0

    text = render_report_text(report)
    assert "pass@1 (greedy)" in text
    assert "best@1 (rm)" in text
    assert "uplift (rate)" in text
    assert "pass@4" in text
    assert all("  " in line for line in text.splitlines())


def test_render_report_minimal():
    text = render_report_text(EvalReport(totals={"tasks": 0}))
    assert "tasks" in text and "pass@1" in text
