"""Acceptance criteria for the whole pipeline, one test per criterion.

Each criterion prints a PASS/FAIL line (visible with -s, or in the captured
output of a failing test; `pytest -v` adds the per-test verdict roster).
The heavyweight fixtures run the full training loop once and are shared.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from doubles import ScriptedBackend
from rlvrloop.backends import SamplingParams, TabularPolicyBackend
from rlvrloop.evaluator import RewardRecord, evaluate, read_rewards
from rlvrloop.guidance import oracle_teacher
from rlvrloop.jsonl import derive_seed
from rlvrloop.loop import (
    RunConfig,
    RunPaths,
    evaluate_trajectories,
    read_guidance,
    rollout_all_tasks,
    run_loop,
)
from rlvrloop.metrics import pass_at_k
from rlvrloop.pairs import (
    PROVENANCE_GUIDED,
    PROVENANCE_ROLLOUT,
    PairSide,
    PreferencePair,
    build_rlvr_dataset,
    load_dataset,
)
from rlvrloop.policy import ReferencePolicy, TabularPolicy
from rlvrloop.prompts import HINT_DELIMITER
from rlvrloop.reward_model import (
    build_rm_training_pairs,
    rank_best_of_k,
    ranking_accuracy,
    rm_train,
)
from rlvrloop.rollout import read_trajectories, scaffold_batch
from rlvrloop.tasks import enumerate_passing_patches, generate_synth_suite
from rlvrloop.training import dpo_loss, dpo_loss_and_grad

LN2 = 0.6931471805599453


def criterion(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def flagship_run(tmp_path_factory):
    """One full training iteration at the reference scale: 64 tasks, 6x8 grids."""
    out = tmp_path_factory.mktemp("flagship") / "run"
    config = RunConfig(
        output_dir=str(out), seed=0, workers=4, rollouts_n=16,
        synth_count=64, synth_lines=6, synth_candidates=8,
    )
    start = time.monotonic()
    run_loop(config)
    elapsed = time.monotonic() - start
    return config, RunPaths(out), elapsed


# ---------------------------------------------------------------------------
# 1. DPO objective: exact value at the reference, gradients vs central FD
# ---------------------------------------------------------------------------


def test_c1_dpo_objective_and_gradients():
    suite = generate_synth_suite(2, 3, 3, seed=2)
    policy = TabularPolicy.uniform(suite)
    ref = ReferencePolicy(policy)
    rng = np.random.default_rng(17)
    pairs = [
        PreferencePair(
            task_id=t.id, prompt="p",
            winner=PairSide("w", "a", (int(rng.integers(3)), int(rng.integers(3)))),
            loser=PairSide("l", "b", (int(rng.integers(3)), int(rng.integers(3)))),
            provenance=PROVENANCE_ROLLOUT,
        )
        for t in suite for _ in range(4)
    ]
    at_ref = dpo_loss(policy, ref, pairs, beta=0.1)
    criterion("dpo loss at reference equals ln 2", abs(at_ref - LN2) < 1e-9,
              f"|{at_ref!r} - ln2| = {abs(at_ref - LN2):.2e}")

    h = 1e-5
    checks = 0
    worst = 0.0
    ref = ReferencePolicy(policy)
    for state in range(10):
        theta = rng.normal(scale=1.5, size=policy.theta().size)
        policy.set_theta(theta)
        _, grad = dpo_loss_and_grad(policy, ref, pairs, beta=0.3)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            policy.set_theta(up)
            hi = dpo_loss(policy, ref, pairs, beta=0.3)
            policy.set_theta(down)
            lo = dpo_loss(policy, ref, pairs, beta=0.3)
            numeric = (hi - lo) / (2 * h)
            checks += 1
            if abs(numeric) > 1e-6:
                worst = max(worst, abs(grad[i] - numeric) / abs(numeric))
            else:
                assert abs(grad[i] - numeric) < 1e-6
        policy.set_theta(theta)
    criterion("dpo analytic gradient matches finite differences",
              checks >= 100 and worst < 1e-4,
              f"{checks} coordinate checks, max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. pass@k estimator vs exhaustive subset enumeration
# ---------------------------------------------------------------------------


def test_c2_pass_at_k_estimator():
    cases = 0
    worst = 0.0
    for n in range(1, 9):
        for c in range(n + 1):
            for k in range(1, n + 1):
                outcomes = [1] * c + [0] * (n - c)
                subsets = list(itertools.combinations(range(n), k))
                truth = sum(1 for s in subsets if any(outcomes[i] for i in s)) / len(subsets)
                worst = max(worst, abs(pass_at_k(n, c, k) - truth))
                cases += 1
    criterion("pass@k equals subset enumeration for all n <= 8",
              worst < 1e-12, f"{cases} cases, max |delta| {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. the loop learns the training tasks
# ---------------------------------------------------------------------------


def test_c3_loop_learns_the_suite(flagship_run):
    config, paths, elapsed = flagship_run
    report = json.loads(paths.report_json.read_text())
    pre = report["pre_training"]["pass_at_1"]
    post = report["post_training"]["pass_at_1"]
    chance = 1 / (config.synth_lines * config.synth_candidates)
    criterion("untrained pass@1 sits at the 1/(L*m) chance level",
              abs(pre - chance) <= 0.05, f"pre {pre:.4f}, chance {chance:.4f}")
    criterion("trained pass@1 reaches at least 0.5 on the training tasks",
              post >= 0.5 and post > pre, f"post {post:.4f} from pre {pre:.4f}")
    criterion("full 64-task iteration stays under the 2 minute budget",
              elapsed < 120.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. guidance moves success from 1/(L*m) toward 1/m
# ---------------------------------------------------------------------------


def test_c4_guidance_success_rates():
    suite = generate_synth_suite(8, 4, 4, seed=31)
    backend = TabularPolicyBackend(TabularPolicy.uniform(suite))

    def guidance_for(task):
        line, cand = enumerate_passing_patches(task)[0]
        wrong = (cand + 1) % task.n_candidates
        scripted = ScriptedBackend(script=[f"LINE: {line}", f"CANDIDATE: {wrong}"])
        [failed] = scaffold_batch([(task, SamplingParams(temperature=0.6, seed=0), None)], scripted)
        return oracle_teacher(task, failed, evaluate(task, failed))

    guidance = {t.id: guidance_for(t) for t in suite}
    unguided = guided = n = 0
    for seed in range(30):
        for task in suite:
            pu = SamplingParams(temperature=0.6, seed=derive_seed("acc-c4-u", seed, task.id))
            unguided += evaluate(task, scaffold_batch([(task, pu, None)], backend)[0]).reward
            pg = SamplingParams(temperature=0.6, seed=derive_seed("acc-c4-g", seed, task.id))
            guided += evaluate(task, scaffold_batch([(task, pg, guidance[task.id])], backend)[0]).reward
            n += 1

    u_rate, g_rate = unguided / n, guided / n
    s_u = math.sqrt(u_rate * (1 - u_rate) / n)
    s_g = math.sqrt(g_rate * (1 - g_rate) / n)
    gap = g_rate - u_rate
    criterion("guided success rate is 3 sigma above unguided",
              gap >= 3 * math.sqrt(s_u ** 2 + s_g ** 2),
              f"unguided {u_rate:.4f}, guided {g_rate:.4f}, gap {gap:.4f} over {n} samples/arm")
    criterion("arm rates match the 1/(L*m) and 1/m mechanisms",
              abs(u_rate - 1 / 16) <= max(3 * s_u, 0.02) and abs(g_rate - 1 / 4) <= max(3 * s_g, 0.02),
              f"unguided vs 1/16: {abs(u_rate - 1/16):.4f}, guided vs 1/4: {abs(g_rate - 1/4):.4f}")


# ---------------------------------------------------------------------------
# 5. teacher guidance improves training, seed over seed
# ---------------------------------------------------------------------------


def sign_test_p(wins, losses):
    m = wins + losses
    return sum(math.comb(m, i) for i in range(wins, m + 1)) / 2 ** m


def test_c5_guided_training_beats_disabled(tmp_path):
    rows = []
    for seed in range(8):
        post = {}
        for arm, enabled in (("guided", True), ("disabled", False)):
            out = tmp_path / f"{arm}-{seed}"
            config = RunConfig(
                output_dir=str(out), seed=seed, workers=4, rollouts_n=8,
                synth_count=12, synth_lines=4, synth_candidates=4,
                sft_epochs=50, dpo_epochs=100, guidance_enabled=enabled,
            )
            run_loop(config)
            rep = json.loads(RunPaths(out).report_json.read_text())["post_training"]
            post[arm] = (rep["pass_at_1"], rep["pass_at_k"]["8"])
        rows.append((post["guided"], post["disabled"]))

    geq = all(g[0] >= d[0] and g[1] >= d[1] for g, d in rows)
    wins = sum(1 for g, d in rows if g[0] > d[0])
    losses = sum(1 for g, d in rows if g[0] < d[0])
    p = sign_test_p(wins, losses)
    criterion("guided training never loses on pass@1 or pass@8",
              geq, f"{len(rows)} seeds")
    criterion("pass@1 improvement passes a sign test at p < 0.05",
              p < 0.05, f"{wins} wins / {losses} losses, p = {p:.4f}")


# ---------------------------------------------------------------------------
# 6. reward-model best-of-k beats greedy on held-out suites
# ---------------------------------------------------------------------------


def test_c6_rm_best_of_k_held_out():
    train_suite = generate_synth_suite(8, 4, 4, seed=21)
    backend = TabularPolicyBackend(TabularPolicy.uniform(train_suite))
    trajs = rollout_all_tasks(train_suite, backend, 8, 0, workers=1)
    recs = evaluate_trajectories(train_suite, trajs, workers=1)
    rm = rm_train(build_rm_training_pairs(
        build_rlvr_dataset(trajs, recs, max_pairs_per_task=8).pairs, train_suite.by_id
    ))

    greedy_total = best_total = 0
    accuracies = []
    for s in range(5):
        held = generate_synth_suite(8, 4, 4, seed=100 + s)
        hb = TabularPolicyBackend(TabularPolicy.uniform(held))
        htr = rollout_all_tasks(held, hb, 32, s, workers=1)
        hre = evaluate_trajectories(held, htr, workers=1)
        rewards = {r.trajectory_ref: r.reward for r in hre if isinstance(r, RewardRecord)}
        greedy = best = 0
        for task in held:
            group = [t for t in htr if t.task_id == task.id]
            greedy += rewards[group[0].traj_id]  # slot 0 is the greedy sample
            pick = rank_best_of_k(rm, task.issue, [t.patch for t in group]).selected_index
            best += rewards[group[pick].traj_id]
        assert best >= greedy, f"seed {s}: best {best} < greedy {greedy}"
        greedy_total += greedy
        best_total += best
        held_pairs = build_rm_training_pairs(
            build_rlvr_dataset(htr, hre, max_pairs_per_task=8).pairs, held.by_id
        )
        if held_pairs:
            accuracies.append(ranking_accuracy(rm, held_pairs))

    criterion("best-of-32 selection beats greedy pass@1 on held-out suites",
              best_total > greedy_total,
              f"best {best_total}/40 vs greedy {greedy_total}/40 over 5 seeds")
    criterion("held-out pairwise ranking accuracy is 1.0",
              accuracies and all(a == 1.0 for a in accuracies),
              f"{len(accuracies)} seeds with pairs")


# ---------------------------------------------------------------------------
# 7. every emitted pair is sound and the accounting reconciles exactly
# ---------------------------------------------------------------------------


def test_c7_pair_soundness_and_accounting(flagship_run):
    _, paths, _ = flagship_run
    trajs = read_trajectories(paths.rollouts)
    recs = read_rewards(paths.rewards)
    gtrajs = read_trajectories(paths.guided_rollouts)
    grecs = read_rewards(paths.guided_rewards)
    guidance = {g.guidance_id: g for g in read_guidance(paths.guidance)}
    dataset = load_dataset(paths.dataset)

    reward = {r.trajectory_ref: r.reward for r in recs if isinstance(r, RewardRecord)}
    greward = {r.trajectory_ref: r.reward for r in grecs if isinstance(r, RewardRecord)}
    prompt = {t.traj_id: t.steps[0].prompt for t in trajs}
    guided_by_ref = {t.traj_id: t for t in gtrajs}

    keys = set()
    per_task_rollout_pairs: dict[str, int] = {}
    sound = True
    for pair in dataset.pairs:
        w, l = pair.winner.trajectory_ref, pair.loser.trajectory_ref
        sound &= reward.get(l) == 0
        sound &= pair.prompt == prompt[l]
        sound &= HINT_DELIMITER not in pair.prompt
        sound &= HINT_DELIMITER not in pair.winner.response
        sound &= (w, l) not in keys
        keys.add((w, l))
        if pair.provenance == PROVENANCE_ROLLOUT:
            sound &= reward.get(w) == 1
            per_task_rollout_pairs[pair.task_id] = per_task_rollout_pairs.get(pair.task_id, 0) + 1
        else:
            sound &= pair.provenance == PROVENANCE_GUIDED
            sound &= greward.get(w) == 1
            src = guidance[guided_by_ref[w].guidance_id].source_trajectory_ref
            sound &= src == l
    sound &= all(v <= 4 for v in per_task_rollout_pairs.values())
    criterion("every pair has winner reward 1, loser reward 0, the shared "
              "unguided prompt, and no hint leakage",
              sound, f"{len(dataset.pairs)} pairs audited")

    acc = dataset.accounting
    n_guided = sum(1 for p in dataset.pairs if p.provenance == PROVENANCE_GUIDED)
    positives = [t for t in trajs if reward.get(t.traj_id) == 1]
    by_task: dict[str, int] = {}
    for t in positives:
        by_task[t.task_id] = by_task.get(t.task_id, 0) + 1
    expected_sft = sum(math.ceil(0.2 * c) for c in by_task.values())
    guided_with_source = sum(
        1 for t in gtrajs
        if greward.get(t.traj_id) == 1
        and reward.get(guidance[t.guidance_id].source_trajectory_ref) == 0
    )
    books = {
        "pairs_total": (acc["pairs_total"], len(dataset.pairs)),
        "split": (acc["rollout_pairs"] + acc["guided_repair_pairs"], acc["pairs_total"]),
        "guided_repair_pairs": (acc["guided_repair_pairs"], n_guided),
        "positives_total": (acc["positives_total"], len(positives)),
        "negatives_total": (acc["negatives_total"],
                            sum(1 for t in trajs if reward.get(t.traj_id) == 0)),
        "guided_successes": (acc["guided_successes"],
                             sum(1 for v in greward.values() if v == 1)),
        "matched_guided": (acc["guided_repair_pairs"] + acc["dropped_duplicate_pairs"]
                           + acc["dropped_identical_responses"] + acc["skipped_guided_no_failure"],
                           guided_with_source + acc["skipped_guided_no_failure"]),
        "sft_examples": (acc["sft_examples"], len(dataset.sft)),
        "sft_stratified": (acc["sft_examples"], expected_sft),
    }
    mismatched = {k: v for k, v in books.items() if v[0] != v[1]}
    criterion("dataset accounting reconciles exactly against the artifacts",
              not mismatched, f"checked {len(books)} identities" +
              (f"; mismatched {mismatched}" if mismatched else ""))


# ---------------------------------------------------------------------------
# 8. reruns are byte-reproducible
# ---------------------------------------------------------------------------


def test_c8_manifest_determinism(tmp_path):
    hash_maps = []
    for name in ("a", "b"):
        config = RunConfig(
            output_dir=str(tmp_path / name), seed=3, workers=4, rollouts_n=8,
            synth_count=16, synth_lines=6, synth_candidates=8,
            sft_epochs=50, dpo_epochs=100,
        )
        manifest = run_loop(config)
        hash_maps.append({a["path"]: a["sha256"] for a in manifest["artifacts"]})
    criterion("two identically seeded runs produce identical artifact hashes",
              hash_maps[0] == hash_maps[1], f"{len(hash_maps[0])} artifacts compared")
