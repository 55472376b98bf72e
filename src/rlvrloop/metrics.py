"""Evaluation metrics and reports.

pass@k uses the unbiased estimator 1 - C(n-c, k)/C(n, k) over n sampled
attempts with c successes, computed with exact integer combinatorics so no
intermediate overflows or catastrophic cancellation occur. pass@1 in
reports is deliberately not the estimator: it is the greedy rollout's
reward, matching how the measurement is actually taken.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evaluator import EvaluationFailure, RewardRecord
from .jsonl import derive_seed
from .rollout import TEMPERATURE_GREEDY, Trajectory

log = logging.getLogger(__name__)

DEFAULT_KS = (1, 2, 4, 8, 16, 32)
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_BLOCK_ROWS = 100

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the stream's increment and its finalizer's constants.
_GOLDEN, _MIX1, _MIX2 = (np.uint64(v) for v in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_U27, _U30, _U31, _U32 = (np.uint64(v) for v in (27, 30, 31, 32))


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that at least one of k draws (without replacement) from
    n attempts with c successes is a success."""
    if n < 1 or not 0 <= c <= n:
        raise ValueError(f"need 0 <= c <= n with n >= 1, got n={n} c={c}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


def resample_indices(state: int, n: int, first_row: int, rows: int) -> np.ndarray:
    """Rows first_row .. first_row + rows - 1 of the bootstrap's index matrix, for 1 <= n < 2**32.

    Entry k = 1, 2, ... of the matrix, counted row-major, is SplitMix64's z = mix(state + k * golden
    mod 2**64) mapped to (z >> 32) * n >> 32 in [0, n). Every operand is uint64, so it wraps alike
    under numpy 1.x and 2.x."""
    k = np.arange(first_row * n + 1, (first_row + rows) * n + 1, dtype=np.uint64)
    z = np.uint64(state) + k * _GOLDEN
    z = (z ^ z >> _U30) * _MIX1
    z = (z ^ z >> _U27) * _MIX2
    z ^= z >> _U31
    return ((z >> _U32) * np.uint64(n) >> _U32).astype(np.intp).reshape(rows, n)


def bootstrap_std(values: Sequence[float], seed: int = 0) -> float:
    """Std of the mean under seeded bootstrap resampling over tasks.

    The BOOTSTRAP_RESAMPLES resamples' indices come from resample_indices at state derive_seed("bootstrap",
    seed, BOOTSTRAP_RESAMPLES), BOOTSTRAP_BLOCK_ROWS rows at a time, so the matrix is never built whole."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    state = derive_seed("bootstrap", seed, BOOTSTRAP_RESAMPLES)
    blocks = range(0, BOOTSTRAP_RESAMPLES, BOOTSTRAP_BLOCK_ROWS)
    means = [arr[resample_indices(state, arr.size, i, BOOTSTRAP_BLOCK_ROWS)].mean(axis=1) for i in blocks]
    return float(np.concatenate(means).std())


# ---------------------------------------------------------------------------
# Report aggregation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    per_task: dict[str, dict] = field(default_factory=dict)
    pass_at_1: float = 0.0
    pass_at_1_std: float = 0.0
    pass_at_k_table: dict[int, float] = field(default_factory=dict)
    best_at_1: float | None = None
    guidance_uplift: dict | None = None
    totals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_task": self.per_task,
            "pass_at_1": self.pass_at_1,
            "pass_at_1_std": self.pass_at_1_std,
            "pass_at_k": {str(k): v for k, v in self.pass_at_k_table.items()},
            "best_at_1": self.best_at_1,
            "guidance_uplift": self.guidance_uplift,
            "totals": self.totals,
        }


def aggregate(
    trajectories: Sequence[Trajectory],
    records: Sequence[RewardRecord | EvaluationFailure],
    selections: dict[str, int] | None = None,
    guidance_uplift: dict | None = None,
    bootstrap_seed: int = 0,
) -> EvalReport:
    """Fold scored rollouts into an EvalReport.

    selections maps task_id to the reward of the reward-model-selected
    attempt (best-of-k); when given it must cover every task. Totals are
    reconcilable: per-task n sums to the scored record count and per-task c
    to the success count.
    """
    temp_by_ref = {t.traj_id: t.sampling.temperature for t in trajectories}
    per_task: dict[str, dict] = {}
    infra_errors = 0
    for rec in records:
        if isinstance(rec, EvaluationFailure):
            infra_errors += 1
            continue
        stats = per_task.setdefault(
            rec.task_id, {"n": 0, "c": 0, "greedy_reward": 0, "empty_patches": 0, "has_greedy": False}
        )
        stats["n"] += 1
        stats["c"] += rec.reward
        stats["empty_patches"] += int(rec.empty_patch)
        if temp_by_ref.get(rec.trajectory_ref) == TEMPERATURE_GREEDY and not stats["has_greedy"]:
            stats["greedy_reward"] = rec.reward
            stats["has_greedy"] = True

    if not per_task:
        log.warning("aggregate called with no scored records")
        return EvalReport(totals={"tasks": 0, "records": 0, "successes": 0, "infra_errors": infra_errors})

    for task_id, stats in per_task.items():
        if not stats.pop("has_greedy"):
            log.warning("task %s has no greedy rollout; counting pass@1 as 0", task_id)

    greedy = [stats["greedy_reward"] for stats in per_task.values()]
    min_n = min(stats["n"] for stats in per_task.values())
    table = {
        k: float(np.mean([pass_at_k(s["n"], s["c"], k) for s in per_task.values()]))
        for k in DEFAULT_KS
        if k <= min_n
    }

    best_at_1 = None
    if selections is not None:
        missing = sorted(set(per_task) - set(selections))
        if missing:
            raise ValueError(f"selections missing for tasks: {missing[:5]}")
        best_at_1 = float(np.mean([selections[tid] for tid in per_task]))

    totals = {
        "tasks": len(per_task),
        "records": int(sum(s["n"] for s in per_task.values())),
        "successes": int(sum(s["c"] for s in per_task.values())),
        "empty_patches": int(sum(s["empty_patches"] for s in per_task.values())),
        "infra_errors": infra_errors,
    }
    return EvalReport(
        per_task=per_task,
        pass_at_1=float(np.mean(greedy)),
        pass_at_1_std=bootstrap_std(greedy, seed=bootstrap_seed),
        pass_at_k_table=table,
        best_at_1=best_at_1,
        guidance_uplift=guidance_uplift,
        totals=totals,
    )


# ---------------------------------------------------------------------------
# Guidance uplift
# ---------------------------------------------------------------------------


def _arm_stats(records: Sequence[RewardRecord | EvaluationFailure]) -> dict:
    scored = [r for r in records if isinstance(r, RewardRecord)]
    n = len(scored)
    successes = sum(r.reward for r in scored)
    empty = sum(1 for r in scored if r.empty_patch)
    return {
        "attempts": n,
        "successes": successes,
        "success_rate": successes / n if n else 0.0,
        "empty_patch_rate": empty / n if n else 0.0,
    }


def guidance_uplift_report(
    unguided: Sequence[RewardRecord | EvaluationFailure],
    guided: Sequence[RewardRecord | EvaluationFailure],
) -> dict:
    """Success and empty-patch rates for both arms plus their deltas.

    The delta is None when either arm has no scored attempts: a rate taken
    over nothing is no rate to compare against.
    """
    u, g = _arm_stats(unguided), _arm_stats(guided)
    delta = None
    if u["attempts"] and g["attempts"]:
        delta = {
            "successes": g["successes"] - u["successes"],
            "success_rate": g["success_rate"] - u["success_rate"],
            "empty_patch_rate": g["empty_patch_rate"] - u["empty_patch_rate"],
        }
    return {"unguided": u, "guided": g, "delta": delta}


# ---------------------------------------------------------------------------
# Plain-text rendering
# ---------------------------------------------------------------------------


def render_report_text(report: EvalReport) -> str:
    rows: list[tuple[str, str]] = [
        ("tasks", str(report.totals.get("tasks", 0))),
        ("records", str(report.totals.get("records", 0))),
        ("successes", str(report.totals.get("successes", 0))),
        ("pass@1 (greedy)", f"{report.pass_at_1:.4f} +/- {report.pass_at_1_std:.4f}"),
    ]
    for k, v in sorted(report.pass_at_k_table.items()):
        rows.append((f"pass@{k}", f"{v:.4f}"))
    if report.best_at_1 is not None:
        rows.append(("best@1 (rm)", f"{report.best_at_1:.4f}"))
    if report.guidance_uplift:
        up = report.guidance_uplift
        for arm in ("unguided", "guided"):
            rows.append(
                (
                    f"{arm} successes",
                    f"{up[arm]['successes']}/{up[arm]['attempts']} "
                    f"({100 * up[arm]['success_rate']:.1f}%)",
                )
            )
            rows.append((f"{arm} empty patches", f"{100 * up[arm]['empty_patch_rate']:.2f}%"))
        delta = up["delta"]
        rows.append(("uplift (rate)", "n/a" if delta is None else f"{100 * delta['success_rate']:+.1f}%"))
    width = max(len(name) for name, _ in rows)
    lines = [f"{name.ljust(width)}  {value}" for name, value in rows]
    return "\n".join(lines)
