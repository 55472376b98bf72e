"""Preference-pair and SFT dataset assembly from scored rollouts.

Two pair sources, mirroring how the training data is mined:

- rollout pairs: within one task's unguided rollouts, every success
  outranks every failure; positives are matched to distinct negatives
  round-robin under a per-task cap.
- guided repair pairs: a guided reattempt that fixed the task outranks the
  very failure its guidance was generated from. The stored prompt is the
  unguided one, with the hint stripped, so the learner never conditions on
  teacher text.

Soundness is audited at assembly time: winner reward 1, loser reward 0,
shared unguided prompt, no hint leakage in winner responses, no duplicate
(winner, loser) reference pairs.
"""
from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

from .errors import AssemblyError, TaskFormatError
from .evaluator import EvaluationFailure, RewardRecord
from .guidance import Guidance
from .jsonl import Once, Shared, derive_seed, read_declared, write_records
from .prompts import HINT_DELIMITER, strip_hint_block
from .rollout import Trajectory

log = logging.getLogger(__name__)

DATASET_SCHEMA = "rlvr_dataset"

PROVENANCE_ROLLOUT = "rollout_pair"
PROVENANCE_GUIDED = "guided_repair_pair"

DEFAULT_MAX_PAIRS_PER_TASK = 4
DEFAULT_SFT_FRACTION = 0.2


@dataclass(frozen=True)
class PairSide:
    trajectory_ref: str
    response: Shared[str]
    actions: tuple[int, int] | None


@dataclass(frozen=True)
class PreferencePair:
    record: ClassVar[str] = "pair"  # the dataset file's tag of each line

    task_id: Shared[str]
    prompt: Once[str]
    winner: PairSide
    loser: PairSide
    provenance: Shared[str]


@dataclass(frozen=True)
class SFTExample:
    record: ClassVar[str] = "sft"

    task_id: Shared[str]
    prompt: Once[str]
    target: Shared[str]
    actions: tuple[int, int] | None


@dataclass
class RlvrDataset:
    pairs: tuple[PreferencePair, ...] = ()
    sft: tuple[SFTExample, ...] = ()
    accounting: dict = field(default_factory=dict)


def _reward_map(records: Iterable[RewardRecord | EvaluationFailure]) -> dict[str, RewardRecord]:
    out: dict[str, RewardRecord] = {}
    for rec in records:
        if isinstance(rec, RewardRecord):
            out[rec.trajectory_ref] = rec
    return out


def _scored(trajectories: Iterable[Trajectory], rewards: dict[str, RewardRecord], reward: int) -> list[Trajectory]:
    """The trajectories that rewards scores as reward; an unscored one is left out."""
    return [t for t in trajectories if (rec := rewards.get(t.traj_id)) is not None and rec.reward == reward]


def _side(traj: Trajectory) -> PairSide:
    return PairSide(
        trajectory_ref=traj.traj_id,
        response=traj.response_text(),
        actions=traj.actions,
    )


def _admit(pair: PreferencePair, seen: set[tuple[str, str]], stats: dict) -> bool:
    """Admit a pair whose responses differ and whose (winner, loser) refs are not in seen; count a drop."""
    if pair.winner.response == pair.loser.response:
        stats["dropped_identical_responses"] += 1
        return False
    key = (pair.winner.trajectory_ref, pair.loser.trajectory_ref)
    if key in seen:
        stats["dropped_duplicate_pairs"] += 1
        return False
    seen.add(key)
    return True


# ---------------------------------------------------------------------------
# Rollout pairs
# ---------------------------------------------------------------------------


def assemble_rollout_pairs(
    trajectories: Sequence[Trajectory],
    records: Sequence[RewardRecord | EvaluationFailure],
    max_pairs_per_task: int = DEFAULT_MAX_PAIRS_PER_TASK,
) -> tuple[list[PreferencePair], dict]:
    """Success-over-failure pairs within each task's unguided rollouts.

    Deterministic given input order: positives take negatives round-robin
    ((positive index + round) mod negative count) until the per-task cap.
    Returns the pairs plus drop counters for the accounting record.
    """
    rewards = _reward_map(records)
    stats = {"dropped_identical_responses": 0, "dropped_duplicate_pairs": 0, "skipped_unscored": 0}
    by_task: dict[str, tuple[list[Trajectory], list[Trajectory]]] = {}  # (positives, negatives)
    for traj in trajectories:
        if traj.is_guided:
            raise AssemblyError(f"rollout pairing fed a guided trajectory: {traj.traj_id}")
        split = by_task.setdefault(traj.task_id, ([], []))
        rec = rewards.get(traj.traj_id)
        if rec is None:
            stats["skipped_unscored"] += 1
        else:
            split[rec.reward != 1].append(traj)

    pairs: list[PreferencePair] = []
    seen: set[tuple[str, str]] = set()
    for task_id, (positives, negatives) in by_task.items():
        if not positives or not negatives:
            continue
        task_start = len(pairs)
        for rnd in range(len(negatives)):
            for i, pos in enumerate(positives):
                if len(pairs) - task_start >= max_pairs_per_task:
                    break
                neg = negatives[(i + rnd) % len(negatives)]
                pair = PreferencePair(task_id, pos.steps[0].prompt, _side(pos), _side(neg), PROVENANCE_ROLLOUT)
                if not _admit(pair, seen, stats):
                    continue
                if neg.steps[0].prompt != pair.prompt:
                    raise AssemblyError(
                        f"{task_id}: rollout pair prompts differ between {pos.traj_id} and {neg.traj_id}"
                    )
                pairs.append(pair)
    return pairs, stats


# ---------------------------------------------------------------------------
# Guided repair pairs
# ---------------------------------------------------------------------------


def assemble_guided_pair(
    failed_unguided: Trajectory,
    failed_record: RewardRecord,
    guided_success: Trajectory,
    guided_record: RewardRecord,
) -> PreferencePair:
    """Pair a guided success against the failure its guidance came from.

    The pair stores the guided prompt with its hint stripped, which must be
    the loser's unguided prompt; hint markup inside the winner's response is
    a hard error.
    """
    if guided_success.task_id != failed_unguided.task_id:
        raise AssemblyError("guided pair spans two different tasks")
    if not guided_success.is_guided:
        raise AssemblyError(f"{guided_success.traj_id} is not a guided trajectory")
    if failed_unguided.is_guided:
        raise AssemblyError(f"loser {failed_unguided.traj_id} must be an unguided failure")
    if guided_record.reward != 1 or failed_record.reward != 0:
        raise AssemblyError(
            f"guided pair needs rewards (1, 0), got ({guided_record.reward}, {failed_record.reward})"
        )

    if HINT_DELIMITER in guided_success.response_text():
        raise AssemblyError(f"winner response for {guided_success.traj_id} leaks the hint block")
    prompt = strip_hint_block(guided_success.steps[0].prompt)
    if prompt != failed_unguided.steps[0].prompt:
        raise AssemblyError(
            f"stripped prompt for {guided_success.traj_id} does not match the loser's unguided prompt"
        )
    return PreferencePair(
        task_id=guided_success.task_id,
        prompt=prompt,
        winner=_side(guided_success),
        loser=_side(failed_unguided),
        provenance=PROVENANCE_GUIDED,
    )


# ---------------------------------------------------------------------------
# SFT subset
# ---------------------------------------------------------------------------


def sample_sft_subset(
    positives: Sequence[Trajectory],
    fraction: float = DEFAULT_SFT_FRACTION,
    seed: int = 0,
    *,
    allow_guided: bool = False,
) -> list[SFTExample]:
    """Per-task stratified sample of positive unguided trajectories.

    Each task contributes ceil(fraction * its positive count) examples,
    drawn uniformly without replacement, so no task dominates the SFT mix.
    A guided trajectory is an error unless allow_guided is set (the
    include_guided_in_sft ablation arm).
    """
    if not 0.0 <= fraction <= 1.0:
        raise AssemblyError(f"sft fraction must be in [0, 1], got {fraction}")
    if not positives:
        log.warning("sft subset requested from zero positive trajectories")
        return []
    by_task: dict[str, list[Trajectory]] = {}
    for traj in positives:
        if traj.is_guided and not allow_guided:
            raise AssemblyError(f"sft subset fed a guided trajectory: {traj.traj_id}")
        by_task.setdefault(traj.task_id, []).append(traj)

    out: list[SFTExample] = []
    for task_id, group in by_task.items():
        take = math.ceil(fraction * len(group))
        rng = random.Random(derive_seed("sft-subset", seed, task_id))
        chosen = sorted(rng.sample(range(len(group)), take))
        for idx in chosen:
            traj = group[idx]
            out.append(
                SFTExample(
                    task_id=task_id,
                    prompt=traj.steps[0].prompt,
                    target=traj.response_text(),
                    actions=traj.actions,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Full dataset build
# ---------------------------------------------------------------------------


def build_rlvr_dataset(
    trajectories: Sequence[Trajectory],
    records: Sequence[RewardRecord | EvaluationFailure],
    guided_trajectories: Sequence[Trajectory] = (),
    guided_records: Sequence[RewardRecord | EvaluationFailure] = (),
    guidance_list: Sequence[Guidance | EvaluationFailure] = (),  # a lost record is skipped
    *,
    sft_fraction: float = DEFAULT_SFT_FRACTION,
    max_pairs_per_task: int = DEFAULT_MAX_PAIRS_PER_TASK,
    seed: int = 0,
    include_guided_in_sft: bool = False,
) -> RlvrDataset:
    """Assemble pairs and the SFT subset from one round of scored rollouts."""
    rewards = _reward_map(records)
    guided_rewards = _reward_map(guided_records)
    by_ref = {t.traj_id: t for t in trajectories}
    guidance_by_id = {g.guidance_id: g for g in guidance_list if isinstance(g, Guidance)}

    pairs, stats = assemble_rollout_pairs(trajectories, records, max_pairs_per_task)
    n_rollout_pairs = len(pairs)
    seen = {(p.winner.trajectory_ref, p.loser.trajectory_ref) for p in pairs}

    skipped_guided = 0
    for traj in guided_trajectories:
        rec = guided_rewards.get(traj.traj_id)
        if rec is None or rec.reward != 1:
            continue
        guidance = guidance_by_id.get(traj.guidance_id or "")
        source = by_ref.get(guidance.source_trajectory_ref) if guidance else None
        source_rec = rewards.get(source.traj_id) if source else None
        if source is None or source_rec is None or source_rec.reward != 0:
            skipped_guided += 1
            log.info("guided success %s has no matching unguided failure; skipped", traj.traj_id)
            continue
        pair = assemble_guided_pair(source, source_rec, traj, rec)
        if _admit(pair, seen, stats):
            pairs.append(pair)

    positives = _scored(trajectories, rewards, 1)
    sft_pool = positives + _scored(guided_trajectories, guided_rewards, 1) if include_guided_in_sft else positives
    sft = sample_sft_subset(sft_pool, sft_fraction, seed, allow_guided=include_guided_in_sft)
    accounting = {
        "rollout_pairs": n_rollout_pairs,
        "guided_repair_pairs": len(pairs) - n_rollout_pairs,
        "pairs_total": len(pairs),
        "sft_examples": len(sft),
        "positives_total": len(positives),
        "negatives_total": len(_scored(trajectories, rewards, 0)),
        "guided_successes": sum(1 for r in guided_rewards.values() if r.reward == 1),
        "skipped_guided_no_failure": skipped_guided,
        **stats,
    }
    return RlvrDataset(pairs=tuple(pairs), sft=tuple(sft), accounting=accounting)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def emit_dataset(dataset: RlvrDataset, path: str | Path) -> None:
    write_records(path, DATASET_SCHEMA, [{"record": "accounting", **dataset.accounting}, *dataset.pairs, *dataset.sft])


_RECORDS = {cls.record: cls for cls in (PreferencePair, SFTExample)}


def _record_type(rec: dict) -> type:
    """The type of a dataset line, by its record tag; the accounting record is read as the dict it is."""
    kind = rec.get("record")
    if kind == "accounting":
        return dict
    if kind not in _RECORDS:
        raise ValueError(f"unknown record kind {kind!r}")
    return _RECORDS[kind]


def load_dataset(path: str | Path) -> RlvrDataset:
    """Load and audit: the accounting header must match the actual content."""
    accounting: dict = {}
    pairs: list[PreferencePair] = []
    sft: list[SFTExample] = []
    for item in read_declared(path, DATASET_SCHEMA, _record_type):
        if isinstance(item, dict):
            accounting = {k: v for k, v in item.items() if k != "record"}
        elif isinstance(item, PreferencePair):
            pairs.append(item)
        else:
            sft.append(item)
    if accounting:
        n_guided = sum(1 for p in pairs if p.provenance == PROVENANCE_GUIDED)
        n_rollout = len(pairs) - n_guided
        checks = {
            "pairs_total": len(pairs),
            "rollout_pairs": n_rollout,
            "guided_repair_pairs": n_guided,
            "sft_examples": len(sft),
        }
        for key, actual in checks.items():
            if key in accounting and accounting[key] != actual:
                raise TaskFormatError(
                    f"{path}: accounting mismatch for {key}: header {accounting[key]}, content {actual}"
                )
    return RlvrDataset(pairs=tuple(pairs), sft=tuple(sft), accounting=accounting)
