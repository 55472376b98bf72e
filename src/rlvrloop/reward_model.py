"""Linear pairwise reward model for best-of-k patch selection.

Features are cheap, deterministic functions of (problem statement, patch):
size and location statistics, lexical overlap with the problem statement,
an empty-patch indicator, and two issue-grounded signals that make
synthetic suites linearly separable: whether the patch edits the statement
the issue points at, and how closely the replacement matches the fix the
issue quotes. Scores are w . features; ranking is a pure argmax, so any
positive rescaling or constant shift of scores leaves selections unchanged.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CheckpointError, TrainingError
from .jsonl import read_document, write_document
from .prompts import HINT_LOCATION_RE
from .rollout import Patch, synth_patch
from .tasks import SynthTask
from .training import descend, pair_loss

log = logging.getLogger(__name__)

RM_SCHEMA = "pairwise_reward_model"
FEATURIZATION_VERSION = 1
N_FEATURES = 8

_QUOTE_RE = re.compile(r"`([^`]+)`")
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[+\-*=]")


def _tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


def _jaccard(a: set[str], b: set[str]) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def _normalize(stmt: str) -> str:
    return " ".join(stmt.split())


def _edit_line(location: str) -> int | None:
    # "line:3" for synthetic patches, "path:start:end" for real ones.
    parts = location.split(":")
    for piece in parts[1:2] if parts[0] == "line" else parts[-2:-1]:
        if piece.lstrip("-").isdigit():
            return int(piece)
    return None


@dataclass(frozen=True)
class _Issue:
    """The issue-side inputs of ``featurize``, computed once per statement."""

    statement: str
    tokens: set[str]
    hint_line: int | None
    quote_tokens: tuple[set[str], ...]
    normalized_quotes: tuple[str, ...]


def _issue(problem_statement: str) -> _Issue:
    hint = HINT_LOCATION_RE.search(problem_statement)
    quotes = _QUOTE_RE.findall(problem_statement)
    return _Issue(
        statement=problem_statement,
        tokens=_tokens(problem_statement),
        hint_line=None if hint is None else int(hint.group(1)),
        quote_tokens=tuple(_tokens(q) for q in quotes),
        normalized_quotes=tuple(_normalize(q) for q in quotes),
    )


def featurize(problem_statement: str, patch: Patch | None) -> np.ndarray:
    """Fixed-length feature vector; identical inputs give identical outputs."""
    return _featurize(_issue(problem_statement), patch)


def _featurize(issue: _Issue, patch: Patch | None) -> np.ndarray:
    f = np.zeros(N_FEATURES, dtype=np.float64)
    if patch is None or not patch.edits:
        f[0] = 1.0  # empty patch indicator
        return f
    replacement = "\n".join(text for _, text in patch.edits)
    replacement_tokens = _tokens(replacement)
    lines = [ln for ln in (_edit_line(loc) for loc, _ in patch.edits) if ln is not None]
    f[1] = float(len(patch.edits))
    f[2] = len(replacement) / 100.0
    f[3] = (sum(lines) / len(lines)) / 10.0 if lines else 0.0
    f[4] = _jaccard(replacement_tokens, issue.tokens)

    if issue.hint_line is not None and lines:
        f[5] = 1.0 if issue.hint_line in lines else 0.0

    if issue.quote_tokens:
        f[6] = max(_jaccard(q, replacement_tokens) for q in issue.quote_tokens)
        f[7] = 1.0 if _normalize(replacement) in issue.normalized_quotes else 0.0
    return f


@dataclass(frozen=True, eq=False)
class RMPairs:
    """Winner and loser feature vectors, one (P, N_FEATURES) row per pair."""

    winners: np.ndarray
    losers: np.ndarray

    def __len__(self) -> int:
        return len(self.winners)


@dataclass(frozen=True)
class RMConfig:
    learning_rate: float = 0.5
    epochs: int = 200


class PairwiseRM:
    def __init__(self, weights: np.ndarray | None = None):
        self.weights = (
            np.zeros(N_FEATURES, dtype=np.float64) if weights is None else np.asarray(weights, float)
        )

    def score(self, features: np.ndarray) -> float:
        return float(self.weights @ features)

    def save(self, path: str | Path) -> None:
        write_document(path, RM_SCHEMA, {
            "featurization_version": FEATURIZATION_VERSION,
            "weights": self.weights.tolist(),
        })

    @classmethod
    def load(cls, path: str | Path) -> "PairwiseRM":
        rec = read_document(path, RM_SCHEMA, "reward model")
        if rec.get("featurization_version") != FEATURIZATION_VERSION:
            raise CheckpointError(
                f"{path}: featurization version {rec.get('featurization_version')} does not match "
                f"current {FEATURIZATION_VERSION}; refeaturize before loading"
            )
        try:
            weights = np.asarray(rec["weights"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed reward model checkpoint: {exc!r}") from exc
        if weights.shape != (N_FEATURES,):
            raise CheckpointError(f"{path}: weights have shape {weights.shape}, expected ({N_FEATURES},)")
        if not np.isfinite(weights).all():
            raise CheckpointError(f"{path}: weights are not all finite")
        return cls(weights=weights)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def rm_train(
    pairs: RMPairs, config: RMConfig = RMConfig(), history_out: list | None = None
) -> PairwiseRM:
    """Full-batch gradient descent from w = 0; deterministic."""
    if not pairs:
        raise TrainingError("rm_train needs at least one (winner, loser) pair")
    diffs = pairs.winners - pairs.losers
    if not diffs.any():
        log.warning("every rm pair has identical features; gradient is zero, returning w = 0")
        return PairwiseRM()
    weights = np.zeros(N_FEATURES, dtype=np.float64)

    def step():
        # Same bits as a per-pair loop: z is a row-wise dot (``weights @ diff``
        # per row; ``diffs @ weights`` rounds differently), and the gradient is
        # summed pair by pair, left to right. ``0.0 - sum`` equals subtracting
        # the terms one by one from 0.0, signed zeros included.
        z = np.matmul(diffs[:, None, :], weights)[:, 0]
        loss, coef = pair_loss(z)
        return {"loss": loss}, (0.0 - np.cumsum(coef[:, None] * diffs, axis=0)[-1]) / len(diffs)

    descend(weights, step, config, history_out)
    return PairwiseRM(weights=weights)


def ranking_accuracy(rm: PairwiseRM, pairs: RMPairs) -> float:
    """Fraction of held-out pairs where the winner outscores the loser."""
    if not pairs:
        return 0.0
    hits = sum(1 for w, l in zip(pairs.winners, pairs.losers) if rm.score(w) > rm.score(l))
    return hits / len(pairs)


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankingResult:
    selected_index: int
    scores: tuple[float, ...]


def rank_best_of_k(
    rm: PairwiseRM, problem_statement: str, patches: Sequence[Patch | None]
) -> RankingResult:
    """Pick the highest-scoring patch; ties break toward the lowest index. Each distinct patch is scored once."""
    if len(patches) == 0:
        raise ValueError("cannot rank an empty candidate list")
    issue = _issue(problem_statement)
    scored: dict[Patch | None, float] = {}
    scores = []
    for p in patches:
        score = scored.get(p)
        if score is None:
            score = scored[p] = rm.score(_featurize(issue, p))
        scores.append(score)
    return RankingResult(selected_index=int(np.argmax(scores)), scores=tuple(scores))


def build_rm_training_pairs(preference_pairs, tasks_by_id: dict) -> RMPairs:
    """RM pairs from preference pairs, repair-step patches only.

    Sides are rebuilt from their (line, candidate) actions against the task's
    candidate table; sides without actions featurize as empty patches, which
    is exactly the signal the empty-patch indicator exists for. Each
    (task, actions) is featurized once.
    """
    sides: tuple[list, list] = ([], [])
    issues: dict[str, _Issue] = {}
    features: dict[tuple, np.ndarray] = {}
    for pair in preference_pairs:
        task = tasks_by_id.get(pair.task_id)
        if not isinstance(task, SynthTask):
            continue
        if task.id not in issues:
            issues[task.id] = _issue(task.issue)
        for out, side in zip(sides, (pair.winner, pair.loser)):
            key = (task.id, side.actions)
            f = features.get(key)
            if f is None:
                patch = None if side.actions is None else synth_patch(task, *side.actions)
                f = features[key] = _featurize(issues[task.id], patch)
            out.append(f)
    winners, losers = (np.array(out, dtype=np.float64).reshape(-1, N_FEATURES) for out in sides)
    return RMPairs(winners, losers)
