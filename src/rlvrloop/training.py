"""SFT and DPO optimization of the tabular policy.

Both objectives, and the reward model's, are optimized by one full-batch
gradient-descent loop, ``descend``, with analytic gradients; no adaptive
moments, no minibatching, no stochastic anything, so a fixed (data, config,
initial parameters) triple reproduces bit-identical final parameters. DPO
and the reward model share one pairwise logistic loss, ``pair_loss``. Only
DPO guards against divergence.

SFT minimizes mean negative log-likelihood of positive responses. DPO
minimizes

    mean over pairs of  -log sigmoid(beta * ((log pi(y_w|x) - log ref(y_w|x))
                                           - (log pi(y_l|x) - log ref(y_l|x))))

against a frozen reference snapshot. At pi == ref every pair contributes
exactly ln 2. The per-task softmax heads make the gradients closed-form:
d log softmax(s)[a] / d s_j = 1[j == a] - softmax(s)_j.

Each trainer compiles its data once into index arrays over the heads it
names, stacked by shape, so an epoch is one vectorised forward and backward
pass. The arithmetic keeps the order of a per-pair loop (sequential loss
sums, gradient terms added pair by pair), so results are bit-identical to
one; tests/test_training.py keeps that loop as the reference.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import TrainingDivergedError, TrainingError
from .pairs import PreferencePair, SFTExample
from .policy import ReferencePolicy, TabularPolicy, TaskHead, softmax_rows

log = logging.getLogger(__name__)

DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class DPOConfig:
    beta: float = 0.1
    learning_rate: float = 0.5
    epochs: int = 200

    def __post_init__(self):
        if self.beta <= 0:
            raise TrainingError(f"beta must be > 0, got {self.beta}")
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise TrainingError(f"epochs must be >= 0, got {self.epochs}")


def _action(kind: str, task_id: str, actions, *sources) -> tuple[str, int, int]:
    """(task_id, line, cand), once the actions exist and fit each source's head for the task."""
    if actions is None:
        raise TrainingError(f"{kind} for task {task_id} carries no (line, candidate) actions")
    for source in sources:
        source.head(task_id).check_action(task_id, *actions)
    return (task_id, *actions)


def _running_sum(values: np.ndarray) -> float:
    """0.0 + v0 + v1 + ..., added left to right like a scalar accumulator."""
    return np.cumsum(np.concatenate(([0.0], values)))[-1]


@dataclass
class _Group:
    """Tasks of one (n_lines, n_candidates) shape and the actions that name them."""

    task_ids: list[str]
    start: int
    n_lines: int
    n_cands: int
    act: np.ndarray  # positions in the action list
    rows: np.ndarray
    lines: np.ndarray
    cands: np.ndarray

    @property
    def size(self) -> int:
        return len(self.task_ids) * self.n_lines * (1 + self.n_cands)

    def blocks(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(T, L) line block and (T, L, m) candidate block, as views into flat."""
        n_rows, n_lines, n_cands = len(self.task_ids), self.n_lines, self.n_cands
        mid = self.start + n_rows * n_lines
        return (
            flat[self.start : mid].reshape(n_rows, n_lines),
            flat[mid : mid + n_rows * n_lines * n_cands].reshape(n_rows, n_lines, n_cands),
        )

    def grad_index(self) -> np.ndarray:
        """Flat gradient positions, per action: line block, line one-hot, candidate row, one-hot."""
        line_at = self.start + self.rows * self.n_lines
        cand_start = self.start + len(self.task_ids) * self.n_lines
        row_at = cand_start + (self.rows * self.n_lines + self.lines) * self.n_cands
        line_idx = np.column_stack([line_at[:, None] + np.arange(self.n_lines), line_at + self.lines])
        cand_idx = np.column_stack([row_at[:, None] + np.arange(self.n_cands), row_at + self.cands])
        return np.concatenate([line_idx.ravel(), cand_idx.ravel()])


class _Packed:
    """The heads a list of (task, line, cand) actions names, stacked by shape.

    Tasks are grouped by (n_lines, n_candidates), so a suite of mixed sizes
    needs no padding (padding would change numpy's summation order). Every
    group's blocks are views into one flat buffer, ``theta``, so a gradient
    step is one array update. Actions must already be validated.
    """

    def __init__(self, source, actions: Sequence[tuple[str, int, int]]):
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, (tid, _, _) in enumerate(actions):
            by_shape.setdefault(source.head(tid).cand_logits.shape, []).append(i)
        self.n_actions = len(actions)
        self.groups: list[_Group] = []
        start = 0
        for (n_lines, n_cands), act in by_shape.items():
            row_of = {tid: row for row, tid in enumerate(dict.fromkeys(actions[i][0] for i in act))}
            group = _Group(
                task_ids=list(row_of),
                start=start,
                n_lines=n_lines,
                n_cands=n_cands,
                act=np.array(act, dtype=np.intp),
                rows=np.array([row_of[actions[i][0]] for i in act], dtype=np.intp),
                lines=np.array([actions[i][1] for i in act], dtype=np.intp),
                cands=np.array([actions[i][2] for i in act], dtype=np.intp),
            )
            self.groups.append(group)
            start += group.size
        self.theta = np.empty(start, dtype=np.float64)
        for group in self.groups:
            line, cand = group.blocks(self.theta)
            for row, tid in enumerate(group.task_ids):
                head = source.head(tid)
                line[row] = head.line_logits
                cand[row] = head.cand_logits
        self._grad_index = np.concatenate([g.grad_index() for g in self.groups])
        self._probs: list[tuple[np.ndarray, np.ndarray]] = []

    def logprobs(self) -> np.ndarray:
        """log pi(line, cand | task) per action; keeps the softmaxes for grad()."""
        out = np.empty(self.n_actions, dtype=np.float64)
        self._probs = []
        for group in self.groups:
            line, cand = group.blocks(self.theta)
            log_line, p_line = softmax_rows(line)
            log_cand, p_cand = softmax_rows(cand)
            out[group.act] = (
                log_line[group.rows, group.lines] + log_cand[group.rows, group.lines, group.cands]
            )
            self._probs.append((p_line[group.rows], p_cand[group.rows, group.lines]))
        return out

    def grad(self, weights: np.ndarray) -> np.ndarray:
        """sum_a weights[a] * d log pi(action a) / d theta, at the last logprobs().

        d log softmax(s)[a] / d s_j = 1[j == a] - softmax(s)_j. np.add.at adds
        in index order, and the index list visits every parameter in action
        order, so each one sums its terms in the order a per-action loop would.
        """
        values = []
        for group, (p_line, p_cand) in zip(self.groups, self._probs):
            w = weights[group.act][:, None]
            values.append(np.column_stack([-(w * p_line), w]).ravel())
            values.append(np.column_stack([-(w * p_cand), w]).ravel())
        grad = np.zeros_like(self.theta)
        np.add.at(grad, self._grad_index, np.concatenate(values))
        return grad

    def write(self, policy: TabularPolicy, flat: np.ndarray | None = None) -> None:
        """Copy flat (default: theta) into the policy's heads for the packed tasks."""
        flat = self.theta if flat is None else flat
        for group in self.groups:
            line, cand = group.blocks(flat)
            for row, tid in enumerate(group.task_ids):
                head = policy.heads[tid]
                head.line_logits = line[row].copy()
                head.cand_logits = cand[row].copy()

    def in_policy_layout(self, flat: np.ndarray, policy: TabularPolicy) -> np.ndarray:
        """flat laid out like policy.theta(), zero for the heads outside the pack."""
        shadow = TabularPolicy()
        shadow.heads = {
            tid: TaskHead(np.zeros_like(head.line_logits), np.zeros_like(head.cand_logits))
            for tid, head in policy.heads.items()
        }
        self.write(shadow, flat)
        return shadow.theta()


# ---------------------------------------------------------------------------
# The shared pieces: one descent loop, one pairwise loss
# ---------------------------------------------------------------------------


def descend(theta: np.ndarray, step: Callable, config, history_out: list | None) -> None:
    """Full-batch gradient descent on theta, in place, for config.epochs epochs.

    step() returns (history row, gradient) at the current theta. Each epoch
    appends its row, numbered, then takes theta -= learning_rate * gradient;
    one more row, at the final theta, follows the last epoch.
    """
    rows = [] if history_out is None else history_out
    for epoch in range(config.epochs):
        row, grad = step()
        rows.append({"epoch": epoch, **row})
        theta -= config.learning_rate * grad
    rows.append({"epoch": config.epochs, **step()[0]})


def pair_loss(z: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean -log sigmoid(z), summed pair by pair and overflow-safe, and sigmoid(-z) = -d/dz of each term."""
    return float(_running_sum(np.logaddexp(0.0, -z)) / z.size), 1.0 / (1.0 + np.exp(z))


# ---------------------------------------------------------------------------
# SFT
# ---------------------------------------------------------------------------


def sft_train(
    policy: TabularPolicy,
    examples: Sequence[SFTExample],
    config: DPOConfig,
    history_out: list | None = None,
) -> TabularPolicy:
    """Full-batch gradient descent on mean NLL; mutates and returns policy."""
    if not examples:
        log.warning("sft_train called with no examples; policy unchanged")
        return policy
    actions = [_action("sft example", ex.task_id, ex.actions, policy) for ex in examples]
    packed = _Packed(policy, actions)
    weights = np.full(len(actions), -1.0 / len(actions))

    def step():
        logprobs = packed.logprobs()
        return {"loss": float(_running_sum(-logprobs) / logprobs.size)}, packed.grad(weights)

    try:
        descend(packed.theta, step, config, history_out)
    finally:
        packed.write(policy)
    policy.fine_tuned = True
    return policy


# ---------------------------------------------------------------------------
# DPO
# ---------------------------------------------------------------------------


def _dpo(policy: TabularPolicy, reference: ReferencePolicy, pairs: Sequence[PreferencePair], beta: float):
    """The pairs packed over the policy (winner, loser, pair by pair), and a function
    giving (mean loss, mean margin z, packed gradient) at the packed theta."""
    actions = []
    for pair in pairs:
        actions.append(_action("pair winner", pair.task_id, pair.winner.actions, policy, reference))
        actions.append(_action("pair loser", pair.task_id, pair.loser.actions, policy, reference))
    packed = _Packed(policy, actions)
    ref_logprobs = _Packed(reference, actions).logprobs()
    ref_delta = ref_logprobs[0::2] - ref_logprobs[1::2]

    def forward():
        logprobs = packed.logprobs()
        z = beta * ((logprobs[0::2] - logprobs[1::2]) - ref_delta)
        loss, sigmoid_neg = pair_loss(z)
        coeff = -sigmoid_neg * beta / z.size  # d loss / d (log pi(y_w) - log pi(y_l))
        return loss, float(np.mean(z)), packed.grad(np.column_stack([coeff, -coeff]).ravel())

    return packed, forward


def dpo_loss(
    policy: TabularPolicy,
    reference: ReferencePolicy,
    pairs: Sequence[PreferencePair],
    beta: float,
) -> float:
    return dpo_loss_and_grad(policy, reference, pairs, beta)[0]


def dpo_loss_and_grad(
    policy: TabularPolicy,
    reference: ReferencePolicy,
    pairs: Sequence[PreferencePair],
    beta: float,
) -> tuple[float, np.ndarray]:
    if not pairs:
        return 0.0, np.zeros_like(policy.theta())
    packed, forward = _dpo(policy, reference, pairs, beta)
    loss, _, grad = forward()
    return loss, packed.in_policy_layout(grad, policy)


def dpo_train(
    policy: TabularPolicy,
    pairs: Sequence[PreferencePair],
    config: DPOConfig,
    reference: ReferencePolicy | None = None,
    history_out: list | None = None,
) -> TabularPolicy:
    """Full-batch DPO against a reference frozen at entry.

    Aborts with TrainingDivergedError if the loss at any epoch, or at the
    final theta, exceeds ten times its initial value, which on this
    objective only happens when the learning rate is wildly too hot; the
    policy keeps the updates made before the failing epoch.
    """
    if reference is None:
        reference = ReferencePolicy(policy)
    if not pairs:
        log.warning("dpo_train called with no pairs; policy unchanged")
        return policy
    packed, forward = _dpo(policy, reference, pairs, config.beta)
    losses: list[float] = []

    def step():
        loss, margin, grad = forward()
        losses.append(loss)
        if loss > DIVERGENCE_FACTOR * max(losses[0], 1e-12):
            raise TrainingDivergedError(
                f"dpo loss {loss:.4f} exceeded {DIVERGENCE_FACTOR}x initial {losses[0]:.4f} "
                f"at epoch {len(losses) - 1}"
            )
        return {"loss": loss, "margin": margin}, grad

    try:
        descend(packed.theta, step, config, history_out)
    finally:
        packed.write(policy)
    return policy


# ---------------------------------------------------------------------------
# Training history
# ---------------------------------------------------------------------------


def write_history_csv(history: Sequence[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not history:
        path.write_text("", encoding="utf-8")
        return
    fields = list(history[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
