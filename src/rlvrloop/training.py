"""SFT and DPO optimization of the tabular policy.

Both objectives are optimized by full-batch gradient descent with analytic
gradients; no adaptive moments, no minibatching, no stochastic anything, so
a fixed (data, config, initial parameters) triple reproduces bit-identical
final parameters.

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
from typing import Sequence

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


def _require_actions(kind: str, task_id: str, actions) -> tuple[int, int]:
    if actions is None:
        raise TrainingError(f"{kind} for task {task_id} carries no (line, candidate) actions")
    return actions


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
# SFT
# ---------------------------------------------------------------------------


class _SFTObjective:
    """Mean NLL of the examples' actions, compiled once against one policy."""

    def __init__(self, policy: TabularPolicy, examples: Sequence[SFTExample]):
        actions = []
        for ex in examples:
            line, cand = _require_actions("sft example", ex.task_id, ex.actions)
            policy.head(ex.task_id).check_action(ex.task_id, line, cand)
            actions.append((ex.task_id, line, cand))
        self.packed = _Packed(policy, actions)
        self._weights = np.full(len(actions), -1.0 / len(actions))

    def loss(self) -> float:
        logprobs = self.packed.logprobs()
        return float(_running_sum(-logprobs) / logprobs.size)

    def loss_and_grad(self) -> tuple[float, np.ndarray]:
        loss = self.loss()
        return loss, self.packed.grad(self._weights)


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
    objective = _SFTObjective(policy, examples)
    theta = objective.packed.theta
    try:
        for epoch in range(config.epochs):
            loss, grad = objective.loss_and_grad()
            if history_out is not None:
                history_out.append({"epoch": epoch, "loss": loss})
            theta -= config.learning_rate * grad
        final = objective.loss()
    finally:
        objective.packed.write(policy)
    if history_out is not None:
        history_out.append({"epoch": config.epochs, "loss": final})
    policy.fine_tuned = True
    return policy


# ---------------------------------------------------------------------------
# DPO
# ---------------------------------------------------------------------------


class _DPOObjective:
    """DPO over the pairs, compiled once; reference log-ratios computed once.

    Actions alternate winner, loser, pair by pair.
    """

    def __init__(
        self,
        policy: TabularPolicy,
        reference: ReferencePolicy,
        pairs: Sequence[PreferencePair],
        beta: float,
    ):
        actions = []
        for pair in pairs:
            w = _require_actions("pair winner", pair.task_id, pair.winner.actions)
            l = _require_actions("pair loser", pair.task_id, pair.loser.actions)
            for source in (policy, reference):
                head = source.head(pair.task_id)
                head.check_action(pair.task_id, *w)
                head.check_action(pair.task_id, *l)
            actions += [(pair.task_id, *w), (pair.task_id, *l)]
        self.packed = _Packed(policy, actions)
        ref_logprobs = _Packed(reference, actions).logprobs()
        self._ref_delta = ref_logprobs[0::2] - ref_logprobs[1::2]
        self.beta = beta

    def forward(self) -> tuple[float, float, np.ndarray]:
        """(mean loss, mean margin, per-pair margin z) at the current theta."""
        logprobs = self.packed.logprobs()
        z = self.beta * ((logprobs[0::2] - logprobs[1::2]) - self._ref_delta)
        loss = _running_sum(np.logaddexp(0.0, -z)) / z.size  # -log sigmoid(z), overflow-safe
        return float(loss), float(np.mean(z)), z

    def grad(self, z: np.ndarray) -> np.ndarray:
        """Gradient at the last forward(): d/dtheta -log sigmoid(z) = -sigmoid(-z) * dz/dtheta."""
        coeff = -(1.0 / (1.0 + np.exp(z))) * self.beta / z.size
        weights = np.empty(2 * z.size, dtype=np.float64)
        weights[0::2] = coeff
        weights[1::2] = -coeff
        return self.packed.grad(weights)


def dpo_loss(
    policy: TabularPolicy,
    reference: ReferencePolicy,
    pairs: Sequence[PreferencePair],
    beta: float,
) -> float:
    if not pairs:
        return 0.0
    return _DPOObjective(policy, reference, pairs, beta).forward()[0]


def dpo_loss_and_grad(
    policy: TabularPolicy,
    reference: ReferencePolicy,
    pairs: Sequence[PreferencePair],
    beta: float,
) -> tuple[float, np.ndarray]:
    if not pairs:
        return 0.0, np.zeros_like(policy.theta())
    objective = _DPOObjective(policy, reference, pairs, beta)
    loss, _, z = objective.forward()
    return loss, objective.packed.in_policy_layout(objective.grad(z), policy)


def dpo_train(
    policy: TabularPolicy,
    pairs: Sequence[PreferencePair],
    config: DPOConfig,
    reference: ReferencePolicy | None = None,
    history_out: list | None = None,
) -> TabularPolicy:
    """Full-batch DPO against a reference frozen at entry.

    Aborts with TrainingDivergedError if the loss ever exceeds ten times
    its initial value, which on this objective only happens when the
    learning rate is wildly too hot; the policy keeps the updates made
    before the failing epoch.
    """
    if reference is None:
        reference = ReferencePolicy(policy)
    if not pairs:
        log.warning("dpo_train called with no pairs; policy unchanged")
        return policy
    objective = _DPOObjective(policy, reference, pairs, config.beta)
    theta = objective.packed.theta
    initial_loss: float | None = None
    try:
        for epoch in range(config.epochs):
            loss, margin, z = objective.forward()
            if initial_loss is None:
                initial_loss = loss
            if loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
                raise TrainingDivergedError(
                    f"dpo loss {loss:.4f} exceeded {DIVERGENCE_FACTOR}x initial {initial_loss:.4f} "
                    f"at epoch {epoch}"
                )
            if history_out is not None:
                history_out.append({"epoch": epoch, "loss": loss, "margin": margin})
            theta -= config.learning_rate * objective.grad(z)
        if history_out is not None:
            loss, margin, _ = objective.forward()
            history_out.append({"epoch": config.epochs, "loss": loss, "margin": margin})
    finally:
        objective.packed.write(policy)
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
