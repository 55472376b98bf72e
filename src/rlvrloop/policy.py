"""Desk-scale tabular policy over the two-step repair scaffold.

Per task the policy holds a logit vector over program lines (localization
step) and a logit matrix over replacement candidates per line (repair step).
The log-probability of a trajectory factorizes as
log p(line) + log p(candidate | line), each term a log-softmax at
temperature 1. Sampling temperature only affects rollout generation, never
training log-probabilities.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, TrainingError
from .jsonl import read_document, write_document
from .tasks import SynthTask

POLICY_SCHEMA = "tabular_policy"


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax; temperature 0 collapses to a one-hot argmax.

    Ties at temperature 0 break toward the lowest index, matching greedy
    decode conventions, and the result always sums to 1 up to float error.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        out = np.zeros_like(logits)
        out[int(np.argmax(logits))] = 1.0
        return out
    return softmax_rows(logits / temperature)[1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return softmax_rows(np.asarray(logits, dtype=np.float64))[0]


def softmax_rows(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_softmax, softmax) at temperature 1 along the last axis of a float64 array."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    return z - np.log(total), e / total


@dataclass
class TaskHead:
    line_logits: np.ndarray  # shape (L,)
    cand_logits: np.ndarray  # shape (L, m)

    def copy(self) -> "TaskHead":
        return TaskHead(self.line_logits.copy(), self.cand_logits.copy())

    def check_action(self, task_id: str, line: int, cand: int) -> None:
        n_lines, n_cands = self.cand_logits.shape
        if not 0 <= line < n_lines or not 0 <= cand < n_cands:
            raise TrainingError(
                f"{task_id}: action (line={line}, cand={cand}) outside policy table {n_lines}x{n_cands}"
            )


class TabularPolicy:
    """Mutable policy table keyed by task id."""

    def __init__(self, fine_tuned: bool = False):
        self.heads: dict[str, TaskHead] = {}
        self.fine_tuned = fine_tuned

    # -- construction -------------------------------------------------------

    @classmethod
    def uniform(cls, dataset) -> "TabularPolicy":
        """Zero logits (uniform distributions) for every synthetic task."""
        policy = cls()
        for task in dataset:
            if isinstance(task, SynthTask):
                policy.ensure_task(task.id, task.n_lines, task.n_candidates)
        return policy

    def ensure_task(self, task_id: str, n_lines: int, n_candidates: int) -> None:
        if task_id not in self.heads:
            self.heads[task_id] = TaskHead(
                line_logits=np.zeros(n_lines, dtype=np.float64),
                cand_logits=np.zeros((n_lines, n_candidates), dtype=np.float64),
            )

    def head(self, task_id: str) -> TaskHead:
        try:
            return self.heads[task_id]
        except KeyError:
            raise TrainingError(f"policy has no head for task {task_id!r}") from None

    # -- probabilities -------------------------------------------------------

    def logprob(self, task_id: str, line: int, cand: int) -> float:
        """log p(line) + log p(cand | line) at temperature 1."""
        head = self.head(task_id)
        head.check_action(task_id, line, cand)
        return float(log_softmax(head.line_logits)[line] + log_softmax(head.cand_logits[line])[cand])

    # -- flat parameter view (used by trainers and gradient checks) ----------

    def task_order(self) -> list[str]:
        return sorted(self.heads)

    def theta(self) -> np.ndarray:
        chunks = []
        for tid in self.task_order():
            head = self.heads[tid]
            chunks.append(head.line_logits.ravel())
            chunks.append(head.cand_logits.ravel())
        if not chunks:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(chunks)

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        offset = 0
        for tid in self.task_order():
            head = self.heads[tid]
            n = head.line_logits.size
            head.line_logits = theta[offset : offset + n].copy()
            offset += n
            n = head.cand_logits.size
            head.cand_logits = theta[offset : offset + n].reshape(head.cand_logits.shape).copy()
            offset += n
        if offset != theta.size:
            raise TrainingError(f"theta size {theta.size} does not match policy ({offset} params)")

    def clone(self) -> "TabularPolicy":
        out = TabularPolicy(fine_tuned=self.fine_tuned)
        out.heads = {tid: head.copy() for tid, head in self.heads.items()}
        return out

    def frozen(self) -> "TabularPolicy":
        """A copy whose logit arrays are read-only."""
        out = self.clone()
        for head in out.heads.values():
            head.line_logits.setflags(write=False)
            head.cand_logits.setflags(write=False)
        return out

    # -- checkpoints ----------------------------------------------------------

    def save(self, path: str | Path, provenance: dict | None = None) -> None:
        write_document(path, POLICY_SCHEMA, {
            "fine_tuned": self.fine_tuned,
            "provenance": provenance or {},
            "heads": {
                tid: {
                    "line_logits": self.heads[tid].line_logits.tolist(),
                    "cand_logits": self.heads[tid].cand_logits.tolist(),
                }
                for tid in self.task_order()
            },
        })

    @classmethod
    def load(cls, path: str | Path) -> "TabularPolicy":
        rec = read_document(path, POLICY_SCHEMA, "policy")
        policy = cls(fine_tuned=bool(rec.get("fine_tuned", False)))
        try:
            for tid, head in rec["heads"].items():
                policy.heads[tid] = TaskHead(
                    line_logits=np.asarray(head["line_logits"], dtype=np.float64),
                    cand_logits=np.asarray(head["cand_logits"], dtype=np.float64),
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed policy checkpoint: {exc!r}") from exc
        for tid, head in policy.heads.items():
            lines, table = head.line_logits.shape, head.cand_logits.shape
            if len(table) != 2 or lines != table[:1]:
                raise CheckpointError(
                    f"{path}: task {tid}: line logits of shape {lines} do not fit candidate logits of shape {table}"
                )
            if not (np.isfinite(head.line_logits).all() and np.isfinite(head.cand_logits).all()):
                raise CheckpointError(f"{path}: task {tid}: logits are not all finite")
        return policy


class ReferencePolicy:
    """Frozen snapshot used as the trust region anchor during DPO.

    The underlying arrays are marked read-only, so training cannot move it.
    """

    def __init__(self, policy: TabularPolicy):
        self._policy = policy.frozen()

    def head(self, task_id: str) -> TaskHead:
        """The frozen (read-only) head of one task."""
        return self._policy.head(task_id)

    def logprob(self, task_id: str, line: int, cand: int) -> float:
        return self._policy.logprob(task_id, line, cand)
