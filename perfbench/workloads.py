"""The benchmark workloads and the probes that measure rlvrloop's layers.

Every workload is a closed-loop batch job: one caller, and the next
iteration starts only after the previous one completes. Each workload is
driven only through rlvrloop's public functions; the per-layer numbers come
from spans around those calls (``Probe``), never from inside the package.

- ``loop-ref``: ``rlvrloop run-loop`` at the reference config through
  ``cli.main``. DPO training dominates it.
- ``best-of-k``: rollout -> evaluate -> guide -> reattempt -> evaluate ->
  assemble -> reward-model training on a training suite, then best-of-k
  reranking on a held-out suite. No policy training.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

from rlvrloop import cli, loop
from rlvrloop.backends import PolicyBackend, TabularPolicyBackend
from rlvrloop.evaluator import EvaluationFailure, read_rewards, write_rewards
from rlvrloop.jsonl import derive_seed
from rlvrloop.loop import (
    PHASES,
    RunPaths,
    RunState,
    count_infra_errors,
    evaluate_trajectories,
    guide_failures,
    load_config,
    reattempt_with_guidance,
    rollout_all_tasks,
    write_guidance,
)
from rlvrloop.metrics import aggregate
from rlvrloop.pairs import build_rlvr_dataset, emit_dataset, load_dataset
from rlvrloop.policy import TabularPolicy
from rlvrloop.reward_model import RMConfig, build_rm_training_pairs, rank_best_of_k, rm_train
from rlvrloop.rollout import read_trajectories, write_trajectories
from rlvrloop.tasks import generate_synth_suite

from .tracing import Tracer, totals

# The sixteen artifacts that run-loop and the stepwise CLI both write; the
# traced loop must reproduce each of them hash for hash.
COMPARABLE = (
    "tasks.jsonl", "policy_init.json", "rollouts.jsonl", "rewards.jsonl",
    "guidance.jsonl", "guided_rollouts.jsonl", "guided_rewards.jsonl",
    "dataset.jsonl", "policy_sft.json", "sft_log.csv", "policy_final.json",
    "dpo_log.csv", "eval_rollouts.jsonl", "eval_rewards.jsonl",
    "report.json", "report.txt",
)

OUTCOMES = ("pass", "fail", "error", "empty", "infra")


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> unit, in report order
# ---------------------------------------------------------------------------

# Span name whose summed duration is each per-layer time.
SPAN_TIMES = {
    "training.sft_s": "training.sft_train",
    "training.dpo_s": "training.dpo_train",
    "rollout.busy_s": "rollout.rollout_all_tasks",
    "rollout.guided_busy_s": "rollout.reattempt_with_guidance",
    "evaluator.busy_s": "evaluator.evaluate_trajectories",
    "guidance.busy_s": "guidance.guide_failures",
    "pairs.assemble_s": "pairs.build_rlvr_dataset",
    "pairs.emit_s": "pairs.emit_dataset",
    "pairs.load_s": "pairs.load_dataset",
    "reward_model.train_s": "reward_model.rm_train",
    "reward_model.rank_s": "reward_model.rank_best_of_k",
    "tasks.generate_s": "tasks.generate_synth_suite",
    "jsonl.write_s": "jsonl.write",
    "jsonl.read_s": "jsonl.read",
    "jsonl.hash_s": "jsonl.hash",
    "policy.save_s": "policy.save",
    "policy.load_s": "policy.load",
    "metrics.aggregate_s": "metrics.aggregate",
    **{f"loop.phase.{p}_s": f"loop.phase.{p}" for p in PHASES},
}

PER_LAYER = {
    "training.sft_s": "s",
    "training.dpo_s": "s",
    "training.dpo_ms_per_epoch": "ms",
    "training.dpo_pair_epochs_per_s": "1/s",
    "training.dpo_pairs": "count",
    "training.dpo_final_loss": "nat",
    "training.dpo_final_margin": "nat",
    "rollout.trajectories": "count",
    "rollout.busy_s": "s",
    "rollout.us_per_traj": "us",
    "rollout.guided_busy_s": "s",
    "rollout.dead_slots": "count",
    "backends.generate_calls": "count",
    "backends.generate_s": "s",
    "backends.retries": "count",
    "evaluator.records": "count",
    "evaluator.busy_s": "s",
    "evaluator.us_per_record": "us",
    "evaluator.p50_ms": "ms",
    "evaluator.p95_ms": "ms",
    **{f"evaluator.{o}": "count" for o in OUTCOMES},
    "evaluator.budget_zeroed": "count",
    "guidance.records": "count",
    "guidance.busy_s": "s",
    "guidance.guided_success_ratio": "ratio",
    "pairs.assemble_s": "s",
    "pairs.pairs": "count",
    "pairs.sft_examples": "count",
    "pairs.emit_s": "s",
    "pairs.load_s": "s",
    "reward_model.pairs": "count",
    "reward_model.train_s": "s",
    "reward_model.pair_epochs_per_s": "1/s",
    "reward_model.rank_s": "s",
    "reward_model.us_per_candidate": "us",
    "tasks.generate_s": "s",
    "tasks.us_per_task": "us",
    "jsonl.write_s": "s",
    "jsonl.read_s": "s",
    "jsonl.records_written": "count",
    "jsonl.bytes_written": "B",
    "jsonl.hash_s": "s",
    "policy.save_s": "s",
    "policy.load_s": "s",
    "policy.checkpoint_bytes": "B",
    "metrics.aggregate_s": "s",
    **{f"loop.phase.{p}_s": "s" for p in PHASES},
    "loop.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def outcome_of(rec) -> str:
    if isinstance(rec, EvaluationFailure):
        return "infra"
    if rec.empty_patch:
        return "empty"
    if rec.reward == 1:
        return "pass"
    return "error" if "error" in rec.per_test.values() else "fail"


def dead_slots(trajectories) -> int:
    """Placeholder trajectories for slots whose backend never answered."""
    return sum(1 for t in trajectories if not t.steps[-1].prompt)


# ---------------------------------------------------------------------------
# Probe: spans plus the counts beside them
# ---------------------------------------------------------------------------


class CountingBackend(PolicyBackend):
    """Delegates to a backend and counts its calls and busy time."""

    def __init__(self, inner: PolicyBackend, counts: Counter):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.max_concurrency = inner.max_concurrency
        self.counts = counts
        self._lock = threading.Lock()

    def generate(self, prompt, params):
        start = time.perf_counter()
        try:
            return self.inner.generate(prompt, params)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.counts["backends.generate_calls"] += 1
                self.counts["backends.generate_s"] += elapsed


class Probe:
    """Spans and counters for one unit of work (a set-up or an iteration).

    With tracing off every method is a pass-through, so the untraced run
    executes the same calls without measuring them.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.enabled = tracer.enabled
        self.counts: Counter = Counter()
        self.eval_ms: list[float] = []

    def span(self, name: str):
        return self.tracer.span(name)

    def backend(self, inner: PolicyBackend) -> PolicyBackend:
        return CountingBackend(inner, self.counts) if self.enabled else inner

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value

    def rollouts(self, trajectories) -> None:
        self.add("rollout.trajectories", len(trajectories))
        self.add("rollout.dead_slots", dead_slots(trajectories))

    def rewards(self, records) -> None:
        if not self.enabled:
            return
        self.counts["evaluator.records"] += len(records)
        for rec in records:
            self.counts[f"evaluator.{outcome_of(rec)}"] += 1
            if isinstance(rec, EvaluationFailure):
                continue
            self.eval_ms.append(rec.wall_time_s * 1e3)
            if rec.stacktrace and rec.stacktrace.startswith("evaluation exceeded"):
                self.counts["evaluator.budget_zeroed"] += 1

    def write(self, fn, items, path: Path) -> None:
        """A JSONL writer call ``fn(items, path)``, with the records and bytes it wrote."""
        with self.span("jsonl.write"):
            fn(items, path)
        self.add("jsonl.records_written", len(items))
        if self.enabled:
            self.counts["jsonl.bytes_written"] += Path(path).stat().st_size

    def read(self, fn, *args):
        with self.span("jsonl.read"):
            return fn(*args)

    def base(self, run_id: str) -> dict[str, float]:
        """Additive quantities of this unit: span times, counts, percentiles."""
        spans = self.tracer.of_run(run_id)
        by_name = totals(spans)
        out = {metric: by_name.get(name, 0.0) for metric, name in SPAN_TIMES.items()}
        out.update(self.counts)
        if "loop.run" in by_name:
            phases = sum(by_name.get(f"loop.phase.{p}", 0.0) for p in PHASES)
            out["loop.unattributed_s"] = by_name["loop.run"] - phases
        out["evaluator.p50_ms"] = _percentile(self.eval_ms, 0.50)
        out["evaluator.p95_ms"] = _percentile(self.eval_ms, 0.95)
        return out


def layer_metrics(base: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric from summed base quantities (absent ones are 0)."""
    b = Counter(base)
    out = {name: float(b[name]) for name in PER_LAYER}
    out["training.dpo_ms_per_epoch"] = _per(b["training.dpo_s"], b["training.dpo_epochs"], 1e3)
    out["training.dpo_pair_epochs_per_s"] = _per(
        b["training.dpo_pairs"] * b["training.dpo_epochs"], b["training.dpo_s"]
    )
    out["rollout.us_per_traj"] = _per(
        b["rollout.busy_s"] + b["rollout.guided_busy_s"], b["rollout.trajectories"], 1e6
    )
    out["backends.retries"] = b["backends.generate_calls"] - 2 * b["rollout.trajectories"]
    out["evaluator.us_per_record"] = _per(b["evaluator.busy_s"], b["evaluator.records"], 1e6)
    out["guidance.guided_success_ratio"] = _per(b["guidance.guided_successes"], b["guidance.guided_attempts"])
    out["reward_model.pair_epochs_per_s"] = _per(
        b["reward_model.pairs"] * b["reward_model.epochs"], b["reward_model.train_s"]
    )
    out["reward_model.us_per_candidate"] = _per(b["reward_model.rank_s"], b["reward_model.candidates"], 1e6)
    out["tasks.us_per_task"] = _per(b["tasks.generate_s"], b["tasks.generated"], 1e6)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """One iteration as its untimed checks found it.

    Each workload's ``run`` does only the timed work and returns its raw
    outputs; ``verify`` turns them into a Result after the clock stops.
    """

    attempts: int
    failed: int
    quality: float  # the workload's pass_at_1
    failed_checks: list[str]


def _evaluate(probe: Probe, dataset, trajectories, dest: Path, workers: int):
    """Score trajectories, then write the reward records to ``dest``."""
    with probe.span("evaluator.evaluate_trajectories"):
        records = evaluate_trajectories(dataset, trajectories, workers=workers)
    probe.rewards(records)
    probe.write(write_rewards, records, dest)
    return records


def _guided_outcomes(probe: Probe, guided_records) -> None:
    probe.add("guidance.guided_attempts", sum(1 for r in guided_records if outcome_of(r) != "infra"))
    probe.add("guidance.guided_successes", sum(1 for r in guided_records if outcome_of(r) == "pass"))


class LoopRef:
    """``rlvrloop run-loop`` at the reference config, called through ``cli.main``.

    Iteration ``index`` runs input ``index % CYCLE``: ``CYCLE`` seeds derived
    from the workload seed, in turn. DPO time is proportional to the number
    of preference pairs, which varies with the seed by about 10%, so a run
    reports over whole cycles of the same inputs, whatever the host's speed.
    Every input after the first cycle is a repeat and must hash alike; the
    traced run repeats each input untraced and traced.
    """

    name = "loop-ref"
    CYCLE = 3
    # The reference config; the epochs are run-loop's defaults.
    SIZES = dict(count=64, lines=6, candidates=8, rollouts=16, sft_epochs=100, dpo_epochs=200)

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed = seed
        self.workdir = workdir
        s = self.SIZES
        self.overrides = [
            f"run.workers={workers}",
            f"run.rollouts_n={s['rollouts']}",
            f"tasks.synth_count={s['count']}",
            f"tasks.synth_lines={s['lines']}",
            f"tasks.synth_candidates={s['candidates']}",
            f"sft.sft_epochs={s['sft_epochs']}",
            f"dpo.dpo_epochs={s['dpo_epochs']}",
        ]
        self.manifests: dict[int, list] = {}

    def setup(self, probe: Probe) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        load_config(None, self.overrides)  # rejects a bad override before timing

    def run(self, probe: Probe, index: int) -> dict:
        seed = derive_seed(self.seed, self.name, index % self.CYCLE)
        out = self.workdir / f"run-{index}-{'traced' if probe.enabled else 'plain'}"
        argv = ["run-loop", "--output-dir", str(out), "--seed", str(seed)]
        for item in self.overrides:
            argv += ["--set", item]
        with contextlib.redirect_stdout(io.StringIO()):
            if probe.enabled:
                with instrument_loop(probe), probe.span("loop.run"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        return {"dir": out, "exit": code, "seed": seed}

    def verify(self, out: dict) -> Result:
        run_dir, code = out["dir"], out["exit"]
        checks = [] if code == 0 else [f"run-loop exited {code}"]
        try:
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
            report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            shutil.rmtree(run_dir, ignore_errors=True)
            return Result(1, 1, 0.0, checks + [f"run-loop left no {Path(exc.filename).name}"])
        hashed = {a["path"] for a in manifest}
        if not set(COMPARABLE) <= hashed:
            checks.append(f"manifest lacks {sorted(set(COMPARABLE) - hashed)}")
        if self.manifests.setdefault(out["seed"], manifest) != manifest:
            checks.append("artifact hashes differ between repeats of one input")
        pre = report["pre_training"]["pass_at_1"]
        post = report["post_training"]["pass_at_1"]
        if not post > pre:
            checks.append(f"post-training pass@1 {post} does not exceed pre-training {pre}")
        paths = RunPaths(run_dir)
        attempts = sum(
            len(read_rewards(f)) for f in (paths.rewards, paths.guided_rewards, paths.eval_rewards)
        )
        failed = count_infra_errors(paths) + int(code != 0) + sum(
            dead_slots(read_trajectories(f))
            for f in (paths.rollouts, paths.guided_rollouts, paths.eval_rollouts)
        )
        shutil.rmtree(run_dir)
        return Result(attempts, failed, post, checks)


@contextlib.contextmanager
def instrument_loop(probe: Probe):
    """Spans around the public functions that ``loop.run_loop`` calls.

    ``run_loop`` looks each layer function up in ``rlvrloop.loop``'s module
    globals, so replacing those globals with span-wrapping versions for the
    length of one ``cli.main`` call measures the program itself; nothing
    inside the package changes. A phase span runs from the previous phase's
    ``RunState.mark`` (the tasks phase: from the start of ``run_loop``) to
    its own; every backend ``build_backend`` returns is a ``CountingBackend``.
    """
    current: list = []  # [phase name, open span context] while a phase runs

    def open_phase(name: str) -> None:
        ctx = probe.span(f"loop.phase.{name}")
        ctx.__enter__()
        current[:] = [name, ctx]

    def close_phase() -> None:
        if current:
            current.pop().__exit__(None, None, None)
            current.clear()

    def spanned(fn, span_name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with probe.span(span_name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def writer(fn):
        def after(_, items, path, *rest, **kw):
            probe.add("jsonl.records_written", len(items))
            probe.add("jsonl.bytes_written", Path(path).stat().st_size)
        return spanned(fn, "jsonl.write", after)

    def evaluated(records, *args, **kwargs):
        probe.rewards(records)
        if current and current[0] == "evaluate-guided":
            _guided_outcomes(probe, records)

    def assembled(rlvr, *args, **kwargs):
        probe.add("pairs.pairs", len(rlvr.pairs))
        probe.add("pairs.sft_examples", len(rlvr.sft))

    def dpo_trained(_, policy, pairs, config, **kwargs):
        probe.add("training.dpo_pairs", len(pairs))
        probe.add("training.dpo_epochs", config.epochs)
        history = kwargs.get("history_out")
        if history:
            probe.add("training.dpo_final_loss", history[-1]["loss"])
            probe.add("training.dpo_final_margin", history[-1]["margin"])

    def saved(_, policy, path, *args, **kwargs):
        probe.counts["policy.checkpoint_bytes"] = Path(path).stat().st_size  # the last one saved

    def run_loop(config, resume=False):
        open_phase(PHASES[0])
        try:
            return original_run_loop(config, resume=resume)
        finally:
            close_phase()

    def mark(state, phase):
        original_mark(state, phase)
        close_phase()
        following = PHASES.index(phase) + 1
        if following < len(PHASES):
            open_phase(PHASES[following])

    original_run_loop, original_mark = loop.run_loop, RunState.mark
    original_build_backend = loop.build_backend
    module_patches = {
        "generate_synth_suite": spanned(
            loop.generate_synth_suite, "tasks.generate_synth_suite",
            lambda suite, *a, **k: probe.add("tasks.generated", len(suite)),
        ),
        "build_backend": lambda config, policy: probe.backend(original_build_backend(config, policy)),
        "rollout_all_tasks": spanned(
            loop.rollout_all_tasks, "rollout.rollout_all_tasks", lambda t, *a, **k: probe.rollouts(t)
        ),
        "reattempt_with_guidance": spanned(
            loop.reattempt_with_guidance, "rollout.reattempt_with_guidance",
            lambda t, *a, **k: probe.rollouts(t),
        ),
        "evaluate_trajectories": spanned(loop.evaluate_trajectories, "evaluator.evaluate_trajectories", evaluated),
        "guide_failures": spanned(
            loop.guide_failures, "guidance.guide_failures",
            lambda g, *a, **k: probe.add("guidance.records", len(g)),
        ),
        "build_rlvr_dataset": spanned(loop.build_rlvr_dataset, "pairs.build_rlvr_dataset", assembled),
        "emit_dataset": spanned(loop.emit_dataset, "pairs.emit_dataset"),
        "load_dataset": spanned(loop.load_dataset, "pairs.load_dataset"),
        "sft_train": spanned(loop.sft_train, "training.sft_train"),
        "dpo_train": spanned(loop.dpo_train, "training.dpo_train", dpo_trained),
        "aggregate": spanned(loop.aggregate, "metrics.aggregate"),
        "write_manifest": spanned(loop.write_manifest, "jsonl.hash"),
        **{name: writer(getattr(loop, name))
           for name in ("save_tasks", "write_trajectories", "write_rewards", "write_guidance")},
        **{name: spanned(getattr(loop, name), "jsonl.read")
           for name in ("load_tasks", "read_trajectories", "read_rewards", "read_guidance")},
    }
    with contextlib.ExitStack() as stack:
        for name, fn in module_patches.items():
            stack.enter_context(mock.patch.object(loop, name, fn))
        stack.enter_context(mock.patch.object(cli, "run_loop", run_loop))
        stack.enter_context(mock.patch.object(RunState, "mark", mark))
        stack.enter_context(mock.patch.object(
            TabularPolicy, "load", staticmethod(spanned(TabularPolicy.load, "policy.load"))
        ))
        stack.enter_context(mock.patch.object(
            TabularPolicy, "save", spanned(TabularPolicy.save, "policy.save", saved)
        ))
        try:
            yield
        finally:
            close_phase()


class BestOfK:
    """Reward-model training on one suite, best-of-k reranking on a held-out one."""

    name = "best-of-k"
    CYCLE = 1  # every iteration runs the same input
    SIZES = dict(train=256, held=128, lines=4, candidates=4, rollouts=8, k=32)

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.signature = None

    def setup(self, probe: Probe) -> None:
        s = self.SIZES
        self.workdir.mkdir(parents=True, exist_ok=True)
        with probe.span("tasks.generate_synth_suite"):
            self.train = generate_synth_suite(
                s["train"], s["lines"], s["candidates"], derive_seed(self.seed, "train")
            )
        with probe.span("tasks.generate_synth_suite"):
            self.held = generate_synth_suite(
                s["held"], s["lines"], s["candidates"], derive_seed(self.seed, "held-out")
            )
        probe.add("tasks.generated", s["train"] + s["held"])
        self.train_policy = TabularPolicy.uniform(self.train)
        self.held_policy = TabularPolicy.uniform(self.held)

    def run(self, probe: Probe, index: int) -> dict:
        s, w, seed, span, d = self.SIZES, self.workers, self.seed, probe.span, self.workdir
        train, held = self.train, self.held

        backend = probe.backend(TabularPolicyBackend(self.train_policy))
        with span("rollout.rollout_all_tasks"):
            trajs = rollout_all_tasks(train, backend, s["rollouts"], seed, workers=w)
        probe.rollouts(trajs)
        probe.write(write_trajectories, trajs, d / "rollouts.jsonl")
        records = _evaluate(probe, train, trajs, d / "rewards.jsonl", w)
        with span("guidance.guide_failures"):
            guidance = guide_failures(train, trajs, records, None)
        probe.add("guidance.records", len(guidance))
        probe.write(write_guidance, guidance, d / "guidance.jsonl")
        with span("rollout.reattempt_with_guidance"):
            guided = reattempt_with_guidance(train, guidance, backend, seed, workers=w)
        probe.rollouts(guided)
        probe.write(write_trajectories, guided, d / "guided.jsonl")
        guided_records = _evaluate(probe, train, guided, d / "guided_rewards.jsonl", w)
        _guided_outcomes(probe, guided_records)
        with span("pairs.build_rlvr_dataset"):
            rlvr = build_rlvr_dataset(trajs, records, guided, guided_records, guidance, seed=seed)
        with span("pairs.emit_dataset"):
            emit_dataset(rlvr, d / "dataset.jsonl")
        with span("pairs.load_dataset"):
            rlvr = load_dataset(d / "dataset.jsonl")
        probe.add("pairs.pairs", len(rlvr.pairs))
        probe.add("pairs.sft_examples", len(rlvr.sft))
        rm_config = RMConfig()
        with span("reward_model.build_rm_training_pairs"):
            rm_pairs = build_rm_training_pairs(rlvr.pairs, train.by_id)
        with span("reward_model.rm_train"):
            rm = rm_train(rm_pairs, rm_config)
        probe.add("reward_model.pairs", len(rm_pairs))
        probe.add("reward_model.epochs", rm_config.epochs)

        held_backend = probe.backend(TabularPolicyBackend(self.held_policy))
        with span("rollout.rollout_all_tasks"):
            held_trajs = rollout_all_tasks(
                held, held_backend, s["k"], derive_seed(seed, "held-out"), workers=w
            )
        probe.rollouts(held_trajs)
        probe.write(write_trajectories, held_trajs, d / "held_rollouts.jsonl")
        held_records = _evaluate(probe, held, held_trajs, d / "held_rewards.jsonl", w)

        # Ranking reads its inputs back, as ``rlvrloop rank`` does.
        held_trajs = probe.read(read_trajectories, d / "held_rollouts.jsonl")
        rewards = {
            r.trajectory_ref: r.reward
            for r in probe.read(read_rewards, d / "held_rewards.jsonl")
            if not isinstance(r, EvaluationFailure)
        }
        grouped: dict[str, list] = {}
        for traj in held_trajs:
            grouped.setdefault(traj.task_id, []).append(traj)
        selections = {}
        for task in held:
            batch = grouped[task.id]
            with span("reward_model.rank_best_of_k"):
                pick = rank_best_of_k(rm, task.issue, [t.patch for t in batch]).selected_index
            selections[task.id] = rewards[batch[pick].traj_id]
        probe.add("reward_model.candidates", len(held_trajs))
        with span("metrics.aggregate"):
            report = aggregate(held_trajs, held_records, selections=selections, bootstrap_seed=seed)

        return {
            "records": (records, guided_records, held_records),
            "trajectories": (trajs, guided, held_trajs),
            "report": report,
            "signature": (rlvr.accounting, selections),
        }

    def verify(self, out: dict) -> Result:
        report, checks = out["report"], []
        if not report.best_at_1 >= report.pass_at_1:
            checks.append(f"best@1 {report.best_at_1} is below greedy pass@1 {report.pass_at_1}")
        if self.signature is None:
            self.signature = out["signature"]
        elif out["signature"] != self.signature:
            checks.append("pairs or selections differ between repeats")
        failed = sum(outcome_of(r) == "infra" for rs in out["records"] for r in rs)
        failed += sum(dead_slots(ts) for ts in out["trajectories"])
        return Result(sum(len(rs) for rs in out["records"]), failed, report.best_at_1, checks)


WORKLOADS = {w.name: w for w in (LoopRef, BestOfK)}


def median_base(bases: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*bases) if bases else set()
    return {k: statistics.median(b.get(k, 0.0) for b in bases) for k in keys}
