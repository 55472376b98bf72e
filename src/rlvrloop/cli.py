"""Command-line entry point.

Each stepwise subcommand builds a RunConfig from its flags, calls the
loop's phase function for that phase (rlvrloop.loop) through the atomic
commit run-loop uses (loop.commit_outputs), and prints a summary line.
`run-loop` calls the same functions in sequence, so it and a sequence of
individual commands with the same seeds and settings produce
byte-identical artifacts. `train-rm` and `rank` are not loop phases and
keep their own bodies here, but commit their outputs the same way.

Exit codes: 0 success, 1 usage or data error (a missing or unreadable
file included), 2 phase failure (resumable state written), 3
infrastructure error (sandbox or backend).
"""
from __future__ import annotations

import argparse
import logging
import sys
from functools import partial

from . import __version__
from .errors import (
    BackendError,
    PhaseError,
    RlvrLoopError,
    RolloutError,
    SandboxProvisionError,
    UsageError,
)
from .evaluator import EvaluationFailure, read_rewards
from .jsonl import read_records, write_records
from .loop import (
    RunConfig,
    RunPaths,
    assemble,
    commit_outputs,
    count_infra_errors,
    evaluate,
    guide,
    init_policy,
    load_config,
    make_tasks,
    reattempt,
    report,
    rollout,
    run_loop,
    train_dpo,
    train_sft,
)
from .pairs import load_dataset
from .reward_model import (
    PairwiseRM,
    RMConfig,
    build_rm_training_pairs,
    rank_best_of_k,
    rm_train,
)
from .rollout import read_trajectories
from .tasks import load_tasks
from .training import write_history_csv

SELECTIONS_SCHEMA = "rm_selections"

_INFRA_ERRORS = (BackendError, SandboxProvisionError, RolloutError)


class _Parser(argparse.ArgumentParser):
    # argparse exits on its own; route through the shared error taxonomy
    # instead so main() owns every exit code.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_gen_tasks(args) -> int:
    config = RunConfig(
        seed=args.seed, synth_count=args.count, synth_lines=args.lines, synth_candidates=args.candidates
    )
    dataset = commit_outputs(partial(make_tasks, config), args.out)
    print(f"wrote {len(dataset)} tasks to {args.out}")
    return 0


def cmd_init_policy(args) -> int:
    config = RunConfig(initial_policy=args.from_policy)
    policy = commit_outputs(partial(init_policy, config, args.tasks), args.out)
    print(f"wrote policy with {len(policy.heads)} task heads to {args.out}")
    return 0


def cmd_rollout(args) -> int:
    config = RunConfig(
        seed=args.seed, workers=args.workers, rollouts_n=args.n, max_tokens=args.max_tokens
    )
    if args.guidance:
        if args.eval_mode:
            raise UsageError("--guidance cannot be combined with --eval-mode")
        phase = partial(reattempt, config, args.tasks, args.guidance, args.policy)
    else:
        phase = partial(rollout, config, args.tasks, args.policy, eval_mode=args.eval_mode)
    trajs = commit_outputs(phase, args.out)
    print(f"wrote {len(trajs)} trajectories to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    config = RunConfig(workers=args.workers, container_image=args.container_image)
    records = commit_outputs(partial(evaluate, config, args.tasks, args.rollouts), args.out)
    scored = [r for r in records if not isinstance(r, EvaluationFailure)]
    failures = len(records) - len(scored)
    print(
        f"wrote {len(records)} reward records to {args.out}"
        f" ({sum(r.reward for r in scored)} passed, {failures} infra errors)"
    )
    return 3 if failures else 0


def cmd_guide(args) -> int:
    config = RunConfig(teacher_kind=args.teacher, teacher_endpoint=args.endpoint)
    phase = partial(guide, config, args.tasks, args.rollouts, args.rewards)
    guidance_list = commit_outputs(phase, args.out)
    print(f"wrote {len(guidance_list)} guidance records to {args.out}")
    return 0


def cmd_assemble(args) -> int:
    config = RunConfig(
        seed=args.seed,
        sft_fraction=args.sft_fraction,
        max_pairs_per_task=args.max_pairs_per_task,
        keep_guidance_in_prompt=args.keep_guidance_in_prompt,
        include_guided_in_sft=args.include_guided_in_sft,
    )
    dataset = commit_outputs(
        partial(
            assemble, config, args.rollouts, args.rewards,
            args.guided_rollouts, args.guided_rewards, args.guidance,
        ),
        args.out,
    )
    acc = dataset.accounting
    print(
        f"wrote {acc['pairs_total']} pairs ({acc['guided_repair_pairs']} guided)"
        f" and {acc['sft_examples']} sft examples to {args.out}"
    )
    return 0


def _final_loss(history: list) -> float:
    return history[-1]["loss"] if history else float("nan")


def cmd_train_sft(args) -> int:
    config = RunConfig(sft_learning_rate=args.learning_rate, sft_epochs=args.epochs)
    history = commit_outputs(partial(train_sft, config, args.policy, args.dataset), args.out, args.log)
    print(f"wrote sft policy to {args.out} (final loss {_final_loss(history):.6f})")
    return 0


def cmd_train_dpo(args) -> int:
    config = RunConfig(
        dpo_beta=args.beta, dpo_learning_rate=args.learning_rate, dpo_epochs=args.epochs
    )
    history = commit_outputs(partial(train_dpo, config, args.policy, args.dataset), args.out, args.log)
    print(f"wrote dpo policy to {args.out} (final loss {_final_loss(history):.6f})")
    return 0


def cmd_train_rm(args) -> int:
    dataset = load_tasks(args.tasks)
    rlvr = load_dataset(args.dataset)
    pairs = build_rm_training_pairs(rlvr.pairs, dataset.by_id)
    history: list = []
    config = RMConfig(learning_rate=args.learning_rate, epochs=args.epochs)
    rm = rm_train(pairs, config, history_out=history)

    def write(out, log):
        rm.save(out)
        if log:
            write_history_csv(history, log)

    commit_outputs(write, args.out, args.log)
    print(f"trained reward model on {len(pairs)} pairs, wrote {args.out}")
    return 0


def cmd_rank(args) -> int:
    dataset = load_tasks(args.tasks)
    rm = PairwiseRM.load(args.rm)
    trajs = read_trajectories(args.rollouts)
    rewards_by_ref = {
        r.trajectory_ref: r for r in read_rewards(args.rewards) if not isinstance(r, EvaluationFailure)
    }
    grouped: dict[str, list] = {}
    for traj in trajs:
        grouped.setdefault(traj.task_id, []).append(traj)

    def selection_records():
        for task_id in sorted(grouped):
            task = dataset.by_id.get(task_id)
            if task is None:
                raise UsageError(f"rollouts reference unknown task {task_id!r}")
            batch = grouped[task_id]
            result = rank_best_of_k(rm, task.issue, [t.patch for t in batch])
            chosen = batch[result.selected_index]
            rec = rewards_by_ref.get(chosen.traj_id)
            if rec is None:
                raise UsageError(f"no reward record for selected trajectory {chosen.traj_id!r}")
            yield {
                "record": "selection",
                "task_id": task_id,
                "trajectory_ref": chosen.traj_id,
                "selected_index": result.selected_index,
                "k": len(batch),
                "reward": rec.reward,
            }

    n = commit_outputs(lambda out: write_records(out, SELECTIONS_SCHEMA, selection_records()), args.out)
    print(f"wrote {n} best-of-k selections to {args.out}")
    return 0


def read_selections(path) -> dict[str, int]:
    return dict(
        sel for _, sel in read_records(path, SELECTIONS_SCHEMA, lambda r: (r["task_id"], int(r["reward"])))
    )


def cmd_report(args) -> int:
    selections = read_selections(args.selections) if args.selections else None
    phase = partial(
        report, RunConfig(seed=args.seed), args.rollouts, args.rewards, args.guided_rewards,
        args.eval_rollouts, args.eval_rewards, selections=selections,
    )
    text = commit_outputs(phase, args.out_json, args.out_txt)
    print(text, end="")
    return 0


def cmd_run_loop(args) -> int:
    config = load_config(args.config, args.set)
    if args.output_dir:
        config.output_dir = args.output_dir
    if args.seed is not None:
        config.seed = args.seed
    manifest = run_loop(config, resume=args.resume)
    paths = RunPaths(config.output_dir)
    infra = count_infra_errors(paths)
    if infra:
        # The run completed and is fully resumable/reportable, but some
        # rewards are infrastructure failures rather than model failures.
        print(f"run completed with {infra} infrastructure errors; see {paths.manifest}", file=sys.stderr)
        return 3
    print(f"run complete: {len(manifest['artifacts'])} artifacts in {config.output_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rlvrloop", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log phase progress")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-tasks", help="generate a synthetic task suite")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--lines", type=int, default=6)
    p.add_argument("--candidates", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_tasks)

    p = sub.add_parser("init-policy", help="create a policy checkpoint for a task suite")
    p.add_argument("--tasks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--from", dest="from_policy", default="", help="copy an existing checkpoint")
    p.set_defaults(fn=cmd_init_policy)

    p = sub.add_parser("rollout", help="sample rollouts (or guided reattempts) for every task")
    p.add_argument("--tasks", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=16, help="attempts per task")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--max-tokens", type=int, default=256)
    p.add_argument("--eval-mode", action="store_true", help="forbid guidance injection")
    p.add_argument("--guidance", default="", help="guidance file: one reattempt per record")
    p.set_defaults(fn=cmd_rollout)

    p = sub.add_parser("evaluate", help="score trajectories against their tasks")
    p.add_argument("--tasks", required=True)
    p.add_argument("--rollouts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--container-image", default="")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("guide", help="request teacher guidance for failed attempts")
    p.add_argument("--tasks", required=True)
    p.add_argument("--rollouts", required=True)
    p.add_argument("--rewards", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--teacher", choices=("oracle", "remote"), default="oracle")
    p.add_argument("--endpoint", default="")
    p.set_defaults(fn=cmd_guide)

    p = sub.add_parser("assemble", help="build preference pairs and the sft subset")
    p.add_argument("--rollouts", required=True)
    p.add_argument("--rewards", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--guided-rollouts", default="")
    p.add_argument("--guided-rewards", default="")
    p.add_argument("--guidance", default="")
    p.add_argument("--sft-fraction", type=float, default=0.2)
    p.add_argument("--max-pairs-per-task", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-guidance-in-prompt", action="store_true")
    p.add_argument("--include-guided-in-sft", action="store_true")
    p.set_defaults(fn=cmd_assemble)

    p = sub.add_parser("train-sft", help="supervised fine-tuning on the positive subset")
    p.add_argument("--policy", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default="")
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=100)
    p.set_defaults(fn=cmd_train_sft)

    p = sub.add_parser("train-dpo", help="preference optimization against a frozen reference")
    p.add_argument("--policy", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default="")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=200)
    p.set_defaults(fn=cmd_train_dpo)

    p = sub.add_parser("train-rm", help="train the pairwise patch reward model")
    p.add_argument("--tasks", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default="")
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=200)
    p.set_defaults(fn=cmd_train_rm)

    p = sub.add_parser("rank", help="best-of-k selection with a trained reward model")
    p.add_argument("--tasks", required=True)
    p.add_argument("--rm", required=True)
    p.add_argument("--rollouts", required=True)
    p.add_argument("--rewards", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("report", help="aggregate pre/post evaluation into a report")
    p.add_argument("--rollouts", required=True)
    p.add_argument("--rewards", required=True)
    p.add_argument("--eval-rollouts", required=True)
    p.add_argument("--eval-rewards", required=True)
    p.add_argument("--guided-rewards", default="")
    p.add_argument("--selections", default="")
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-txt", default="")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run-loop", help="run one full training iteration")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--set", action="append", default=[], metavar="section.key=value")
    p.add_argument("--output-dir", default="")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", action="store_true", help="continue after the last completed phase")
    p.set_defaults(fn=cmd_run_loop)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if not getattr(args, "fn", None):
            parser.print_help()
            return 1
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PhaseError as exc:
        if isinstance(exc.__cause__, _INFRA_ERRORS):
            print(f"infrastructure error in phase {exc.phase}: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INFRA_ERRORS as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return 3
    except (RlvrLoopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
