"""Command-line entry point.

Every row of the loop's phase table (rlvrloop.loop.PHASE_TABLE) is also a
stepwise subcommand of the same name, with one required `--<artifact>`
flag per input and output the row declares. Like `run-loop`, each one
builds its RunConfig from `--config`, `--set section.key=value` and
`--seed`, calls the row's phase function through the atomic commit
run-loop uses (loop.commit_outputs), and prints the paths it wrote. So
`run-loop` and the sequence of stepwise commands given the same settings
produce byte-identical artifacts. `train-rm` and `rank` are not loop
phases and keep their own bodies here, but commit their outputs the same
way.

Exit codes: 0 success, 1 usage or data error (a missing or unreadable
file included), 2 phase failure (resumable state written), 3
infrastructure error (sandbox or backend, or infrastructure_error
records written).
"""
from __future__ import annotations

import argparse
import logging
import sys

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
    PHASE_TABLE,
    RunPaths,
    commit_outputs,
    count_infra_errors,
    load_config,
    run_loop,
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


def _settings(args):
    config = load_config(args.config, args.set)
    if args.seed is not None:
        config.seed = args.seed
    return config


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_phase(args) -> int:
    phase = args.phase
    config = _settings(args)
    inputs = [getattr(args, name) for name in phase.inputs]
    outputs = [getattr(args, name) for name in phase.outputs]
    extra = {"selections": read_selections(args.selections)} if getattr(args, "selections", "") else {}
    result = commit_outputs(lambda *partials: phase.fn(config, *inputs, *partials, **extra), *outputs)
    print(f"{phase.name}: wrote {' '.join(outputs)}")
    records = result if isinstance(result, list) else []
    return 3 if any(isinstance(r, EvaluationFailure) for r in records) else 0


def cmd_train_rm(args) -> int:
    dataset = load_tasks(args.tasks)
    rlvr = load_dataset(args.dataset)
    pairs = build_rm_training_pairs(rlvr.pairs, dataset.by_id)
    history: list = []
    config = RMConfig(learning_rate=args.learning_rate, epochs=args.epochs)
    rm = rm_train(pairs, config, history_out=history)

    def write(out, log=None):
        rm.save(out)
        if log:
            write_history_csv(history, log)

    commit_outputs(write, args.out, *([args.log] if args.log else []))
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


def cmd_run_loop(args) -> int:
    config = _settings(args)
    if args.output_dir:
        config.output_dir = args.output_dir
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

    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", default=None, help="INI config file")
    settings.add_argument("--set", action="append", default=[], metavar="section.key=value")
    settings.add_argument("--seed", type=int, default=None)

    for phase in PHASE_TABLE:
        p = sub.add_parser(phase.name, parents=[settings], help=phase.fn.__doc__.splitlines()[0])
        for artifact in (*phase.inputs, *phase.outputs):
            p.add_argument("--" + artifact.replace("_", "-"), required=True)
        if phase.name == "report":
            p.add_argument("--selections", default="", help="best-of-k selections written by rank")
        p.set_defaults(fn=cmd_phase, phase=phase)

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

    p = sub.add_parser("run-loop", parents=[settings], help="run one full training iteration")
    p.add_argument("--output-dir", default="")
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
