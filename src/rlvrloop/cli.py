"""Command-line entry point.

Every row of the loop's phase table (rlvrloop.loop.PHASE_TABLE) and of the
reward-model table (RM_TABLE: train-rm, rank) is also a stepwise subcommand
of the same name, with one required `--<artifact>` flag per input and
output the row declares. Each one reads its inputs through the readers the
table declares, calls the row through loop.run_phase, which passes the
row's function the settings it takes as keyword parameters and commits the
outputs atomically as run-loop does, and prints the paths it wrote. Like
`run-loop`, a phase command builds its RunConfig from `--config`,
`--set section.key=value` and `--seed`, so `run-loop` and the sequence of
stepwise commands given the same settings produce byte-identical
artifacts. The reward-model rows take no setting and no settings flags.

Exit codes: 0 success, 1 usage or data error (a missing or unreadable
file included), 2 phase failure (resumable state written), 3 the command
wrote a record the infrastructure lost (a placeholder trajectory, or an
infrastructure_error line in a reward or guidance file) beside every other
record.
"""
from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .errors import PhaseError, RlvrLoopError, UsageError
from .loop import (
    PHASE_TABLE,
    RM_TABLE,
    RunConfig,
    RunPaths,
    infra_failures,
    load_config,
    read_artifact,
    run_loop,
    run_phase,
)


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
    config = _settings(args) if phase in PHASE_TABLE else RunConfig()
    given = {name: getattr(args, name) for name in (*phase.inputs, *phase.optional)}
    inputs = [None if path is None else read_artifact(name, path) for name, path in given.items()]
    outputs = [getattr(args, name) for name in phase.outputs]
    values = run_phase(phase, config, inputs, outputs)
    print(f"{phase.name}: wrote {' '.join(outputs)}")
    lost = infra_failures(values)
    if lost:
        print(f"{phase.name}: {lost} attempts lost to infrastructure errors", file=sys.stderr)
        return 3
    return 0


def cmd_run_loop(args) -> int:
    config = _settings(args)
    config.output_dir = args.output_dir
    manifest = run_loop(config, resume=args.resume)
    infra = manifest["infra_errors"]
    if infra:
        print(f"run completed with {infra} infrastructure errors; see {RunPaths(config.output_dir).manifest}",
              file=sys.stderr)
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

    for phase in (*PHASE_TABLE, *RM_TABLE):
        parents = [settings] if phase in PHASE_TABLE else []
        p = sub.add_parser(phase.name, parents=parents, help=phase.fn.__doc__.splitlines()[0])
        for artifact in (*phase.inputs, *phase.outputs, *phase.optional):
            p.add_argument("--" + artifact.replace("_", "-"), required=artifact not in phase.optional)
        p.set_defaults(fn=cmd_phase, phase=phase)

    p = sub.add_parser("run-loop", parents=[settings], help="run one full training iteration")
    p.add_argument("--output-dir", default=RunConfig.output_dir, help="run directory (default %(default)s)")
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
    except (RlvrLoopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PhaseError) else 1


if __name__ == "__main__":
    sys.exit(main())
