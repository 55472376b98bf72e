"""Run one benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload loop-ref --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is a separate run that alternates untraced and traced iterations and reports
the per-layer metrics, including the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are a readable summary and the
environment. Full results go to ``.perfbench/results/``. Exit code 0 means
every correctness check passed.
"""
import time

START = time.perf_counter()  # before any other import, so set-up counts imports

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_WORKERS = 4  # rlvrloop's default pool size, capped at the CPUs this process may use

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "attempts_per_s": "1/s",
    "pass_at_1": "ratio",
}

# What pass_at_1 is on each workload, under the name the report uses for it.
QUALITY_NAMES = {"loop-ref": "post_pass_at_1", "best-of-k": "best_at_1"}

# Times the import of everything the benchmark runs, in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import perfbench.workloads; print(time.perf_counter() - t)"
)


def cpu_seconds() -> float:
    """User + system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter takes to import rlvrloop, numpy and the workloads."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(root / "src"), str(root)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def per_cycle(values: list, cycle: int, combine=statistics.fmean) -> float:
    """Median over whole cycles of ``combine`` of each cycle's values."""
    return statistics.median(combine(values[i:i + cycle]) for i in range(0, len(values), cycle))


def environment(root: Path, workers: int) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def timed(workload, probe, index: int):
    """One iteration, timed; the correctness checks run after the clock stops.

    The heap is collected first, so an iteration does not pay for collecting
    the garbage the previous one left.
    """
    gc.collect()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    out = workload.run(probe, index)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return wall, cpu, workload.verify(out)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(QUALITY_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time for this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rlvrloop" / "__init__.py").is_file():
        print(f"error: {root} holds no src/rlvrloop; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    import perfbench.workloads  # noqa: F401  (imports rlvrloop and numpy)

    import_s = time.perf_counter() - START
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = str(work / "tmp")  # evaluator sandboxes stay inside the checkout
    try:
        return measure(args, root, out_dir, work, import_s)
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(work, ignore_errors=True)
        fd = os.open(out_dir, os.O_RDONLY)  # commit the deletions before the next run starts
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def measure(args, root: Path, out_dir: Path, work: Path, import_s: float) -> int:
    from perfbench import workloads
    from perfbench.tracing import Tracer

    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    traced = args.trace == 1
    tracer = Tracer(enabled=traced)
    untraced = Tracer(enabled=False)
    workload = workloads.WORKLOADS[args.workload](args.seed, work / "workload", workers)

    import_times, setup_times, setup_bases = [], [], []

    def set_up() -> None:
        """One set-up: the import, timed in a fresh interpreter (this process
        imported only once), then a build of the workload's inputs."""
        gc.collect()
        import_times.append(import_seconds(root))
        tracer.run_id = f"setup-{len(setup_times)}"
        probe = workloads.Probe(tracer)
        t0 = time.perf_counter()
        workload.setup(probe)
        setup_times.append(time.perf_counter() - t0)
        setup_bases.append(probe.base(tracer.run_id))

    # Iterations run in whole cycles of the workload's inputs, so the inputs
    # a run measures do not depend on how fast the host or the code is.
    # Set-up is repeated after every iteration, so that its median, like the
    # iterations', covers the whole run and not one moment of the host's speed.
    cycle = workload.CYCLE
    failures: list[str] = []
    samples: dict[str, list] = {
        "wall_s": [], "cpu_s": [], "attempts": [], "quality": [], "traced_wall_s": []
    }
    iter_bases = []
    attempted = failed = 0
    set_up()
    began = time.perf_counter()
    while len(samples["wall_s"]) % cycle or not samples["wall_s"] or time.perf_counter() - began < args.seconds:
        index = len(samples["wall_s"])
        wall, cpu, result = timed(workload, workloads.Probe(untraced), index)
        failures += result.failed_checks
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["attempts"].append(result.attempts)
        samples["quality"].append(result.quality)
        attempted += result.attempts
        failed += result.failed
        if traced:
            tracer.run_id = f"iter-{index}"
            probe = workloads.Probe(tracer)
            wall, _, result = timed(workload, probe, index)  # the same input, traced
            failures += result.failed_checks
            samples["traced_wall_s"].append(wall)
            iter_bases.append(probe.base(tracer.run_id))
            attempted += result.attempts
            failed += result.failed
        set_up()

    median = statistics.median
    wall_s = per_cycle(samples["wall_s"], cycle)
    failed_ratio = failed / attempted if attempted else 0.0
    if traced:
        base = workloads.median_base(setup_bases)
        for key, value in workloads.median_base(iter_bases).items():
            base[key] = base.get(key, 0.0) + value
        values = workloads.layer_metrics(base)
        values["trace.wall_s"] = per_cycle(samples["traced_wall_s"], cycle)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        values["failed_ratio"] = failed_ratio
        units = workloads.PER_LAYER
    else:
        rates = [a / w for a, w in zip(samples["attempts"], samples["wall_s"])]
        values = {
            "setup_s": median(import_times) + median(setup_times),
            "wall_s": wall_s,
            "cpu_s": per_cycle(samples["cpu_s"], cycle),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempts_per_s": per_cycle(rates, cycle),
            "pass_at_1": per_cycle(samples["quality"], cycle),
        }
        units = END_TO_END

    env = environment(root, workers)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}

    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "cycle": cycle, "setup_times_s": setup_times, "import_times_s": import_times,
        "import_s": import_s, "samples": samples,
        "failed_checks": failures, **result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced:
        tracer.dump(results / f"{stem}-spans.json")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        medians = ("wall_s", "cpu_s", "attempts_per_s", "pass_at_1")
        note = f"  (median of {len(samples['wall_s']) // cycle} cycles of {cycle})" if name in medians else ""
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    if not traced:
        print(f"{QUALITY_NAMES[args.workload]:34s} {values['pass_at_1']:.6g} ratio  (= pass_at_1)")
        print(f"{'failed_ratio':34s} {failed_ratio:.6g} ratio  ({failed}/{attempted})")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
