"""List the lines of src/rlvrloop that the tier-1 tests never run, and fail on any not named in KEPT.

Usage, from the repository root: python tools/linecov.py [pytest arguments]

pytest (by default: -q on tests/) runs under trace.Trace(count=1), with
threading.settrace set too, so pool threads count; subprocesses do not.
__init__.py is left out, and so is trace's line-0 entry of each module.
Prints each module's never-run lines, then their total. Exits 1 if pytest
fails or if a module has a never-run line that KEPT does not name (as many
times as that text is never run there), else 0.
"""
import functools
import sys
import threading
import trace
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rlvrloop"

# The never-run lines tier-1 may leave, each named by module and stripped source text.
KEPT = Counter({
    # Not behaviour: the __main__ guard, TYPE_CHECKING imports and abstract methods.
    ("cli", "sys.exit(main())"): 1,
    ("guidance", "from .evaluator import RewardRecord"): 1,
    ("guidance", "from .rollout import Trajectory"): 1,
    ("backends", "raise NotImplementedError"): 1,
    ("guidance", "raise NotImplementedError"): 1,
    # The SHA-256 fallback for an interpreter built without its own module.
    ("jsonl", "except ImportError:"): 1,
    ("jsonl", "from hashlib import sha256 as _sha256"): 1,
    # The generator's retry bounds: tasks._generate_one's docstring says why none is reached.
    ("tasks", 'raise ProgramError(f"could not corrupt statement {stmt!r}")'): 1,
    ("tasks", "except ProgramError:"): 1,
    ("tasks", "continue"): 2,
    ("tasks", "break"): 1,
    ("tasks", 'raise TaskFormatError(f"failed to generate a valid synthetic task for {task_id}")'): 1,
})


@functools.cache
def outside_src(filename: str, modulename: str) -> bool:
    """trace's test of whether to skip a module's file: True unless it is under SRC. trace's own test caches
    by module name, so a module named errors.py elsewhere would hide rlvrloop's errors.py."""
    return not Path(filename).resolve().is_relative_to(SRC)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore.names = outside_src
    threading.settrace(tracer.globaltrace)
    try:
        status = tracer.runfunc(pytest.main, argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for filename, lineno in tracer.results().counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(lineno)
    total, unnamed = 0, Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = set(trace._find_executable_linenos(str(path))) - {0}
        missed = sorted(lines - ran.get(str(path.resolve()), set()))
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} never run: {', '.join(map(str, missed))}")
            text = path.read_text(encoding="utf-8").splitlines()
            unnamed += Counter((path.stem, text[n - 1].strip()) for n in missed) - KEPT
    print(f"total: {total} lines of src never run")
    for (module, line), count in sorted(unnamed.items()):
        print(f"not in KEPT: {module}: {line!r}" + (f" ({count} times)" if count > 1 else ""))
    return 1 if status or unnamed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
