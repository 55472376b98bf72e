"""List the lines of src/rlvrloop that the tier-1 tests never run.

Usage, from the repository root: python tools/linecov.py [pytest arguments]

pytest (by default: -q on tests/) runs under trace.Trace(count=1), with
threading.settrace set too, so pool threads count; subprocesses do not.
__init__.py is left out, and so is trace's line-0 entry of each module.
Prints each module's never-run lines, then their total. Not a test gate.
"""
import sys
import threading
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rlvrloop"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    threading.settrace(tracer.globaltrace)
    try:
        tracer.runfunc(pytest.main, argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for filename, lineno in tracer.results().counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(lineno)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = set(trace._find_executable_linenos(str(path))) - {0}
        missed = sorted(lines - ran.get(str(path.resolve()), set()))
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} never run: {', '.join(map(str, missed))}")
    print(f"total: {total} lines of src never run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
