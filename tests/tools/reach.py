"""Line reach of the test suite over src/sdorder, stdlib only.

    PYTHONPATH=src python tests/tools/reach.py [pytest arguments]
    PYTHONPATH=src python tests/tools/reach.py -q tests/test_geometry.py

Runs pytest in this process under a `sys.settrace` line tracer that
records every line of src/sdorder that runs, then prints each executable
line that never ran, grouped by module, with its source text, and a
count per module. With no arguments it runs the whole suite (tier-1).
The exit code is pytest's.

Executable lines are the line numbers of the compiled modules' code
objects. Module-level lines count as reached when the suite imports the
package, so the tracer is installed before anything imports sdorder.
Commands that tests run in a child process (`python -m sdorder.cli`) are
not traced, so lines reached only there are listed as unreached. Tracing
makes the suite about three times slower, which is why this is a script
and not part of the suite.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "sdorder"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object of the module has an instruction on."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the tracer: (exit code, lines reached per file)."""
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest  # imports nothing of sdorder

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv: list[str]) -> int:
    if any(name == "sdorder" or name.startswith("sdorder.") for name in sys.modules):
        raise SystemExit("sdorder was imported before the tracer: its module lines would be missed")
    code, reached = trace_suite(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        gone = sorted(lines - reached.get(str(path), set()))
        total, missed = total + len(lines), missed + len(gone)
        print(f"{path.relative_to(ROOT)}: {len(gone)} of {len(lines)} lines unreached")
        text = path.read_text().splitlines()
        for n in gone:
            print(f"  {n:4d}  {text[n - 1].strip()}")
    print(f"total: {missed} of {total} executable lines unreached")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
