"""List the lines of src/geonets that the test suite never executes.

    python3 tools/linecov.py [extra pytest arguments]

Runs `pytest tests` in this process under a sys.settrace hook (and
threading.settrace, for threads the tests start) that records the lines
executed in files under src/geonets.  The executable lines of a file are
those that co_lines() of its module code object, or of any code object
nested in it, maps an instruction to; line 0, where Python puts a module's
prologue, is skipped.  A line counts as reached when a "line" event fires
on it, or a "call" event, which is how a function's first line is entered.
Prints each file's unreached lines and a total, and exits with pytest's code.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geonets"


def executable_lines(path: Path) -> set[int]:
    """Lines that some code object compiled from path maps an instruction to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"{path.relative_to(ROOT)}: {len(unreached)} unreached: {ranges(unreached)}")
    print(f"total: {missed} of {total} executable lines unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
