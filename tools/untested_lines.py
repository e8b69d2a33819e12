"""List the lines of src/sparsefeas that no in-process test executes.

Run from the repository root, with any extra pytest arguments:

    python tools/untested_lines.py [pytest args]

The test suite runs in this process under a sys.settrace hook that records
every line event in src/sparsefeas.  A line counts as executable when the
compiled module's code objects map an instruction to it; the header line
of a function body is left out, since entering a function raises a call
event rather than a line event there.  Lines reached only from a
subprocess (the CLI tests that start ``python -m sparsefeas.cli``) are
listed too.  The report is informational: the exit code is 0 whatever it
lists and whatever the tests do.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsefeas"
PREFIX = str(PACKAGE) + "/"


def executable_lines(path: Path) -> set[int]:
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        body = {line for *_, line in code.co_lines() if line}
        if code.co_name != "<module>":
            body.discard(code.co_firstlineno)
        lines |= body
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines):
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv) -> int:
    import pytest

    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PREFIX) else None

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    print(f"\npytest exit status {int(status)}; lines of src/sparsefeas no in-process test runs:")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - hits[str(path)]
        total += len(missed)
        if missed:
            print(f"  {path.relative_to(ROOT)}: {ranges(missed)}")
    print(f"{total} lines in all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
