"""List the package lines that the tier-1 suite never runs.

Runs the tier-1 tests in this process under a line tracer
(``sys.settrace`` for this thread, ``threading.settrace`` for the
threads the tests start, such as each ``SimServer`` accept and
connection thread), then prints, for each module of ``src/vecuforge``,
the executable lines that never ran, and the total. A line is executable when some code object compiled
from the module starts a line there (``dis.findlinestarts``). Only the
standard library is used.

Code that a test runs in a child process is not traced: the demo
scripts, the ``vecuforge demo`` subprocess, the perfbench worker and the
runs under other CPythons. A line that runs only there is listed.
Hypothesis draws its examples from a fixed seed (``--hypothesis-seed=0``),
so two runs on the same tree list the same lines.

    python tests/reach.py [pytest arguments ...]

The file is not named ``test_*.py``, so pytest does not collect it. A
traced run takes about twice as long as an untraced one.
"""

import dis
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vecuforge"


def executable_lines(path: Path) -> set[int]:
    """Every line at which some code object compiled from ``path`` starts a line."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers written as ``3, 7-9``."""
    out: list[str] = []
    for line in lines:
        if out and line == end + 1:
            out[-1] = f"{start}-{line}"
        else:
            start = line
            out.append(str(line))
        end = line
    return ", ".join(out)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits = ran.setdefault(filename, set())
        hits.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    # Put the package sources first, so that the tests import the files traced.
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"{path.name}: {len(unreached)} unreached: {spans(unreached)}")
    print(f"unreached: {missed} of {total} executable lines")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
