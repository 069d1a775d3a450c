"""Report the package lines that the tier-1 tests never reach.

Runs pytest in-process under ``sys.settrace`` and prints, for each module
of ``src/nilaffine``, the executable lines that no test executed, as
ranges. Only the standard library (and pytest, to run the suite) is used,
so it works where ``coverage`` is not installed. Run from the repository
root:

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

With no arguments it runs the tier-1 suite (``-q
--continue-on-collection-errors``). Tracing slows the suite several times
over; the full tier-1 run takes minutes.

To see which package lines any CLI command reaches, trace the golden
test alone, which runs every pinned command in-process (about 5 s on a
2-core machine):

    PYTHONPATH=src python tests/trace_lines.py -q tests/test_cli_golden.py

A line it reports unreached is reached by no golden command, so a change
that deletes only such lines changes no command's behaviour on those
inputs; this is how a deletion is shown to lose nothing a user runs.

Only this process is traced. The tests that run the CLI in a subprocess
(``python -m nilaffine ...``) execute package lines that this report
still counts as unreached.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilaffine"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode anywhere in the module, minus the
    first line of each function body's code object (its entry), which the
    enclosing scope reports when it runs the ``def``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}   # not None or 0
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def ranges(lines: list[int]) -> str:
    """'3, 7-9, 12' for the sorted lines [3, 7, 8, 9, 12]."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][-1] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in runs)


def main(argv: list[str]) -> int:
    root = str(PACKAGE)
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(root):
            return None
        reached.setdefault(filename, set())
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        print(f"{path.relative_to(PACKAGE.parent.parent)}: "
              f"{len(missed)} unreached" + (f": {ranges(missed)}" if missed else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
