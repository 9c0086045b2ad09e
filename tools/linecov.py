"""The lines of ``src/linlog`` that no Tier-1 test reaches.

    python tools/linecov.py [pytest arguments]

runs the test suite (``tests/``, or what the arguments name) in this
process under a line tracer, then prints each executable line of
``src/linlog`` that no test ran, as ``path:line: source``, and their
count.  Only frames whose file is under ``src/linlog/`` are traced.  A
test that hits the recursion limit makes Python drop the trace
function, and every later test would go untraced, so the tracer is
installed again before every test.

It cannot see two kinds of run, and reports their lines as unreached
when nothing else runs them: code run in a subprocess (the tests that
start ``python -m linlog.cli``), and the lines that run after a
RecursionError in the same test.  A lambda or comprehension that is
never called is not reported when its line runs otherwise.
"""

from __future__ import annotations

import os
import sys
from types import CodeType

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "linlog") + os.sep

_reached: set[tuple[str, int]] = set()


def _trace_line(frame, event, arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_line


def _trace_call(frame, event, arg):
    """The global trace function: it traces only frames of ``src/linlog``.
    A call event's line is the ``def`` line, which no line event names."""
    if frame.f_code.co_filename.startswith(SRC):
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
        return _trace_line
    return None


class _Retrace:
    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_trace_call)


def executable_lines(path: str) -> set[int]:
    """The lines of ``path`` that some code object of it has code on."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(_trace_call)  # the modules' own lines run when the tests import them
    try:
        status = pytest.main(argv or [os.path.join(ROOT, "tests")], plugins=[_Retrace()])
    finally:
        sys.settrace(None)
    unreached = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path)):
            if (path, line) not in _reached:
                unreached += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unreached} executable lines of src/linlog reached by no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
