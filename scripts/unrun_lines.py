"""List the lines of each ``src/chordalkit`` module that the tier-1 suite
never runs. Needs Python >= 3.12 (``sys.monitoring``) and pytest; run from
anywhere:

    python scripts/unrun_lines.py [pytest arguments]

It registers a LINE event callback that records each line's first hit and
then disables that line, so the suite runs at nearly full speed, and runs
the tier-1 command (``pytest -q --continue-on-collection-errors``, or the
given arguments) in-process from the repository root. Then it prints, per
module, the executable lines (read off every code object's ``co_lines()``)
that never ran. Code run in a child process, as the CLI tests' children
are, counts as not run. A report only: the exit status is the suite's.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chordalkit"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from path runs."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack += (c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, e.g. "3, 7-9"."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        sys.exit("unrun_lines.py needs Python >= 3.12 (sys.monitoring)")
    import pytest

    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    hit: dict[str, set[int]] = {}
    resolved: dict[str, str] = {}

    def on_line(code: CodeType, line: int):
        name = code.co_filename
        path = resolved.get(name)
        if path is None:
            path = resolved[name] = os.path.realpath(name)
        hit.setdefault(path, set()).add(line)
        return mon.DISABLE

    mon.use_tool_id(tool, "unrun_lines")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    os.chdir(ROOT)
    src = str(ROOT / "src")  # as the tier-1 command's PYTHONPATH=src, for child processes too
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    print("\nlines of src/chordalkit that never ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = sorted(executable_lines(path) - hit.get(os.path.realpath(path), set()))
        print(f"{path.relative_to(ROOT)}: {len(unrun)}" + (f" ({spans(unrun)})" if unrun else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
