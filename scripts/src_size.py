"""Count the lines of each ``src/chordalkit`` module by kind: code,
docstring, comment and blank, and the totals.

A docstring is the string that opens a module, class or function body,
found through ``ast``; its lines count as docstring lines whole. A comment
line holds nothing but a comment; a code line with a trailing comment
counts as code. Run from the repository root:

    python scripts/src_size.py [package-dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/chordalkit")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<20}" + "".join(f"{k:>10}" for k in KINDS) + f"{'lines':>10}")
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<20}" + "".join(f"{counts[k]:>10}" for k in KINDS) + f"{sum(counts.values()):>10}")
    print(f"{'total':<20}" + "".join(f"{total[k]:>10}" for k in KINDS) + f"{sum(total.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
