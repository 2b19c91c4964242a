#!/usr/bin/env python3
"""Code lines of a Python package, per module and in total, under one rule.

A code line is a line that is not blank, is not a comment (its first
non-blank character is ``#``) and is not part of a docstring. Docstrings are
found through ``ast``: the string constant that opens a module, a class or a
function body. Every other string keeps its lines.

    python scripts/loc.py              # src/qcdeval
    python scripts/loc.py path/to/pkg
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcdeval"
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOC_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """Code lines of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    return sum(
        1
        for no, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and no not in docs
    )


def count_package(package: Path) -> dict[str, int]:
    """Code lines of every ``.py`` file under ``package``, keyed by its path
    relative to ``package``, in path order."""
    return {
        path.relative_to(package).as_posix(): count_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    args = parser.parse_args(argv)
    counts = count_package(args.package)
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}} {n:6d}")
    print(f"{'total':<{width}} {sum(counts.values()):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
