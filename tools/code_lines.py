"""Print the code lines of each module of the package, and their total.

A code line is one that is not blank, not only a comment and not part of
a docstring. Stdlib only; it prints and checks nothing. Run it from
anywhere: `python3 tools/code_lines.py [package-directory]`, which
defaults to src/scotcloud.
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.update(range(value.lineno, value.end_lineno + 1))
    lines = enumerate(source.splitlines(), 1)
    return sum(1 for n, line in lines if n not in docstrings and line.strip() and not line.strip().startswith("#"))


if __name__ == "__main__":
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "scotcloud"
    counts = {path.name: code_lines(path.read_text("utf-8")) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
