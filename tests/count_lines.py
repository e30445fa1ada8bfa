"""Count the lines and the code lines of every module of ``src/relgat``, and its config keys.

    python3 tests/count_lines.py [PACKAGE_DIR]

A code line holds at least one token that is not a comment, and is not
part of a docstring (the string that opens a module, class or function
body). Blank lines, comment lines and docstring lines are skipped. Each
file is read by one ``ast`` pass, which finds its docstrings, and one
``tokenize`` pass, which finds the lines its tokens cover. Prints one
row per module, a total row and a ``config keys`` row: the number of
keys a config file may set, ``len(cli._KEY_TYPES)`` of the package
imported from PACKAGE_DIR (or the one already imported under its name).
"""

from __future__ import annotations

import ast
import importlib
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source."""
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def config_keys(package: str) -> int:
    """The number of keys a config file may set, read from the ``cli`` module of ``package``."""
    package = os.path.abspath(package)
    sys.path.insert(0, os.path.dirname(package))
    try:
        cli = importlib.import_module(f"{os.path.basename(package)}.cli")
    finally:
        sys.path.pop(0)
    return len(cli._KEY_TYPES)


def main(argv: list[str]) -> int:
    package = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "relgat"
    )
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as f:
            lines, code = count(f.read())
        total_lines += lines
        total_code += code
        print(f"{name[:-3]:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total_lines:>8}{total_code:>8}")
    print(f"{'config keys':<16}{'':>8}{config_keys(package):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
