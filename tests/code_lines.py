"""Count the code lines of the package, per module and in total.

A code line is a physical line that holds a token other than a comment, a
newline or an indentation change, outside the docstrings of the module and
of its classes and functions.  A statement that spans several lines counts
each of them.  Run from the repository root:

    python tests/code_lines.py [directory]

The directory defaults to ``src/bohrad``.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skipped = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(directory: str = "src/bohrad") -> None:
    counts = {path.stem: code_lines(path) for path in sorted(Path(directory).glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:12s} {count:5d}")
    print(f"{'total':12s} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main(*sys.argv[1:])
