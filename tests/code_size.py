"""Print the size of the package's code: its lines and its tokens.

Code is what is left of ``src/`` once docstrings, comments and blank
lines are taken out.  A docstring is the string that opens a module,
class or function body (``ast.get_docstring``); a line counts when one
of its tokens is code; a token counts when ``tokenize`` gives it a type
other than a comment, a line break, an indent, a dedent or the end
marker, and it is not part of a docstring.  The script sets no gate.

Run from the root of a checkout:

    python tests/code_size.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                string = node.body[0]
                lines.update(range(string.lineno, string.end_lineno + 1))
    return lines


def code_size(path: Path) -> tuple[int, int]:
    """(code lines, code tokens) of the Python file `path`."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines, tokens = set(), 0
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type in SKIPPED or token.type == tokenize.ENCODING:
                continue
            if token.start[0] in docstrings:
                continue
            tokens += 1
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines), tokens


def main() -> int:
    total_lines = total_tokens = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines, tokens = code_size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.relative_to(ROOT)}: {lines} lines, {tokens} tokens")
    print(f"src/: {total_lines} code lines, {total_tokens} tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
