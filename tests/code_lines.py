"""Code lines of ``src/conjmeas``, per module and in total.

``python tests/code_lines.py`` counts the lines of each module that hold
code: a line counts when it carries a token other than a comment, and is
not part of a module, class or function docstring.  Blank lines, comment
lines and docstrings are left out; a line that mixes code and a trailing
comment counts.  It reads the source files alone and imports nothing from
the library.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conjmeas"

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` with a code token, docstrings excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> None:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:20} {count:5}")
    print(f"{'total':20} {sum(counts.values()):5}")


if __name__ == "__main__":
    main()
