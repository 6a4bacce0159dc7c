"""Line counts of the ``src/qmaxcut`` modules.

Prints each module's total lines and code lines, then the totals.  A code
line holds at least one token that is not a comment; the lines of a
docstring (the leading string of a module, class or function body) and
blank lines are not code.  Run from anywhere: ``python tools/src_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmaxcut"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.update(range(value.lineno, value.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main() -> None:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7,}{code:>7,}")


if __name__ == "__main__":
    main()
