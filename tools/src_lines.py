"""Line counts of the ``src/qmaxcut`` modules, of ``tests/``, ``tools/`` and ``bench/``.

Prints each module's total, docstring and code lines, then the totals, then
one row for all the Python files under ``tests/``, with those at the
checkout's root (``conftest.py``), one for those under ``tools/`` and one
for those under ``bench/``, its tests included, counted alike, and last
how many names ``__all__`` lists in ``qmaxcut/__init__.py``, the package's
public surface.  It only reads the files.  A code line holds at least one
token that is not a comment; the lines of a docstring (the leading string
of a module, class or function body) and blank lines are not code.  Run
from anywhere: ``python tools/src_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmaxcut"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int, int]:
    """``(total lines, docstring lines, code lines)`` of one module's source."""
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
    return text.count("\n"), len(docstrings), len(code - docstrings)


def exported(text: str) -> int:
    """How many names the module-level ``__all__`` of one module's source lists."""
    (names,) = [node.value for node in ast.parse(text).body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)]
    return len(names.elts)


def main() -> None:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    trees = {"tests": [*(ROOT / "tests").rglob("*.py"), *ROOT.glob("*.py")],
             "tools": (ROOT / "tools").rglob("*.py"),
             "bench": (ROOT / "bench").rglob("*.py")}
    for tree, paths in trees.items():
        files = [counts(path.read_text(encoding="utf-8")) for path in paths]
        rows.append((f"{tree}/", *(sum(f[i] for f in files) for i in (0, 1, 2))))
    print(f"{'module':<16}{'lines':>7}{'docstring':>10}{'code':>7}")
    for name, total, docstring, code in rows:
        print(f"{name:<16}{total:>7,}{docstring:>10,}{code:>7,}")
    print(f"__all__ lists {exported((SRC / '__init__.py').read_text(encoding='utf-8'))} names")


if __name__ == "__main__":
    main()
