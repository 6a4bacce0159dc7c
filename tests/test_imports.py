"""Every module of the package uses each name it imports, and builds each
error message in one place (no linter is needed to run these checks)."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import qmaxcut

PACKAGE = Path(qmaxcut.__file__).parent
# Imported on purpose and not used: bench/tests/test_bench_harness.py checks
# that the tracer rebinds apply_qaoa_circuit in qaoa.  __init__, which
# re-exports the API, is not checked.
EXEMPT = {("qaoa", "apply_qaoa_circuit")}


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_an_unused_import():
    source = "import time\nimport os.path\nfrom x import y as z\nprint(os.sep)\n"
    assert unused_imports(source) == ["time", "z"]


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
)
def test_module_uses_every_import(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text())
    assert [name for name in unused if (module, name) not in EXEMPT] == []


def raised_messages(source: str) -> list[str]:
    """The message of each exception ``source`` builds, raised at once or
    handed on to be raised (``graph.parse_ints`` raises the ``error`` it is
    given): each call of a name ending in ``Error`` whose first argument is
    a string literal, f-string placeholders written ``{}``."""
    messages = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        name = getattr(func, "id", None) or getattr(func, "attr", "")
        if not (isinstance(node, ast.Call) and name.endswith("Error") and node.args):
            continue
        text = node.args[0]
        if isinstance(text, ast.Constant) and isinstance(text.value, str):
            messages.append(text.value)
        elif isinstance(text, ast.JoinedStr):
            messages.append("".join(
                part.value if isinstance(part, ast.Constant) else "{}" for part in text.values
            ))
    return messages


def test_finds_a_message_raised_twice():
    source = (
        "def f(n):\n"
        "    if n < 0:\n        raise ValueError(f'bad n={n!r}')\n"
        "    if n > 9:\n        raise KeyError(f'bad n={n + 1}')\n"
        "    raise ValueError('other', n)\n"
    )
    assert sorted(raised_messages(source)) == ["bad n={}", "bad n={}", "other"]


def test_finds_a_message_handed_on_to_be_raised():
    source = (
        "def f(text):\n"
        "    n = parse(text, ValueError(f'bad n={text!r}'))\n"
        "    if n > 9:\n        raise ValueError(f'bad n={n}')\n"
    )
    assert raised_messages(source) == ["bad n={}", "bad n={}"]


def test_each_error_message_is_raised_from_one_place():
    counts = Counter(
        message for path in PACKAGE.glob("*.py") for message in raised_messages(path.read_text())
    )
    assert sorted(message for message, count in counts.items() if count > 1) == []
