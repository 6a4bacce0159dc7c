"""Every module of the package, every test file and every tool uses each
name it imports, and each package module builds each error message in one
place (no linter is needed to run these checks)."""

import ast
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import qmaxcut

PACKAGE = Path(qmaxcut.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# Package modules by name; the tests, the tools and the files at the
# checkout's root (conftest.py) by their path in the checkout.
SOURCES = {
    **{p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"},
    **{p.relative_to(ROOT).as_posix(): p
       for p in [*ROOT.glob("tests/**/*.py"), *ROOT.glob("tools/*.py"), *ROOT.glob("*.py")]},
}
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


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_uses_every_import(module):
    unused = unused_imports(SOURCES[module].read_text())
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


# A Sphinx cross-reference in a docstring: :role:`name` or :role:`~name`.
REFERENCE = re.compile(r":(func|class|meth|attr|data|mod):`~?([\w.]+)`")


def docstring_references(module: str) -> list[tuple[str, str, str | None]]:
    """``(role, name, enclosing class)`` of each cross-reference in the
    docstrings of package module ``module``; the enclosing class is that of
    a class docstring or of a method's, else ``None``."""
    refs = []

    def visit(node, cls):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            if isinstance(node, ast.ClassDef):
                cls = node.name
            doc = ast.get_docstring(node, clean=False) or ""
            refs.extend((role, name, cls) for role, name in REFERENCE.findall(doc))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), None)
    return refs


def resolves(module: str, role: str, name: str, cls: str | None) -> bool:
    """Whether ``name`` names an object: by import when it starts with
    ``qmaxcut.``, else in ``module``'s namespace or, for a method or an
    attribute, on the enclosing class ``cls``."""
    if name.startswith("qmaxcut."):
        targets = [name]
    else:
        targets = [f"qmaxcut.{module}:{name}"]
        if role in ("meth", "attr") and cls is not None:
            targets.append(f"qmaxcut.{module}:{cls}.{name}")
    for target in targets:
        try:
            pkgutil.resolve_name(target)
            return True
        except (ImportError, AttributeError):
            pass
    return False


def test_resolves_a_reference():
    assert resolves("graph", "func", "parse_ints", None)
    assert resolves("graph", "mod", "qmaxcut.simulator", None)
    assert resolves("graph", "func", "qmaxcut.cli.build_parser", None)
    assert resolves("simulator", "meth", "_state_of", "FlipSymmetricWorkspace")
    assert not resolves("cli", "func", "graph.parse_ints", None)
    assert not resolves("graph", "meth", "_state_of", "Graph")
    assert not resolves("graph", "func", "qmaxcut.graph.no_such_name", None)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_docstring_references_resolve(module):
    refs = docstring_references(module)
    assert [f":{role}:`{name}`" for role, name, cls in refs
            if not resolves(module, role, name, cls)] == []
