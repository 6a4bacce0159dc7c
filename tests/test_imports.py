"""Every module of the package uses each name it imports (no linter is
needed to run this check)."""

import ast
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
