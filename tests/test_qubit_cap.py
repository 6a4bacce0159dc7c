"""The qubit cap has one setting: ``QMAXCUT_QUBIT_CAP``, else the default.

No public callable and no config field takes a cap, only
``graph.resolve_qubit_cap`` reads the variable, the cap is checked only
where ``2**n`` is allocated, and every entry point that allocates it
refuses the same instances with the same message.
"""

import ast
import dataclasses
import inspect
import tracemalloc
from pathlib import Path

import pytest

import qmaxcut
from qmaxcut import (
    Graph,
    PipelineConfig,
    QaoaConfig,
    QaoaParams,
    ResourceLimitError,
    apply_qaoa_circuit,
    brute_force_maxcut,
    cut_values_by_basis,
    evaluate_params,
    generate_random_graph,
    init_uniform,
    optimize_params,
    run_pipeline,
    run_qaoa,
)
from qmaxcut.simulator import FlipSymmetricWorkspace

PACKAGE = Path(qmaxcut.__file__).parent
CAP_NAMES = {"DEFAULT_QUBIT_CAP", "ResourceLimitError", "_check_cap", "resolve_qubit_cap"}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _env_readers(node, module, function=None):
    """``(module, function)`` for every node under ``node`` that names the
    cap variable or the environment, by its innermost enclosing function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
    if getattr(node, "value", None) == "QMAXCUT_QUBIT_CAP" or name in ("environ", "getenv"):
        yield module, function
    for child in ast.iter_child_nodes(node):
        yield from _env_readers(child, module, function)


def test_one_qubit_cap_setting():
    for name in qmaxcut.__all__:  # functions' parameters, configs' and results' fields
        obj = getattr(qmaxcut, name)
        if inspect.isfunction(obj):
            assert "cap" not in inspect.signature(obj).parameters, name
        elif dataclasses.is_dataclass(obj):
            assert "cap" not in {f.name for f in dataclasses.fields(obj)}, name

    readers = set()
    for module, tree in _trees().items():
        readers.update(_env_readers(tree, module))
    assert readers == {("graph", "resolve_qubit_cap")}


def _cap_checks(node, scope=()):
    """The qualified name of the function around every ``_check_cap`` call under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = (*scope, node.name)
    if isinstance(node, ast.Call) and "_check_cap" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    ):
        yield ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from _cap_checks(child, scope)


def test_the_cap_is_checked_only_where_two_to_the_n_is_allocated():
    trees = _trees()
    checks = {(module, where) for module, tree in trees.items() for where in _cap_checks(tree)}
    assert checks == {
        ("graph", "cut_values_by_basis"),
        ("simulator", "init_uniform"),
        ("simulator", "FlipSymmetricWorkspace.__init__"),
    }
    for module in ("qaoa", "classical", "pipeline"):
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for node in ast.walk(trees[module])
        }
        assert not names & CAP_NAMES, module


def _path(n):
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


def _angles(p):
    return QaoaParams(gammas=(0.3,) * p, betas=(0.2,) * p)


ENTRY_POINTS = {
    "init_uniform": lambda n: init_uniform(n),
    "apply_qaoa_circuit": lambda n: apply_qaoa_circuit(_path(n), _angles(2)),
    "cut_values_by_basis": lambda n: cut_values_by_basis(_path(n)),
    "brute_force_maxcut": lambda n: brute_force_maxcut(_path(n)),
    "FlipSymmetricWorkspace": lambda n: FlipSymmetricWorkspace(_path(n)),
    "evaluate_params_p2": lambda n: evaluate_params(_path(n), _angles(2)),
    "optimize_params_p2": lambda n: optimize_params(_path(n), QaoaConfig(p=2, budget=4)),
    "run_qaoa": lambda n: run_qaoa(_path(n), QaoaConfig(p=2, budget=6)),
    "run_pipeline": lambda n: run_pipeline(_path(n), PipelineConfig(QaoaConfig(p=2, budget=6))),
    # A run builds its workspace before any evaluation, closed-form ones included.
    "run_qaoa_p1": lambda n: run_qaoa(_path(n), QaoaConfig(p=1, budget=6)),
    "run_pipeline_p1": lambda n: run_pipeline(_path(n), PipelineConfig(QaoaConfig(p=1, budget=6))),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_has_the_same_boundary(monkeypatch, entry):
    monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "7")
    ENTRY_POINTS[entry](7)
    with pytest.raises(ResourceLimitError) as refused:
        ENTRY_POINTS[entry](8)
    assert str(refused.value) == (
        "state and cut table for n=8 exceed qubit cap 7 "
        "(would allocate 2**8 amplitudes or cut values)"
    )


# Depth 1 is computed in closed form, in O(m): no 2**n allocation, so no cap.
DEPTH_ONE = {
    "evaluate_params": lambda g: evaluate_params(g, _angles(1)),
    "optimize_params": lambda g: optimize_params(g, QaoaConfig(p=1, budget=12, seed=3)),
}


@pytest.mark.parametrize("entry", DEPTH_ONE)
def test_depth_one_allocates_nothing_and_meets_no_cap(monkeypatch, entry):
    g = generate_random_graph(8, 12, 0)
    monkeypatch.delenv("QMAXCUT_QUBIT_CAP", raising=False)
    uncapped = DEPTH_ONE[entry](g)
    monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "7")
    assert DEPTH_ONE[entry](g) == uncapped

    large = generate_random_graph(40, 60, 0)
    tracemalloc.start()
    try:
        DEPTH_ONE[entry](large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
