"""The qubit cap has one setting: ``QMAXCUT_QUBIT_CAP``, else the default.

No public callable and no config field takes a cap, only
``simulator.resolve_qubit_cap`` reads the variable, and every entry point
that allocates ``2**n`` refuses the same instances with the same message.
"""

import ast
import dataclasses
import inspect
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
    evaluate_params,
    init_uniform,
    optimize_params,
    run_pipeline,
    run_qaoa,
)

PACKAGE = Path(qmaxcut.__file__).parent


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
    for path in PACKAGE.glob("*.py"):
        readers.update(_env_readers(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert readers == {("simulator", "resolve_qubit_cap")}


def _path(n):
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


def _angles(p):
    return QaoaParams(gammas=(0.3,) * p, betas=(0.2,) * p)


ENTRY_POINTS = {
    "init_uniform": lambda n: init_uniform(n),
    "apply_qaoa_circuit": lambda n: apply_qaoa_circuit(_path(n), _angles(2)),
    "brute_force_maxcut": lambda n: brute_force_maxcut(_path(n)),
    "evaluate_params_p1": lambda n: evaluate_params(_path(n), _angles(1)),
    "evaluate_params_p2": lambda n: evaluate_params(_path(n), _angles(2)),
    "optimize_params_p1": lambda n: optimize_params(_path(n), QaoaConfig(p=1, budget=4)),
    "optimize_params_p2": lambda n: optimize_params(_path(n), QaoaConfig(p=2, budget=4)),
    "run_qaoa": lambda n: run_qaoa(_path(n), QaoaConfig(p=2, budget=6)),
    "run_pipeline": lambda n: run_pipeline(_path(n), PipelineConfig(QaoaConfig(p=2, budget=6))),
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
