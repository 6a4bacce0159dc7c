"""The qubit cap has one setting: ``QMAXCUT_QUBIT_CAP``, else the default.

No public callable and no config field takes a cap, only
``graph.resolve_qubit_cap`` reads the variable, the cap is checked only
where ``2**n`` is allocated, no other module decides whether an instance
passes it, and every entry point that allocates it refuses the same
instances, naming the bytes of ``graph.peak_bytes``, the byte model that
the peaks measured here follow.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qmaxcut
from harness import spy, traced_peak
from qmaxcut import (
    Graph,
    PipelineConfig,
    QaoaConfig,
    QaoaParams,
    ResourceLimitError,
    brute_force_maxcut,
    cut_values_by_basis,
    evaluate_params,
    generate_random_graph,
    graph,
    optimize_params,
    run_pipeline,
    run_qaoa,
)
from qmaxcut.graph import peak_bytes
from qmaxcut.simulator import (
    FlipSymmetricWorkspace,
    StateVector,
    apply_cost_layer,
    apply_qaoa_circuit,
    expectation_cut,
    init_uniform,
)

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


def _public_definitions():
    """``(qualified name, object)`` for every public function and class
    defined in a module of the package, exported or not."""
    for info in pkgutil.iter_modules(qmaxcut.__path__):
        if info.name == "__main__":  # runs the CLI on import; defines nothing
            continue
        module = importlib.import_module(f"qmaxcut.{info.name}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__:
                yield f"{info.name}.{name}", obj


def test_one_qubit_cap_setting():
    # functions' parameters, constructors' parameters, configs' and results' fields
    walked = dict(_public_definitions())
    assert {"simulator.init_uniform", "simulator.FlipSymmetricWorkspace", "cli.main"} <= set(walked)
    for name, obj in walked.items():
        if inspect.isfunction(obj):
            assert "cap" not in inspect.signature(obj).parameters, name
        elif inspect.isclass(obj):
            if "__init__" in vars(obj):
                assert "cap" not in inspect.signature(obj.__init__).parameters, name
            if dataclasses.is_dataclass(obj):
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
        ("simulator", "_cut_table"),
        ("simulator", "init_uniform"),
        ("simulator", "FlipSymmetricWorkspace.__init__"),
    }
    # cli catches ResourceLimitError (exit 3, or a failed bench row) but decides nothing.
    allowed = {"qaoa": set(), "classical": set(), "pipeline": set(), "cli": {"ResourceLimitError"}}
    for module, names_allowed in allowed.items():
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for node in ast.walk(trees[module])
        }
        assert names & CAP_NAMES == names_allowed, module


def _path(n):
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


def _angles(p):
    return QaoaParams(gammas=(0.3,) * p, betas=(0.2,) * p)


def _hand_built(n):
    """A state on ``n`` qubits built without ``init_uniform``, so no cap is checked."""
    return StateVector(n, np.full(1 << n, 2 ** (-n / 2)))


ENTRY_POINTS = {
    "init_uniform": lambda n: init_uniform(n),
    "apply_qaoa_circuit": lambda n: apply_qaoa_circuit(_path(n), _angles(2)),
    "apply_cost_layer": lambda n: apply_cost_layer(_hand_built(n), _path(n), 0.3),
    "expectation_cut": lambda n: expectation_cut(_hand_built(n), _path(n)),
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
# The byte model each entry point's refusal names; the others build a workspace.
KINDS = {"init_uniform": "full state", "apply_qaoa_circuit": "full state",
         "apply_cost_layer": "full state", "expectation_cut": "full state",
         "cut_values_by_basis": "brute force", "brute_force_maxcut": "brute force"}


@pytest.mark.parametrize(("entry", "cap"), [
    pytest.param(entry, cap, id=entry if cap == 7 else f"{entry}-cap{cap}")
    for cap in (7, 4) for entry in ENTRY_POINTS
])
def test_every_entry_point_has_the_same_boundary(monkeypatch, entry, cap):
    monkeypatch.setenv("QMAXCUT_QUBIT_CAP", str(cap))
    ENTRY_POINTS[entry](cap)
    with pytest.raises(ResourceLimitError) as refused:
        ENTRY_POINTS[entry](cap + 1)
    # It names n, the cap and the model's bytes for that entry point (the
    # path on n vertices has n - 1 edges), at n and at the cap.
    kind = KINDS.get(entry, "workspace")
    need, at_cap = (f"{peak_bytes(kind, k, cap, 0):,} B" for k in (cap + 1, cap))
    assert str(refused.value) == (
        f"n={cap + 1} exceeds qubit cap {cap}: {kind} needs {need}, {at_cap} at the cap"
    )


@pytest.mark.parametrize("entry", [entry for entry, kind in KINDS.items() if kind == "full state"])
def test_the_reference_resolves_the_cap_once_per_call(monkeypatch, entry):
    # The full-register reference's table is checked under the full
    # state's model, not brute force's, and a circuit checks it once.
    calls = spy(monkeypatch, graph, "resolve_qubit_cap")
    ENTRY_POINTS[entry](5)
    assert len(calls) == 1


# Depth 1 is computed in closed form, in O(m): no 2**n allocation, so no cap.
DEPTH_ONE = {
    "evaluate_params": lambda g: evaluate_params(g, _angles(1)),
    "optimize_params": lambda g: optimize_params(g, QaoaConfig(p=1, budget=12, seed=3)),
}


@pytest.mark.parametrize("entry", DEPTH_ONE)
def test_depth_one_allocates_nothing_and_meets_no_cap(monkeypatch, entry):
    g = generate_random_graph(8, 12, 0)
    uncapped = DEPTH_ONE[entry](g)
    monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "7")
    assert DEPTH_ONE[entry](g) == uncapped

    large = generate_random_graph(40, 60, 0)
    peak, _ = traced_peak(DEPTH_ONE[entry], large)
    assert peak < 1 << 20


def _allowance(n):
    """What the byte model leaves out, stated once: numpy's buffer for a
    broadcast or a cast, and 64 KiB of Python objects.  The objects are the
    plan's views, the optimizer's Python ints and the shots stream's
    words, at most 1,024 of them at once: with 4,096 shots a workspace
    reads 79,628 B at n=8, 41 KB above the model, and 133,024 B at n=12,
    12 KB above it."""
    return 16 * min(np.getbufsize(), 1 << (n - 1)) + (64 << 10)


def _run(p):
    return lambda g, shots: run_qaoa(g, QaoaConfig(p=p, budget=6, restarts=2, shots=shots))


# Per case: the byte model's kind, the shots and the call on (graph, shots).
PEAKS = {
    "workspace": ("workspace", 0, FlipSymmetricWorkspace),
    "workspace-sampled": ("workspace", 4096, FlipSymmetricWorkspace),
    "threshold": ("run", 0, _run(2)),
    "sampled-p1": ("run", 4096, _run(1)),
    "sampled-p2": ("run", 4096, _run(2)),
    "brute_force_maxcut": ("brute force", 0, lambda g, _: brute_force_maxcut(g)),
}


@pytest.mark.parametrize("n", [8, 10, 12, 14, 16, 18, 20])
@pytest.mark.parametrize("case", PEAKS)
def test_peaks_follow_the_byte_model(case, n):
    # From n=14 the tracemalloc peak lies between 0.97 times the model and
    # the model plus the allowance (n=18: 1.0004-1.0099 times the model);
    # up to n=12 Python objects weigh as much as the state, so only the
    # upper bound holds.  Brute force reads 0.375 times the state from n=16 up.
    kind, shots, call = PEAKS[case]
    g = generate_random_graph(n, 2 * n, n)
    model = peak_bytes(kind, n, g.m, shots)
    peak, _ = traced_peak(call, g, shots)
    assert (n <= 12 or 0.97 * model <= peak) and peak <= model + _allowance(n), (
        f"n={n}: peak {peak:,} B, model {model:,} B"
    )
