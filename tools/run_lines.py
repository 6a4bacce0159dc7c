"""The ``src/qmaxcut`` statements that none of the program's runs execute.

Runs these in this process, under the stdlib :mod:`trace` module:

* the seven golden commands of ``tests/golden/regenerate.py``;
* ``gen``, then ``solve --graph FILE --csv FILE --latency 0.001`` on the
  graph it wrote;
* one operation of each workload in ``bench/workloads.py``, imported
  read-only: no bytecode is written and nothing under ``bench/`` changes;
* README's library tour, the block that ``tests/test_readme.py`` runs,
  so a line that only the documented API reaches counts as run.

Then prints a table of unexecuted lines per module and each unexecuted
statement inside a function, adjacent ones of one class joined, with the
first line of its source.  Module and class bodies run at import and are
not listed.  Each statement is classed as

* ``reference``: in the full-register reference (:data:`REFERENCE`), which
  the tests check the workspace against and no run calls;
* ``error``: a ``raise``, an ``except`` clause, an exception class (named
  ``*Error``), anything inside one, a statement of a block that ends in
  ``raise``, or a function (not a dunder) whose name ``src/`` uses only
  in ``error`` statements, such as a helper that only a refusal's
  message calls;
* ``neither``: anything else.  Each such line needs a reason to stay.

A compound statement counts as executed when its header or any statement
in it ran, so a header that compiles to no code (``while True:``) is not
listed.  BLAS runs on one thread and the qubit cap is the default, as for
the golden files.  Run from anywhere: ``python tools/run_lines.py``; the
report took 6.4-8.3 s traced and 8.2-8.4 s wall on a 2-vCPU Xeon.
"""

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
import time
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmaxcut"
# The full-register functions of simulator.py, kept for the tests alone.
REFERENCE = {"StateVector", "init_uniform", "_cut_table", "apply_cost_layer",
             "apply_mixer_layer", "apply_qaoa_circuit", "expectation_cut", "sample_bitstrings"}
CLASSES = ("error", "reference", "neither")


def _operation(workload, op):
    def run():
        result = workload.run(op)
        # bench-cli returns the command's exit code; the others return their output.
        return result if workload.name == "bench-cli" else 0
    return run


def runs(tmp: Path) -> dict:
    """Each run by name: a function that returns its exit code, 0 on success."""
    from qmaxcut import cli

    def command(*argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(list(argv))
        return run

    golden = importlib.import_module("regenerate")
    out = {" ".join(argv): command(*argv) for argv in golden.RUNS.values()}
    graph = str(tmp / "graph.txt")
    out["gen"] = command("gen", "--n", "9", "--m", "14", "--seed", "3", "--out", graph)
    out["solve --graph"] = command("solve", "--graph", graph, "--csv", str(tmp / "runs.csv"),
                                   "--latency", "0.001")
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        out[f"workload {name}"] = _operation(workload, workload.make_inputs(0, 0, tmp / name)[0])
    tour = importlib.import_module("test_readme").library_tour()
    out["README library tour"] = lambda: exec(tour, {}) or 0  # exec returns None
    return out


def _own_lines(node) -> range:
    """The lines of ``node`` outside the statements it contains."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if body:
        return range(start, max(start, body[0].lineno - 1) + 1)
    return range(start, node.end_lineno + 1)


def _children(node):
    for name in ("body", "handlers", "orelse", "finalbody"):
        yield from getattr(node, name, ())


def _names(node):
    """The names that ``node`` uses outside the statements it contains."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.stmt, ast.ExceptHandler)):
            for sub in ast.walk(child):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    yield getattr(sub, "id", None) or sub.attr


def unexecuted(tree: ast.Module, hit: set, reference: set, errors=frozenset(), uses=None) -> list:
    """``(lines, class)`` of each statement in a function that no run
    executed; the functions named in ``errors`` are ``error``.  With
    ``uses``, adds each statement's class to the set under every name it
    uses."""
    out = []

    def visit(body, inside, kind):
        """Whether any statement of ``body`` ran; records those that did not."""
        ends_in_raise = bool(body) and isinstance(body[-1], ast.Raise)
        any_ran = False
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                continue  # declarations and a function's docstring compile to no code
            own = kind
            if own is None and getattr(node, "name", None) in reference and not inside:
                own = "reference"
            function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if own is None and (isinstance(node, (ast.Raise, ast.ExceptHandler)) or ends_in_raise
                                or isinstance(node, ast.ClassDef) and node.name.endswith("Error")
                                or function and node.name in errors):
                own = "error"
            for name in _names(node) if uses is not None else ():
                uses.setdefault(name, set()).add(own)
            lines = _own_lines(node)
            nested = visit(list(_children(node)), inside or function, own)
            ran = (not function and nested) or any(line in hit for line in lines)
            if inside and not ran:
                out.append((lines, own or "neither"))
            any_ran |= ran
        return any_ran

    visit(tree.body, False, None)
    return sorted(out, key=lambda item: item[0].start)


def merged(statements: list) -> list:
    """Adjacent statements of one class as one ``(first, last, class)`` range."""
    out = []
    for lines, kind in statements:
        if out and out[-1][2] == kind and lines.start <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], lines.stop - 1)
        else:
            out.append([lines.start, lines.stop - 1, kind])
    return out


def main() -> None:
    sys.dont_write_bytecode = True  # bench/ and tests/ are imported, not written
    sys.path[:0] = [str(ROOT / "tests" / "golden"), str(ROOT / "tests"), str(ROOT / "bench")]
    os.environ.update(importlib.import_module("regenerate").ONE_THREAD)  # before numpy loads
    os.environ.pop("QMAXCUT_QUBIT_CAP", None)
    sys.path.insert(0, str(ROOT / "src"))
    ignore = {sys.prefix, sys.exec_prefix, sys.base_prefix, sys.base_exec_prefix}
    tracer = trace.Trace(count=1, trace=0, ignoredirs=sorted(ignore))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        todo = runs(Path(tmp))
        for name, run in todo.items():
            code = tracer.runfunc(run)
            if code != 0:
                raise SystemExit(f"run_lines: {name!r} exited {code}")
    elapsed = time.perf_counter() - start
    hit: dict[str, set] = {}
    for filename, line in tracer.results().counts:
        hit.setdefault(str(Path(filename).resolve()), set()).add(line)

    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for path in sorted(PACKAGE.glob("*.py"))}
    errors = set()
    while True:  # a function used only by error-only functions is error-only too
        uses, report = {}, {}
        for path, lines in sources.items():
            reference = REFERENCE if path.stem == "simulator" else set()
            statements = unexecuted(ast.parse("\n".join(lines)), hit.get(str(path), set()),
                                    reference, errors, uses)
            report[path.name] = (lines, statements)
        # Python calls dunders itself, so their uses in src/ are not all their calls.
        used_in_errors = {name for name, kinds in uses.items()
                          if kinds == {"error"} and not name.startswith("__")}
        if used_in_errors == errors:
            break
        errors = used_in_errors

    print(f"src/ lines that none of {len(todo)} runs executed ({elapsed:.1f} s traced)")
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in CLASSES))
    totals = dict.fromkeys(CLASSES, 0)
    for name, (_, statements) in report.items():
        counts = dict.fromkeys(CLASSES, 0)
        for lines, kind in statements:
            counts[kind] += len(lines)
            totals[kind] += len(lines)
        print(f"{name:<16}" + "".join(f"{counts[c]:>11}" for c in CLASSES))
    print(f"{'total':<16}" + "".join(f"{totals[c]:>11}" for c in CLASSES))
    for name, (lines, statements) in report.items():
        for first, last, kind in merged(statements):
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"{name + ':' + span:<24}{kind:<11}{lines[first - 1].strip()[:60]}")


if __name__ == "__main__":
    main()
