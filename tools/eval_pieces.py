"""Per-piece timings of one depth-2 QAOA evaluation on a reused workspace.

For each register size (n=12, 16 and 20 on the benchmark's graphs: m=20,
30 and 60) it prints, in microseconds, the minimum over batches of the
mean time per call of:

* ``fill``: writing the start state into the half register, as a
  circuit that opens with a mixer half-layer does;
* ``first cost half-layer``: a circuit of one phase layer, start state
  included, so it times the same work on a checkout that fills the
  state first and on one that multiplies the gathered phases by the
  start state instead;
* ``cost half-layer``: one phase layer after the first (phase table,
  gather, multiply): two phase layers less one;
* ``block build``: the mixer blocks for one angle;
* ``block products``: the mixer's matrix products, the blocks given;
* ``top rotation``: the top qubit's rotation that ends a mixer half-layer;
* ``expectation``: an evaluation less its state preparation
  (``simulator._flip_symmetric_state``), that is the workspace's lookup,
  its product with the cut table, its ``vdot`` and the memo;
* ``best-state snapshot``: the ``np.abs`` pass that writes a new best
  state's ``|w|`` into a keep-best workspace's ``kept``, here into a
  float64 array of the same size, so every checkout times the same pass;
* ``objective wrapper``: one evaluation of ``optimize_params`` whose
  circuit the workspace has already simulated: Nelder-Mead's steps,
  the objective closure, ``evaluate_params`` and the circuit memo;
* ``evaluation``: one whole evaluation of a circuit not simulated before:
  each call clears the workspace's memo and the state it holds, so the
  state is prepared again.

Each batch times every piece in turn, ``BATCHES`` batches.  The fill,
the first phase layer, the mixer's block build and the state
preparation are taken off the timings that include them: the cost
half-layer, block products, top rotation and expectation are
differences of two minima, which noise on
a shared host can push below zero.  The pieces are timed
apart, so they need not add up to the evaluation.  BLAS runs on one
thread and the qubit cap is the default, whatever ``QMAXCUT_QUBIT_CAP``
the shell holds.  The buffers are filled with finite values first: a
fresh workspace's buffers hold its cut table's integers, which read as
denormals and slow in-place arithmetic 10-50 times.  The output names
numpy, Python, nproc and the OpenBLAS kernel picked at run time
(``tools/blas_kernel.py``).

Run from anywhere: ``python tools/eval_pieces.py [--json]``.  Each
``--src`` names a ``src`` directory to time instead of this checkout's;
with two, for a before/after pair, both are loaded into one process
(each package copied under its own name) and their batches interleave,
so drift on the host and the process's memory layout weigh on both
alike.  Each checkout must build its mixer plan in the workspace.
"""

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests" / "golden"))
from regenerate import ONE_THREAD  # noqa: E402

os.environ.update(ONE_THREAD)  # before numpy loads
os.environ.pop("QMAXCUT_QUBIT_CAP", None)  # n=20 needs the default cap

import numpy as np  # noqa: E402

SRC = ROOT / "src"
SIZES = ((12, 20), (16, 30), (20, 60))
ANGLES = ((0.7, 0.45), (0.31, 0.22))  # gammas, betas: no angle is 0
BATCH_S = 0.005  # seconds per batch, roughly
BATCHES = 40


def best_of(fns: dict) -> dict:
    """Per key, the minimum over ``BATCHES`` of the mean seconds per call
    of ``fns[key]``.  Each batch times every function in turn, so a
    difference of two minima is taken over the same stretch of time."""
    reps = {}
    for key, fn in fns.items():
        fn()
        start = time.perf_counter()
        fn()
        reps[key] = max(1, int(BATCH_S / max(time.perf_counter() - start, 1e-7)))
    best = dict.fromkeys(fns, math.inf)
    for _ in range(BATCHES):
        for key, fn in fns.items():
            start = time.perf_counter()
            for _ in range(reps[key]):
                fn()
            best[key] = min(best[key], (time.perf_counter() - start) / reps[key])
    return best


def timed_calls(pkg, n: int, m: int) -> tuple[dict, int]:
    """The calls to time at ``n`` qubits on package ``pkg``, by name, and
    the evaluations per ``wrapper`` call."""
    simulator, qaoa = pkg.simulator, pkg.qaoa
    g = pkg.generate_random_graph(n, m, n)
    ws = simulator.FlipSymmetricWorkspace(g)
    for buffer in (ws.state, ws.scratch):
        buffer[...] = 1.0 / math.sqrt(1 << n)
    params = pkg.QaoaParams(*ANGLES)
    circuit = simulator._circuit(params)
    gamma, beta = params.gammas[0], params.betas[0]
    w, scratch = ws.state, ws.scratch
    kept = np.empty(w.size)
    prepare = simulator._flip_symmetric_state
    mixer = ws.mixer

    def evaluation():
        ws.values.clear()
        ws.held = None
        ws.expectation(params)

    cfg = pkg.QaoaConfig(p=2, budget=40, restarts=2, seed=n)
    memo = simulator.FlipSymmetricWorkspace(g)
    qaoa.optimize_params(g, cfg, workspace=memo)  # every later circuit is a memo hit
    return {
        "fill": lambda: prepare((), ws),
        "cost": lambda: prepare(((0, gamma),), ws),
        "cost2": lambda: prepare(((0, gamma), (0, gamma)), ws),
        "mixer": lambda: prepare(((1, beta),), ws),
        "build": lambda: mixer.weigh(beta),
        "mix": lambda: mixer(w, scratch, beta),
        "prepare": lambda: prepare(circuit, ws),
        "snapshot": lambda: np.abs(w, out=kept),
        "wrapper": lambda: qaoa.optimize_params(g, cfg, workspace=memo),
        "evaluation": evaluation,
    }, cfg.budget


def pieces(t: dict, budget: int) -> dict:
    """Microseconds per piece from the seconds per call ``t`` of each call."""
    times = {
        "fill": t["fill"],
        "first cost half-layer": t["cost"],
        "cost half-layer": t["cost2"] - t["cost"],
        "block build": t["build"],
        "block products": t["mix"] - t["build"],
        "top rotation": t["mixer"] - t["fill"] - t["mix"],
        "expectation": t["evaluation"] - t["prepare"],
        "best-state snapshot": t["snapshot"],
        "objective wrapper": t["wrapper"] / budget,
        "evaluation": t["evaluation"],
    }
    return {name: round(1e6 * s, 2) for name, s in times.items()}


def measure(srcs: list[Path]) -> dict:
    """``{size: {src: pieces}}``, the calls of all ``srcs`` interleaved."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {}
        for i, src in enumerate(srcs):
            shutil.copytree(src / "qmaxcut", Path(tmp) / f"qmaxcut_{i}")
            pkgs[str(src)] = importlib.import_module(f"qmaxcut_{i}")
        for n, m in SIZES:
            calls = {label: timed_calls(pkg, n, m) for label, pkg in pkgs.items()}
            t = best_of({(label, name): fn for label, (fns, _) in calls.items()
                         for name, fn in fns.items()})
            out[str(n)] = {label: pieces({name: t[label, name] for name in fns}, budget)
                           for label, (fns, budget) in calls.items()}
            del calls  # frees the workspaces before the next size
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="a src directory to time (repeatable); default: this checkout's")
    ap.add_argument("--json", action="store_true", help="print one JSON object instead")
    args = ap.parse_args(argv)
    srcs = [p.resolve() for p in args.src or [SRC]]
    from blas_kernel import kernel

    out = {
        "unit": "us",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_kernel": kernel(),
        "sizes": measure(srcs),
    }
    if args.json:
        print(json.dumps(out, indent=1))
        return
    print(", ".join(f"{key} {out[key]}" for key in ("numpy", "python", "nproc", "blas_kernel")))
    for src in map(str, srcs):
        rows = {n: by_src[src] for n, by_src in out["sizes"].items()}
        if len(srcs) > 1:
            print(src)
        print(f"{'piece (us)':<20}" + "".join(f"{'n=' + n:>11}" for n in rows))
        for name in next(iter(rows.values())):
            print(f"{name:<20}" + "".join(f"{row[name]:>11,.1f}" for row in rows.values()))


if __name__ == "__main__":
    main()
