"""Per-piece timings of one depth-2 QAOA evaluation on a reused workspace.

For each register size (n=12, 16 and 20 on the benchmark's graphs: m=20,
30 and 60) it prints, in microseconds, the minimum over batches of the
mean time per call of:

* ``fill``: writing the start state into the half register;
* ``cost half-layer``: one phase layer (phase table, gather, multiply);
* ``block build``: the mixer blocks for one angle;
* ``block products``: the mixer's matrix products, the blocks given;
* ``top rotation``: the top qubit's rotation that ends a mixer half-layer;
* ``expectation``: an evaluation less its state preparation, that is
  the workspace's product with the cut table, its ``vdot`` and the memo;
* ``objective wrapper``: one evaluation of ``optimize_params`` whose
  circuit the workspace has already simulated: Nelder-Mead's steps,
  the objective closure, ``evaluate_params`` and the circuit memo;
* ``evaluation``: one whole evaluation of a circuit not simulated before.

Each batch times every piece in turn, ``BATCHES`` batches.  The fill,
the mixer's block build and the state preparation are taken off the
timings that include them: the cost half-layer, block products, top
rotation and expectation are differences of two minima, which noise on
a shared host can push below zero.  The pieces are timed
apart, so they need not add up to the evaluation.  BLAS runs on one
thread.  The buffers are filled with finite values first: a fresh
workspace's buffers hold its cut table's integers, which read as
denormals and slow in-place arithmetic 10-50 times.

Run from anywhere: ``python tools/eval_pieces.py [--json]``.  Each
``--src`` names a ``src`` directory to time instead of this checkout's;
with two, for a before/after pair, both are loaded into one process
(each package copied under its own name) and their batches interleave,
so drift on the host and the process's memory layout weigh on both
alike.  A checkout from before the workspace built its mixer plan is
timed through its per-call ``_mixer_blocks`` and ``_mix``; that branch
exists only to time such a commit as the ``before`` of a pair.
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

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

SRC = Path(__file__).resolve().parent.parent / "src"
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
    prepare = simulator._flip_symmetric_state
    mixer = getattr(ws, "mixer", None)
    if mixer is not None:
        build = lambda: mixer.weigh(beta)  # noqa: E731
        mix = lambda: mixer(w, scratch, beta)  # noqa: E731
    else:
        build = lambda: simulator._mixer_blocks(beta, n - 1)  # noqa: E731
        mix = lambda: simulator._mix(w, scratch, beta, n - 1)  # noqa: E731

    def evaluation():
        ws.values.clear()
        ws.expectation(params)

    cfg = pkg.QaoaConfig(p=2, budget=40, restarts=2, seed=n)
    memo = simulator.FlipSymmetricWorkspace(g)
    qaoa.optimize_params(g, cfg, workspace=memo)  # every later circuit is a memo hit
    return {
        "fill": lambda: prepare((), ws),
        "cost": lambda: prepare(((0, gamma),), ws),
        "mixer": lambda: prepare(((1, beta),), ws),
        "build": build,
        "mix": mix,
        "prepare": lambda: ws._prepare(circuit),
        "wrapper": lambda: qaoa.optimize_params(g, cfg, workspace=memo),
        "evaluation": evaluation,
    }, cfg.budget


def pieces(t: dict, budget: int) -> dict:
    """Microseconds per piece from the seconds per call ``t`` of each call."""
    times = {
        "fill": t["fill"],
        "cost half-layer": t["cost"] - t["fill"],
        "block build": t["build"],
        "block products": t["mix"] - t["build"],
        "top rotation": t["mixer"] - t["fill"] - t["mix"],
        "expectation": t["evaluation"] - t["prepare"],
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
    import numpy as np

    out = {
        "unit": "us",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sizes": measure(srcs),
    }
    if args.json:
        print(json.dumps(out, indent=1))
        return
    for src in map(str, srcs):
        rows = {n: by_src[src] for n, by_src in out["sizes"].items()}
        if len(srcs) > 1:
            print(src)
        print(f"{'piece (us)':<20}" + "".join(f"{'n=' + n:>11}" for n in rows))
        for name in next(iter(rows.values())):
            print(f"{name:<20}" + "".join(f"{row[name]:>11,.1f}" for row in rows.values()))


if __name__ == "__main__":
    main()
