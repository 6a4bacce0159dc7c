"""Per-piece timings of one depth-2 QAOA evaluation on a reused workspace.

For each register size (n=12, 16 and 20 on the benchmark's graphs: m=20,
30 and 60) it prints, in microseconds, per piece the mean time per call
in each batch, the minimum over batches (a piece timed on its own) or
the median over batches of the difference within each batch (a piece
that is one timed call less others):

* ``first layer``: the circuit's opening cost and mixer half-layers
  less the mixer's blocks: on a checkout whose first layer is one
  gather (the phase table of frame classes and cut-value pairs, built
  for the angles, then the gather), that alone; on one that writes the
  start state and phases it, its first cost half-layer (start state
  included) plus the top rotation below;
* ``cost half-layer``: one phase layer after the first (phase table,
  gather, multiply): the first layer and a phase layer less the first
  layer;
* ``block build``: the mixer blocks for one angle (``_Mixer.weigh``,
  one ``take`` that fills every block);
* ``block products``: the mixer's matrix products, the blocks given (a
  mixer call less its build), block 0's stacked real products included
  on a checkout that has them;
* ``top rotation``: the top qubit's rotation that ends a mixer
  half-layer after the first layer;
* ``expectation``: an evaluation less its state preparation
  (``simulator._flip_symmetric_state``), that is the workspace's lookup,
  its sum of ``|w|**2`` over the cut table (one ``vdot``, or from n=17
  the order-fixed sum chunk by chunk) and the memo;
* ``best-state snapshot``: what a sampled run pays when a simulation
  beats its best, on a state the workspace holds: a 4,096-shot draw of
  its cut (``FlipSymmetricWorkspace._drawn_cut``), less the copy that
  puts the state back before each draw, since a draw may overwrite it;
* ``objective wrapper``: one evaluation of ``optimize_params`` whose
  circuit the workspace has already simulated: Nelder-Mead's steps,
  the objective closure, ``evaluate_params`` and the circuit memo;
* ``evaluation``: one whole evaluation of a circuit not simulated before:
  each call clears the workspace's memo and the state it holds, so the
  state is prepared again.

Each batch times every piece in turn, ``BATCHES`` batches.  The first
layer (or fill and first phase layer), the mixer's products and block
build, the state preparation and the state copy are taken off the
timings that include them within each batch: the first layer, cost
half-layer, block products, top rotation, expectation and snapshot are
medians of those same-batch differences, so drift between batches
cancels and one noisy batch cannot push a piece below zero.  The pieces
are timed apart, so they need not add up to the evaluation.  BLAS runs
on one thread and the qubit cap is the default, whatever ``QMAXCUT_QUBIT_CAP``
the shell holds.  The buffers are filled with finite values first: a
fresh workspace's buffers hold its cut table's integers, which read as
denormals and slow in-place arithmetic 10-50 times.  The output names
numpy, Python, nproc and the OpenBLAS kernel picked at run time
(``tools/blas_kernel.py``).

Run from anywhere: ``python tools/eval_pieces.py [--json]``.  Each
``--src`` names a ``src`` directory to time instead of this checkout's;
with two, for a before/after pair, both are loaded into one process
(each package copied under its own name) and each batch times a piece
of one right after the same piece of the other, which goes first in
every other batch, so drift on the host and the process's memory layout
weigh on both alike.  It also prints the median over batches of the
second's evaluation time over the first's in the same batch (with the
same ``src`` twice it read 1.002, 0.993 and 1.003 at n=12 in three
runs; timing all of one package's pieces before the other's read the
second 1-4% slower), and the quartiles of those ratios, so one run shows
whether a difference of a few percent lies inside their spread.  Each
``src`` is timed by the ``timed_calls`` of the ``tools/eval_pieces.py``
beside it when there is one, so a pair may span a change of the
workspace's private API; a ``src`` with none is timed by this file's,
which needs its mixer plan in the workspace, the mixer called with the
angle alone and a new best's cut drawn with ``_drawn_cut``; it times a
workspace whose scratch buffer is half the register or smaller alike.
"""

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
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
SHOTS = 4096  # a sampled run's shots, as in the benchmark's qaoa-n20 workload


def batch_means(fns: dict) -> dict:
    """Per ``(label, name)`` key, the mean seconds per call of its
    function in each of ``BATCHES`` batches.  A batch times each name's
    functions back to back, one per label, the labels in turn first from
    one batch to the next, so two labels' ``i``-th means of one name were
    taken side by side and neither always runs second."""
    reps = {}
    for key, fn in fns.items():
        fn()
        start = time.perf_counter()
        fn()
        reps[key] = max(1, int(BATCH_S / max(time.perf_counter() - start, 1e-7)))
    labels = list(dict.fromkeys(label for label, _ in fns))
    names = list(dict.fromkeys(name for _, name in fns))
    means = {key: [] for key in fns}
    for batch in range(BATCHES):
        shift = batch % len(labels)
        for name in names:
            for label in labels[shift:] + labels[:shift]:
                if (label, name) not in fns:  # a call that one tree's timings lack
                    continue
                fn, n = fns[label, name], reps[label, name]
                start = time.perf_counter()
                for _ in range(n):
                    fn()
                means[label, name].append((time.perf_counter() - start) / n)
    return means


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
    prepare = simulator._flip_symmetric_state
    mixer = ws.mixer
    sampled = simulator.FlipSymmetricWorkspace(g, SHOTS, 0)
    sampled.expectation(params)
    kept = sampled._state_of(circuit).copy()

    def restore():
        sampled.state[...] = kept
        sampled.held = circuit

    def snapshot():
        restore()
        sampled._drawn_cut(circuit)

    def evaluation():
        ws.values.clear()
        ws.held = None
        ws.expectation(params)

    cfg = pkg.QaoaConfig(p=2, budget=40, restarts=2, seed=n)
    memo = simulator.FlipSymmetricWorkspace(g)
    qaoa.optimize_params(g, cfg, workspace=memo)  # every later circuit is a memo hit
    first = ((0, gamma), (1, beta))
    return {
        "first": lambda: prepare(first, ws),
        "cost2": lambda: prepare((*first, (0, gamma)), ws),
        "mixer": lambda: prepare((*first, (1, beta)), ws),
        "build": lambda: mixer.weigh(beta),
        "mix": lambda: mixer(beta),
        "prepare": lambda: prepare(circuit, ws),
        "restore": restore,
        "snapshot": snapshot,
        "wrapper": lambda: qaoa.optimize_params(g, cfg, workspace=memo),
        "evaluation": evaluation,
    }, cfg.budget


def pieces(t: dict, budget: int) -> dict:
    """Microseconds per piece from the per-batch seconds per call ``t``
    of each call."""
    low = {name: min(means) for name, means in t.items()}

    def less(name, *others):
        """The median over batches of ``name`` less ``others`` in that
        batch; one that a tree's timings lack counts as 0."""
        return statistics.median(
            mean - sum(t[other][i] for other in others if other in t)
            for i, mean in enumerate(t[name]))

    if "first" in t:  # the first layer is one gather before the blocks
        first, cost = less("first", "mix"), less("cost2", "first")
        top = less("mixer", "first", "mix")
    else:  # a tree that writes the start state, phases it and rotates after the blocks
        top = less("mixer", "fill", "mix")
        first, cost = low["cost"] + top, less("cost2", "cost")
    times = {
        "first layer": first,
        "cost half-layer": cost,
        "block build": low["build"],
        "block products": less("mix", "build"),
        "top rotation": top,
        "expectation": less("evaluation", "prepare"),
        "best-state snapshot": less("snapshot", "restore"),
        "objective wrapper": low["wrapper"] / budget,
        "evaluation": low["evaluation"],
    }
    return {name: round(1e6 * s, 2) for name, s in times.items()}


def own_timed_calls(src: Path, i: int):
    """The ``timed_calls`` of the ``tools/eval_pieces.py`` beside ``src``,
    which knows its tree's private API, or this one's if there is none."""
    path = src.parent / "tools" / "eval_pieces.py"
    if not path.is_file():
        return timed_calls
    spec = importlib.util.spec_from_file_location(f"eval_pieces_{i}", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    spec.loader.exec_module(module)
    sys.path[:] = saved
    return module.timed_calls


def measure(srcs: list[Path]) -> tuple[dict, dict, dict]:
    """``{size: {src: pieces}}``, the calls of all ``srcs`` interleaved,
    and with two ``srcs`` ``{size: ratio}`` and ``{size: [q1, q3]}``: the
    median and quartiles over batches of the second's evaluation time
    over the first's in the same batch."""
    out, ratios, quartiles = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {}
        for i, src in enumerate(srcs):
            shutil.copytree(src / "qmaxcut", Path(tmp) / f"qmaxcut_{i}")
            pkgs[str(src)] = importlib.import_module(f"qmaxcut_{i}"), own_timed_calls(src, i)
        for n, m in SIZES:
            calls = {label: calls_of(pkg, n, m) for label, (pkg, calls_of) in pkgs.items()}
            t = batch_means({(label, name): fn for label, (fns, _) in calls.items()
                             for name, fn in fns.items()})
            out[str(n)] = {label: pieces({name: t[label, name] for name in fns}, budget)
                           for label, (fns, budget) in calls.items()}
            if len(srcs) == 2:
                first, second = (t[str(src), "evaluation"] for src in srcs)
                per_batch = [b / a for a, b in zip(first, second)]
                ratios[str(n)] = round(statistics.median(per_batch), 4)
                q1, _, q3 = statistics.quantiles(per_batch, n=4)
                quartiles[str(n)] = [round(q1, 4), round(q3, 4)]
            del calls  # frees the workspaces before the next size
    return out, ratios, quartiles


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="a src directory to time (repeatable); default: this checkout's")
    ap.add_argument("--json", action="store_true", help="print one JSON object instead")
    args = ap.parse_args(argv)
    srcs = [p.resolve() for p in args.src or [SRC]]
    from blas_kernel import kernel

    sizes, ratios, quartiles = measure(srcs)
    out = {
        "unit": "us",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_kernel": kernel(),
        "sizes": sizes,
        "evaluation_ratio": ratios,
        "evaluation_ratio_quartiles": quartiles,
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
    if ratios:
        print("evaluation, second over first (median [quartiles] of per-batch ratios): "
              + ", ".join(f"n={n} {ratio:.4f} [{quartiles[n][0]:.4f}, {quartiles[n][1]:.4f}]"
                          for n, ratio in ratios.items()))


if __name__ == "__main__":
    main()
