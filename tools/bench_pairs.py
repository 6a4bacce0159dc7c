"""Paired benchmark runs: this checkout against a parent commit.

Exports the parent commit with ``git archive`` into a temporary
directory, then, for every seed and workload, runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

with every workload and the run length ``T`` that ``BENCHMARK.json``
names, in the parent's tree and in this checkout, alternating which
side runs first from one seed to the next.  For each workload and side
it writes the median and quartiles of every end-to-end metric that
``BENCHMARK.json`` gates, and per metric how many seeds the checkout
won.  With ``--pieces N`` it also runs ``tools/eval_pieces.py`` N times
on both sides at once (their batches interleave in one process), naming
the parent first in every other run, and keeps each piece's median.
The output names the machine: nproc, CPU model, Python and numpy
versions, and the BLAS library and its thread count (the benchmark pins
it to one thread).

Standard library only; run from anywhere, for example

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 101-110 --out BENCH.json

Pick seeds that were not used while the change was built.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NUMPY_INFO = (
    "import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),"
    " 'blas_version': blas.get('version')}))"
)


def _seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"3,5,8"`` as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _export(rev: str, into: Path) -> str:
    """Extract ``rev``'s committed files into ``into``; returns its full hash."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    return sha


def _run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced benchmark run, or ``{"error": ...}``."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _run_pieces(trees: dict, order: tuple) -> dict:
    """``{side: {size: pieces}}`` from one ``eval_pieces.py`` run of both sides."""
    cmd = [sys.executable, str(ROOT / "tools" / "eval_pieces.py"), "--json"]
    for side in order:
        cmd += ["--src", str(trees[side] / "src")]
    sizes = json.loads(subprocess.run(cmd, capture_output=True, text=True,
                                      check=True).stdout)["sizes"]
    return {side: {n: by_src[str((trees[side] / "src").resolve())] for n, by_src in sizes.items()}
            for side in order}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _provenance() -> dict:
    info = json.loads(subprocess.run([sys.executable, "-c", _NUMPY_INFO], check=True,
                                     capture_output=True, text=True).stdout)
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), **info,
            "blas_threads": 1, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("101-110"))
    ap.add_argument("--pieces", type=int, default=0, help="eval_pieces.py rounds per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: {"parent": [], "head": []} for w in workloads}
    pieces = {"parent": [], "head": []}
    started = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        sha = _export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "head": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            for workload in workloads:
                for side in order:
                    result = _run_bench(trees[side], workload, seed, seconds)
                    runs[workload][side].append({"seed": seed, **result})
                    print(f"seed {seed} {workload} {side}: {result.get('metrics', result)}",
                          file=sys.stderr, flush=True)
        for i in range(args.pieces):
            run = _run_pieces(trees, ("parent", "head") if i % 2 == 0 else ("head", "parent"))
            for side in pieces:
                pieces[side].append(run[side])

    head_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True).stdout.strip())
    out = {
        "what": "bench/run.py --trace 0, paired by seed, parent against this checkout",
        "parent": sha,
        "head": f"checkout at {head_rev}" + (", with changes under src" if dirty else ""),
        "seeds": args.seeds,
        "seconds": seconds,
        "provenance": _provenance(),
        "wall_s": round(time.time() - started, 1),
        "workloads": {},
    }
    for workload, sides in runs.items():
        entry = {}
        for side, results in sides.items():
            ok = [r for r in results if "metrics" in r]
            entry[side] = {name: _summary([r["metrics"][name] for r in ok]) for name in gated}
            entry[side]["failed_runs"] = len(results) - len(ok)
            entry[side]["incorrect_runs"] = sum(not r["correct"] for r in ok)
        wins = {}
        for name, better in gated.items():
            pairs = zip(entry["parent"][name]["values"], entry["head"][name]["values"])
            won = [(h < p) if better == "lower" else (h > p) for p, h in pairs]
            wins[name] = f"{sum(won)} of {len(won)}"
        entry["head_better"] = wins
        out["workloads"][workload] = entry
    if args.pieces:
        out["eval_pieces_us"] = {
            side: {size: {name: statistics.median(r[size][name] for r in rounds)
                          for name in rounds[0][size]}
                   for size in rounds[0]}
            for side, rounds in pieces.items()
        }
        out["eval_pieces_rounds"] = args.pieces
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
