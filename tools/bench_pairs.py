"""Paired benchmark runs: this checkout against a parent commit.

Exports the parent commit with ``git archive`` into a temporary
directory, then, for every seed and workload, runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

with the run length ``T`` that ``BENCHMARK.json`` names, on every
workload it names or on those that ``--workloads`` picks, in the
parent's tree and in this checkout, alternating which
side runs first from one seed to the next.  For each workload and side
it writes the median and quartiles of every end-to-end metric that
``BENCHMARK.json`` gates, per metric how many seeds the checkout won,
and two verdicts per metric: ``gain``, when the checkout won at least
nine tenths of the pairs (a tie counts for neither side) and its median
is better than the parent's by more than the parent's interquartile
range, and ``within_bound``, when its median is no worse than the
parent's by more than the metric's ``bound``, a fraction of the
parent's median.  With ``--pieces N`` it also runs
``tools/eval_pieces.py`` N times on both sides at once (their batches
interleave in one process), naming the parent first in every other run,
and keeps each piece's median and the median of the runs' per-batch
ratios of the checkout's evaluation time over the parent's.
The output names the machine: nproc, CPU model, Python and numpy
versions, the BLAS library and its thread count (the benchmark pins it
to one thread), and the OpenBLAS kernel that ``tools/blas_kernel.py``
reads in a child process, so this script itself imports no numpy.

Standard library only; run from anywhere, for example

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 101-110 --out BENCH.json
    python3 tools/bench_pairs.py --workloads bench-cli,qaoa-n20 --out BENCH.json

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


def _run_pieces(trees: dict, order: tuple) -> tuple[dict, dict]:
    """``{side: {size: pieces}}`` from one ``eval_pieces.py`` run of both
    sides, and ``{size: ratio}``, the median of its per-batch ratios of the
    checkout's evaluation time over the parent's."""
    cmd = [sys.executable, str(ROOT / "tools" / "eval_pieces.py"), "--json"]
    for side in order:
        cmd += ["--src", str(trees[side] / "src")]
    run = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    ratios = {n: r if order[0] == "parent" else 1 / r for n, r in run["evaluation_ratio"].items()}
    return {side: {n: by_src[str((trees[side] / "src").resolve())]
                   for n, by_src in run["sizes"].items()} for side in order}, ratios


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _verdicts(parent: dict, head: dict, better: str, bound: float) -> tuple[str, dict]:
    """How many pairs the checkout won, and its ``gain`` and
    ``within_bound`` verdicts (see the module docstring), from the two
    sides' summaries of one metric."""
    sign = 1 if better == "lower" else -1  # sign * (parent - head) > 0: the checkout is better
    won = [sign * (p - h) > 0 for p, h in zip(parent["values"], head["values"])]
    gain = sign * (parent["median"] - head["median"])
    return f"{sum(won)} of {len(won)}", {
        "gain": bool(won) and 10 * sum(won) >= 9 * len(won) and gain > parent["q3"] - parent["q1"],
        "within_bound": -gain <= bound * abs(parent["median"]),
    }


def _provenance() -> dict:
    info = json.loads(subprocess.run([sys.executable, "-c", _NUMPY_INFO], check=True,
                                     capture_output=True, text=True).stdout)
    kernel = subprocess.run([sys.executable, str(ROOT / "tools" / "blas_kernel.py")],
                            capture_output=True, text=True).stdout.strip()
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), **info, "blas_kernel": kernel or "unknown",
            "blas_threads": 1, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("101-110"))
    ap.add_argument("--workloads", type=lambda text: text.split(","),
                    help="comma-separated workloads (default: every one in BENCHMARK.json)")
    ap.add_argument("--pieces", type=int, default=0, help="eval_pieces.py rounds per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workloads or ()) - set(workloads))
    if unknown:
        ap.error(f"unknown workloads {', '.join(unknown)}; BENCHMARK.json names {', '.join(workloads)}")
    workloads = args.workloads or workloads
    seconds = spec["run_seconds"]
    runs = {w: {"parent": [], "head": []} for w in workloads}
    pieces, ratios = {"parent": [], "head": []}, []
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
            run, ratio = _run_pieces(trees, ("parent", "head") if i % 2 == 0 else ("head", "parent"))
            ratios.append(ratio)
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
        wins, verdicts = {}, {}
        for name, better in gated.items():
            wins[name], verdicts[name] = _verdicts(entry["parent"][name], entry["head"][name],
                                                   better, bounds[name])
        entry["head_better"] = wins
        entry["verdicts"] = verdicts
        out["workloads"][workload] = entry
    if args.pieces:
        out["eval_pieces_us"] = {
            side: {size: {name: statistics.median(r[size][name] for r in rounds)
                          for name in rounds[0][size]}
                   for size in rounds[0]}
            for side, rounds in pieces.items()
        }
        out["eval_pieces_rounds"] = args.pieces
        out["evaluation_ratio_head_over_parent"] = {
            size: round(statistics.median(r[size] for r in ratios), 4) for size in ratios[0]}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
