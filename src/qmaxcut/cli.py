"""Command-line interface: ``gen``, ``solve``, and ``bench``.

``gen`` writes a reproducible random graph in the edge-list format.
``solve`` runs one or all solvers on one graph and prints ``key=value``
lines (cut, assignment, runtime, and pipeline accounting for qaoa).
``bench`` sweeps a size schedule with every solver and emits CSV rows

    algorithm,n,m,depth,cut,runtime_s,seed,expectation

one row per (graph, solver, depth) cell: classical rows carry depth 0
and a blank expectation; rows whose solver failed keep their identity
columns and leave cut/runtime_s/expectation blank (the reason goes to
stderr).  Brute force is skipped, not failed, on cells above the qubit
cap.  Reruns with identical arguments produce byte-identical output
except for the runtime_s column.  When the CSV goes to a file, two
plot-ready data sets are written next to it: ``<stem>.runtime_vs_n.
<series>.dat`` (one two-column file per algorithm series) and
``<stem>.runtime_vs_p.dat`` (depth vs mean runtime).

Exit codes: 0 success, 2 bad usage, malformed input or a path that
cannot be read or written (missing, a directory, no permission), 3
resource limit exceeded, 4 benchmark completed with failed cells.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .classical import brute_force_maxcut, greedy_maxcut
from .errors import EdgeListParseError, ResourceLimitError
from .graph import Graph, generate_random_graph, parse_edge_list, write_edge_list
from .pipeline import STAGES, PipelineConfig, run_pipeline
from .qaoa import QaoaConfig, run_qaoa
from .simulator import resolve_qubit_cap

CSV_HEADER = "algorithm,n,m,depth,cut,runtime_s,seed,expectation"
DEFAULT_SCHEDULE = ((4, 5), (6, 9), (8, 12), (10, 15), (12, 20), (14, 25), (16, 30))
DEFAULT_DEPTHS = (1, 2, 3)
_TRIAL_SEED_STRIDE = 10_000


class UsageError(Exception):
    """Usage-level error discovered after argparse."""


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row.  ``None`` fields render as empty cells."""

    algorithm: str
    n: int
    m: int
    depth: int
    cut: int | None
    runtime_s: float | None
    seed: int
    expectation: float | None

    def to_csv_row(self) -> str:
        def num(x) -> str:
            return "" if x is None else repr(float(x))

        cut = "" if self.cut is None else str(self.cut)
        return (
            f"{self.algorithm},{self.n},{self.m},{self.depth},"
            f"{cut},{num(self.runtime_s)},{self.seed},{num(self.expectation)}"
        )


def _two_ints(text: str, sep: str, message: str) -> tuple[int, int]:
    """``text`` as two integers joined by ``sep``; anything else raises ``message``."""
    parts = text.split(sep)
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(message)


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(
        _two_ints(chunk, ":", f"size entry {chunk!r} is not of the form n:m")
        for chunk in text.split(",")
    )


def _parse_depths(text: str) -> tuple[int, ...]:
    try:
        depths = sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad depth list {text!r}") from None
    if not depths or depths[0] < 1:
        raise argparse.ArgumentTypeError("depths must be positive integers")
    return tuple(depths)


def _parse_gen(text: str) -> tuple[int, int]:
    return _two_ints(text, ",", f"--gen wants n,m (two integers), got {text!r}")


def _load_graph(args) -> Graph:
    if args.graph is not None and args.gen is not None:
        raise UsageError("--graph cannot be combined with --gen")
    if args.graph is not None:
        return parse_edge_list(Path(args.graph).read_text())
    if args.gen is not None:
        n, m = args.gen
        return generate_random_graph(n, m, args.seed)
    raise UsageError("either --graph FILE or --gen n,m is required")


def _labels_str(labels) -> str:
    return "".join("+" if x == 1 else "-" for x in labels)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _append_csv(path: str, records: list[BenchRecord]):
    target = Path(path)
    rows = [r.to_csv_row() for r in records]
    if not (target.exists() and target.stat().st_size > 0):
        rows.insert(0, CSV_HEADER)
    with open(target, "a", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def cmd_gen(args) -> int:
    g = generate_random_graph(args.n, args.m, args.seed)
    _write_text(args.out, write_edge_list(g))
    return 0


def _run_classical(g: Graph, algo: str, seed: int, trials: int = 1):
    """First of ``trials`` solver runs, and a row with its cut and the mean runtime."""
    solver = brute_force_maxcut if algo == "brute_force" else greedy_maxcut
    runs = [solver(g) for _ in range(trials)]
    record = BenchRecord(
        algo, g.n, g.m, 0, runs[0].assignment.cut_value,
        sum(r.elapsed for r in runs) / trials, seed, None,
    )
    return runs[0], record


def _solve_classical(g: Graph, algo: str, seed: int) -> tuple[list[str], BenchRecord]:
    res, record = _run_classical(g, algo, seed)
    lines = [
        f"algorithm={algo}",
        f"n={g.n}",
        f"m={g.m}",
        f"cut={res.assignment.cut_value}",
        f"assignment={_labels_str(res.assignment.labels)}",
        f"runtime_s={res.elapsed!r}",
    ]
    return lines, record


def _solve_qaoa(g: Graph, args, depth: int) -> tuple[list[str], BenchRecord]:
    qcfg = QaoaConfig(
        p=depth,
        budget=args.budget,
        restarts=args.restarts,
        shots=args.shots,
        seed=args.seed,
        warm_start=not args.no_warm,
    )
    pcfg = PipelineConfig(
        qaoa=qcfg, offload_latency=args.latency, postprocess_refine=not args.no_refine
    )
    report = run_pipeline(g, pcfg)
    runtime = sum(report.stage_timings.values())
    lines = [
        "algorithm=qaoa",
        f"n={g.n}",
        f"m={g.m}",
        f"depth={depth}",
        f"assignment={_labels_str(report.final_cut.labels)}",
    ]
    lines += report.as_kv_lines()
    lines += [f"runtime_s={runtime!r}"]
    record = BenchRecord(
        "qaoa", g.n, g.m, depth, report.final_cut.cut_value,
        runtime, args.seed, report.qaoa_result.best_expectation,
    )
    return lines, record


def cmd_solve(args) -> int:
    g = _load_graph(args)
    algos = ("brute_force", "greedy", "qaoa") if args.algo == "all" else (
        {"brute": "brute_force", "greedy": "greedy", "qaoa": "qaoa"}[args.algo],
    )
    blocks: list[str] = []
    records: list[BenchRecord] = []
    for algo in algos:
        if algo == "qaoa":
            for depth in args.depth:
                lines, record = _solve_qaoa(g, args, depth)
                blocks.append("\n".join(lines))
                records.append(record)
        else:
            lines, record = _solve_classical(g, algo, args.seed)
            blocks.append("\n".join(lines))
            records.append(record)
    print("\n\n".join(blocks))
    if args.csv is not None:
        _append_csv(args.csv, records)
    return 0


def _bench_cell_qaoa(g, depths, budget, restarts, shots, solver_seed):
    """Run the depth chain once; returns {depth: (cut, expectation, runtime)}."""
    out = {}
    prev_params = None
    for depth in depths:
        cfg = QaoaConfig(
            p=depth, budget=budget, restarts=restarts, shots=shots, seed=solver_seed
        )
        result = run_qaoa(g, cfg, warm_params=prev_params)
        out[depth] = (result.best_cut.cut_value, result.best_expectation, result.elapsed)
        prev_params = result.best_params
    return out


def _blank_rows(n, m, depths, graph_seed, classical=()) -> list[BenchRecord]:
    """Rows with blank measurements: one per ``classical`` algorithm, then qaoa."""
    cells = [(algo, 0) for algo in classical] + [("qaoa", d) for d in depths]
    return [BenchRecord(algo, n, m, d, None, None, graph_seed, None) for algo, d in cells]


def _write_plot_data(out_path: str, records: list[BenchRecord]) -> list[str]:
    """Two-column gnuplot-style series files next to the CSV."""
    stem = str(Path(out_path).with_suffix(""))
    written = []

    series: dict[str, list[tuple[int, float]]] = {}
    for r in records:
        if r.runtime_s is None:
            continue
        key = f"qaoa_p{r.depth}" if r.algorithm == "qaoa" else r.algorithm
        series.setdefault(key, []).append((r.n, r.runtime_s))
    for key, rows in series.items():
        path = f"{stem}.runtime_vs_n.{key}.dat"
        _write_text(path, "".join(f"{n} {rt!r}\n" for n, rt in rows))
        written.append(path)

    by_depth: dict[int, list[float]] = {}
    for r in records:
        if r.algorithm == "qaoa" and r.runtime_s is not None:
            by_depth.setdefault(r.depth, []).append(r.runtime_s)
    if by_depth:
        path = f"{stem}.runtime_vs_p.dat"
        _write_text(path, "".join(
            f"{d} {sum(v) / len(v)!r}\n" for d, v in sorted(by_depth.items())
        ))
        written.append(path)
    return written


def cmd_bench(args) -> int:
    sizes = args.sizes if args.sizes is not None else DEFAULT_SCHEDULE
    depths = args.depth
    cap = resolve_qubit_cap()
    records: list[BenchRecord] = []
    failures = 0

    for cell_index, (n, m) in enumerate(sizes):
        graph_seed = args.seed + cell_index
        # Brute force resolves the same cap, so within it it cannot raise.
        classical = ("brute_force", "greedy") if n <= cap else ("greedy",)
        try:
            g = generate_random_graph(n, m, graph_seed)
        except ValueError as exc:
            print(f"bench: skipping cell n={n} m={m}: {exc}", file=sys.stderr)
            failures += 1
            records.extend(_blank_rows(n, m, depths, graph_seed, classical))
            continue

        if n > cap:
            print(f"bench: skipping brute_force on n={n} (cap {cap})", file=sys.stderr)
        for algo in classical:
            records.append(_run_classical(g, algo, graph_seed, args.trials)[1])

        try:
            trials = []
            for t in range(args.trials):
                solver_seed = graph_seed + _TRIAL_SEED_STRIDE * t
                trials.append(_bench_cell_qaoa(
                    g, depths, args.budget, args.restarts, args.shots, solver_seed
                ))
            for depth in depths:
                cut, expectation, _ = trials[0][depth]
                runtime = sum(tr[depth][2] for tr in trials) / len(trials)
                records.append(BenchRecord(
                    "qaoa", n, m, depth, cut, runtime, graph_seed, expectation
                ))
        except ResourceLimitError as exc:
            print(f"bench: qaoa failed on n={n} m={m}: {exc}", file=sys.stderr)
            failures += 1
            records.extend(_blank_rows(n, m, depths, graph_seed))

    text = "\n".join([CSV_HEADER] + [r.to_csv_row() for r in records]) + "\n"
    _write_text(args.out, text)
    if args.out != "-":
        for path in _write_plot_data(args.out, records):
            print(f"bench: wrote {path}", file=sys.stderr)
    print(f"bench: {len(records)} rows, {failures} failed cells", file=sys.stderr)
    return 4 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaxcut",
        description="Max-Cut solvers and benchmarks: exhaustive search, a greedy "
        "heuristic, and a simulated variational pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a reproducible random graph")
    p_gen.add_argument("--n", type=int, required=True, help="vertex count")
    p_gen.add_argument("--m", type=int, required=True, help="edge count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-", help="output path, - for stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one graph")
    p_solve.add_argument("--graph", default=None, metavar="FILE",
                         help="edge-list file (or use --gen)")
    p_solve.add_argument("--gen", type=_parse_gen, default=None, metavar="N,M",
                         help="generate a random graph with n vertices, m edges")
    p_solve.add_argument("--algo", choices=("brute", "greedy", "qaoa", "all"),
                         default="qaoa")
    p_solve.add_argument("--depth", type=_parse_depths, default=(1,),
                         help="qaoa circuit depth(s), e.g. 2 or 1,2,3")
    p_solve.add_argument("--budget", type=int, default=600,
                         help="objective-evaluation budget per qaoa run")
    p_solve.add_argument("--restarts", type=int, default=3)
    p_solve.add_argument("--shots", type=int, default=0,
                         help="sampled extraction shots (0 = exact enumeration)")
    p_solve.add_argument("--seed", type=int, default=0,
                         help="seed for --gen and the optimizer")
    p_solve.add_argument("--latency", type=float, default=0.0,
                         help="simulated per-offload latency in seconds")
    p_solve.add_argument("--no-refine", action="store_true",
                         help="skip the local-flip refinement stage")
    p_solve.add_argument("--no-warm", action="store_true",
                         help="disable the internal depth ladder")
    p_solve.add_argument("--csv", default=None, metavar="FILE",
                         help="also append CSV row(s) to FILE")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="sweep the size schedule, emit CSV")
    p_bench.add_argument("--sizes", type=_parse_sizes, default=None,
                         help="comma list of n:m cells, default "
                         + ",".join(f"{n}:{m}" for n, m in DEFAULT_SCHEDULE))
    p_bench.add_argument("--depth", type=_parse_depths, default=DEFAULT_DEPTHS,
                         help="comma list of qaoa depths, default 1,2,3")
    p_bench.add_argument("--budget", type=int, default=150,
                         help="objective-evaluation budget per depth")
    p_bench.add_argument("--restarts", type=int, default=3)
    p_bench.add_argument("--shots", type=int, default=0)
    p_bench.add_argument("--trials", type=int, default=1,
                         help="repeat solvers on the same graph; runtimes are "
                         "averaged, cuts come from the first trial")
    p_bench.add_argument("--seed", type=int, default=0, help="base graph seed")
    p_bench.add_argument("--out", default="-", help="CSV path, - for stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        parser.error("--trials must be at least 1")
    if getattr(args, "budget", 1) < 1:
        parser.error("--budget must be at least 1")
    try:
        return args.func(args)
    except (UsageError, EdgeListParseError, ValueError, OSError) as exc:
        print(f"qmaxcut: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"qmaxcut: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
