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
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass, replace
from pathlib import Path

from .classical import brute_force_maxcut, greedy_maxcut
from .errors import ResourceLimitError
from .graph import Graph, generate_random_graph, parse_edge_list, write_edge_list
from .pipeline import PipelineConfig, run_pipeline
from .qaoa import QaoaConfig, run_qaoa
from .simulator import resolve_qubit_cap

CSV_HEADER = "algorithm,n,m,depth,cut,runtime_s,seed,expectation"
DEFAULT_SCHEDULE = ((4, 5), (6, 9), (8, 12), (10, 15), (12, 20), (14, 25), (16, 30))
DEFAULT_DEPTHS = (1, 2, 3)
_TRIAL_SEED_STRIDE = 10_000


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row.  ``None`` fields render as empty cells, floats as their ``repr``."""

    algorithm: str
    n: int
    m: int
    depth: int
    cut: int | None
    runtime_s: float | None
    seed: int
    expectation: float | None

    def to_csv_row(self) -> str:
        return ",".join("" if x is None else str(x) for x in astuple(self))


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
        raise ValueError("--graph cannot be combined with --gen")
    if args.graph is not None:
        return parse_edge_list(Path(args.graph).read_text())
    if args.gen is not None:
        n, m = args.gen
        return generate_random_graph(n, m, args.seed)
    raise ValueError("either --graph FILE or --gen n,m is required")


def _labels_str(labels) -> str:
    return "".join("+" if x == 1 else "-" for x in labels)


@contextmanager
def _output(path: str | None, mode: str):
    """``path`` opened for writing in ``mode``: ``None`` for no path, stdout
    for ``-``.  Commands open their output before the first solver runs,
    so a path that cannot be written fails at once; a file the command
    created is removed again when the command fails."""
    if path is None or path == "-":
        yield None if path is None else sys.stdout
        return
    created = not os.path.exists(path)
    with open(path, mode, newline="\n") as fh:
        try:
            yield fh
        except BaseException:
            if created:
                fh.close()
                os.remove(path)
            raise


def _write_text(path: str, text: str):
    with _output(path, "w") as fh:
        fh.write(text)


def _csv_text(records: list[BenchRecord], header: bool) -> str:
    """One line per record, after :data:`CSV_HEADER` when ``header``."""
    rows = [CSV_HEADER] * header + [r.to_csv_row() for r in records]
    return "".join(f"{row}\n" for row in rows)


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
        f"cut={res.assignment.cut_value}",
        f"assignment={_labels_str(res.assignment.labels)}",
        f"runtime_s={res.elapsed!r}",
    ]
    return lines, record


def _solve_qaoa(g: Graph, cfg: PipelineConfig, depth: int) -> tuple[list[str], BenchRecord]:
    report = run_pipeline(g, replace(cfg, qaoa=replace(cfg.qaoa, p=depth)))
    runtime = sum(report.stage_timings.values())
    lines = [
        f"depth={depth}",
        f"assignment={_labels_str(report.final_cut.labels)}",
        *report.as_kv_lines(),
        f"runtime_s={runtime!r}",
    ]
    record = BenchRecord(
        "qaoa", g.n, g.m, depth, report.final_cut.cut_value,
        runtime, cfg.qaoa.seed, report.qaoa_result.best_expectation,
    )
    return lines, record


def cmd_solve(args) -> int:
    g = _load_graph(args)
    algos = ("brute_force", "greedy", "qaoa") if args.algo == "all" else (
        {"brute": "brute_force", "greedy": "greedy", "qaoa": "qaoa"}[args.algo],
    )
    cfg = None
    if "qaoa" in algos:  # every setting is checked before the first solver runs
        cfg = PipelineConfig(
            qaoa=QaoaConfig(
                p=args.depth[0],
                budget=args.budget,
                restarts=args.restarts,
                shots=args.shots,
                seed=args.seed,
                warm_start=not args.no_warm,
            ),
            offload_latency=args.latency,
            postprocess_refine=not args.no_refine,
        )
    with _output(args.csv, "a") as csv:
        blocks, records = [], []
        for algo in algos:
            for depth in args.depth if algo == "qaoa" else (0,):
                lines, record = (
                    _solve_qaoa(g, cfg, depth) if depth else _solve_classical(g, algo, args.seed)
                )
                blocks.append("\n".join([f"algorithm={algo}", f"n={g.n}", f"m={g.m}", *lines]))
                records.append(record)
        print("\n\n".join(blocks))
        if csv is not None:
            csv.write(_csv_text(records, header=csv.tell() == 0))
    return 0


def _bench_cell_qaoa(g, depths, cfg: QaoaConfig, solver_seed):
    """Run the depth chain once; returns {depth: (cut, expectation, runtime)}."""
    out = {}
    prev_params = None
    for depth in depths:
        result = run_qaoa(g, replace(cfg, p=depth, seed=solver_seed), warm_params=prev_params)
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
    by_n: dict[str, list[tuple[int, float]]] = {}
    by_depth: dict[int, list[float]] = {}
    for r in records:
        if r.runtime_s is None:
            continue
        key = f"qaoa_p{r.depth}" if r.algorithm == "qaoa" else r.algorithm
        by_n.setdefault(key, []).append((r.n, r.runtime_s))
        if r.algorithm == "qaoa":
            by_depth.setdefault(r.depth, []).append(r.runtime_s)
    files = {
        f"{stem}.runtime_vs_n.{key}.dat": "".join(f"{n} {rt!r}\n" for n, rt in rows)
        for key, rows in by_n.items()
    }
    if by_depth:
        files[f"{stem}.runtime_vs_p.dat"] = "".join(
            f"{d} {sum(v) / len(v)!r}\n" for d, v in sorted(by_depth.items())
        )
    for path, text in files.items():
        _write_text(path, text)
    return list(files)


def cmd_bench(args) -> int:
    sizes = args.sizes if args.sizes is not None else DEFAULT_SCHEDULE
    depths = args.depth
    cap = resolve_qubit_cap()
    # Every setting is checked before the first solver runs.
    cfg = QaoaConfig(p=depths[0], budget=args.budget, restarts=args.restarts, shots=args.shots)
    with _output(args.out, "w") as out:
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
                trials = [
                    _bench_cell_qaoa(g, depths, cfg, graph_seed + _TRIAL_SEED_STRIDE * t)
                    for t in range(args.trials)
                ]
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
        out.write(_csv_text(records, header=True))

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
    except (ValueError, OSError) as exc:
        print(f"qmaxcut: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"qmaxcut: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
