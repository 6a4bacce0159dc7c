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
except for the runtime_s column, at a fixed BLAS thread count.  When
the CSV goes to a file, two plot-ready data sets are written next to
it: ``<stem>.runtime_vs_n.<series>.dat`` (one two-column file per
algorithm series) and ``<stem>.runtime_vs_p.dat`` (depth vs mean
runtime).

Every integer in the arguments, in the lists ``--sizes``, ``--gen`` and
``--depth`` and in the integer flags, is read by :func:`graph.parse_ints`,
so it is ``-?[0-9]+`` in full, the edge-list format's syntax; ``--latency``
adds an optional fraction and exponent to it.  ``solve`` takes exactly one
of ``--graph`` and ``--gen``.

Exit codes: 0 success, 2 bad usage, malformed input or a path that
cannot be read or written (missing, a directory, no permission), 3
resource limit exceeded, 4 benchmark completed with failed cells.
"""

from __future__ import annotations

from argparse import ArgumentParser, ArgumentTypeError
import os
import re
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import astuple, dataclass, replace
from pathlib import Path

from .classical import brute_force_maxcut, greedy_maxcut
from .graph import (Graph, ResourceLimitError, generate_random_graph, parse_edge_list,
                    parse_ints, resolve_qubit_cap, write_edge_list)
from .pipeline import PipelineConfig, run_pipeline
from .qaoa import QaoaConfig, run_qaoa

CSV_HEADER = "algorithm,n,m,depth,cut,runtime_s,seed,expectation"
DEFAULT_SCHEDULE = ((4, 5), (6, 9), (8, 12), (10, 15), (12, 20), (14, 25), (16, 30))
DEFAULT_DEPTHS = (1, 2, 3)
_TRIAL_SEED_STRIDE = 10_000
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE]-?[0-9]+)?")


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


def _int(text: str) -> int:
    return parse_ints(text, ArgumentTypeError(f"invalid int value: {text!r}"))[0]


def _decimal(text: str) -> float:
    if not _DECIMAL.fullmatch(text):
        raise ArgumentTypeError(f"invalid decimal value: {text!r}")
    return float(text)


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(
        parse_ints(chunk, ArgumentTypeError(f"size entry {chunk!r} is not of the form n:m"), ":", 2)
        for chunk in text.split(",")
    )


def _parse_depths(text: str) -> tuple[int, ...]:
    error = ArgumentTypeError(f"bad depth list {text!r}")
    depths = sorted(set(parse_ints(text, error, count=0)))
    if depths[0] < 1:
        raise ArgumentTypeError("depths must be positive integers")
    return tuple(depths)


def _parse_gen(text: str) -> tuple[int, int]:
    error = ArgumentTypeError(f"--gen wants n,m (two integers), got {text!r}")
    return parse_ints(text, error, count=2)


def _load_graph(args) -> Graph:
    if args.graph is not None:
        return parse_edge_list(Path(args.graph).read_text())
    return generate_random_graph(*args.gen, args.seed)


def _labels_str(labels) -> str:
    return "".join("+" if x == 1 else "-" for x in labels)


@contextmanager
def _output(path: str | None, mode: str):
    """``path`` opened for writing in ``mode``: ``None`` for no path, stdout
    for ``-``.  Commands open their output before the first solver runs,
    so a path that cannot be written fails at once; a file the command
    created is removed again when the command fails.  ``bench`` names its
    plot files (``<stem>.runtime_vs_n.<series>.dat`` and
    ``<stem>.runtime_vs_p.dat``) only after the sweep and opens them
    inside the CSV's scope, so one failure removes every file it created."""
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


def _csv_text(records: list[BenchRecord], header: bool) -> str:
    """One line per record, after :data:`CSV_HEADER` when ``header``."""
    rows = [CSV_HEADER] * header + [r.to_csv_row() for r in records]
    return "".join(f"{row}\n" for row in rows)


def cmd_gen(args) -> int:
    g = generate_random_graph(args.n, args.m, args.seed)
    with _output(args.out, "w") as out:
        out.write(write_edge_list(g))
    return 0


def _first_and_mean(runs) -> tuple:
    """The trials rule: a row reports the first run and the mean ``elapsed`` of all."""
    return runs[0], sum(r.elapsed for r in runs) / len(runs)


def _classical_solver(algo: str):
    return brute_force_maxcut if algo == "brute_force" else greedy_maxcut


def cmd_solve(args) -> int:
    g = _load_graph(args)
    algos = ("brute_force", "greedy", "qaoa") if args.algo == "all" else (
        {"brute": "brute_force", "greedy": "greedy", "qaoa": "qaoa"}[args.algo],
    )
    cfg = None
    if "qaoa" in algos:  # every setting is checked before the first solver runs
        qaoa = QaoaConfig(p=args.depth[0], budget=args.budget, restarts=args.restarts,
                          shots=args.shots, seed=args.seed, warm_start=not args.no_warm)
        cfg = PipelineConfig(qaoa, offload_latency=args.latency,
                             postprocess_refine=not args.no_refine)
    with _output(args.csv, "a") as csv:
        blocks, records = [], []
        for algo in algos:
            for depth in args.depth if algo == "qaoa" else (0,):
                if depth:
                    report = run_pipeline(g, replace(cfg, qaoa=replace(cfg.qaoa, p=depth)))
                    cut, expectation = report.final_cut, report.qaoa_result.best_expectation
                    runtime = sum(report.stage_timings.values())
                    lines = [f"depth={depth}", f"assignment={_labels_str(cut.labels)}",
                             *report.as_kv_lines()]
                else:
                    res = _classical_solver(algo)(g)
                    cut, expectation, runtime = res.assignment, None, res.elapsed
                    lines = [f"cut={cut.cut_value}", f"assignment={_labels_str(cut.labels)}"]
                blocks.append("\n".join(
                    [f"algorithm={algo}", f"n={g.n}", f"m={g.m}", *lines, f"runtime_s={runtime!r}"]
                ))
                records.append(BenchRecord(
                    algo, g.n, g.m, depth, cut.cut_value, runtime, args.seed, expectation
                ))
        print("\n\n".join(blocks))
        if csv is not None:  # a stream gets its own header: there is no file to append to
            csv.write(_csv_text(records, header=args.csv == "-" or csv.tell() == 0))
    return 0


def _plot_data(out_path: str, records: list[BenchRecord]) -> dict[str, str]:
    """Two-column gnuplot-style series files next to the CSV, as ``{path: text}``."""
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
    return files


def cmd_bench(args) -> int:
    depths = args.depth
    cap = resolve_qubit_cap()
    # Every setting is checked before the first solver runs.
    cfg = QaoaConfig(p=depths[0], budget=args.budget, restarts=args.restarts, shots=args.shots)
    with _output(args.out, "w") as out:
        cells, failures = [], 0  # (n, m, graph seed, rows) per cell
        for cell_index, (n, m) in enumerate(args.sizes):
            graph_seed = args.seed + cell_index
            # Brute force resolves the same cap, so within it it cannot raise.
            classical = ("brute_force", "greedy") if n <= cap else ("greedy",)
            # (cut, runtime_s, expectation) per row, blank until measured:
            # the rows a failure leaves blank are emitted blank.
            rows = dict.fromkeys(
                [(algo, 0) for algo in classical] + [("qaoa", d) for d in depths], (None,) * 3
            )
            cells.append((n, m, graph_seed, rows))
            try:
                g = generate_random_graph(n, m, graph_seed)
            except ValueError as exc:
                print(f"bench: skipping cell n={n} m={m}: {exc}", file=sys.stderr)
                failures += 1
                continue

            if n > cap:
                print(f"bench: skipping brute_force on n={n} (cap {cap})", file=sys.stderr)
            for algo in classical:
                runs = [_classical_solver(algo)(g) for _ in range(args.trials)]
                res, runtime = _first_and_mean(runs)
                rows[algo, 0] = (res.assignment.cut_value, runtime, None)

            # Each trial's solver seed, and its optimum at the previous depth.
            seeds = [graph_seed + _TRIAL_SEED_STRIDE * t for t in range(args.trials)]
            warm = [None] * args.trials
            try:
                for depth in depths:
                    runs = [run_qaoa(g, replace(cfg, p=depth, seed=seed), warm_params=w)
                            for seed, w in zip(seeds, warm)]
                    warm = [r.best_params for r in runs]
                    res, runtime = _first_and_mean(runs)
                    rows["qaoa", depth] = (res.best_cut.cut_value, runtime, res.best_expectation)
            except ResourceLimitError as exc:
                print(f"bench: qaoa failed on n={n} m={m}: {exc}", file=sys.stderr)
                failures += 1
        records = [
            BenchRecord(algo, n, m, depth, cut, runtime, seed, expectation)
            for n, m, seed, rows in cells
            for (algo, depth), (cut, runtime, expectation) in rows.items()
        ]
        out.write(_csv_text(records, header=True))
        plots = _plot_data(args.out, records) if args.out != "-" else {}
        with ExitStack() as files:
            for path, text in plots.items():
                files.enter_context(_output(path, "w")).write(text)

    for path in plots:
        print(f"bench: wrote {path}", file=sys.stderr)
    print(f"bench: {len(records)} rows, {failures} failed cells", file=sys.stderr)
    return 4 if failures else 0


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="qmaxcut",
        description="Max-Cut solvers and benchmarks: exhaustive search, a greedy "
        "heuristic, and a simulated variational pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a reproducible random graph")
    p_gen.add_argument("--n", type=_int, required=True, help="vertex count")
    p_gen.add_argument("--m", type=_int, required=True, help="edge count")
    p_gen.add_argument("--seed", type=_int, default=0)
    p_gen.add_argument("--out", default="-", help="output path, - for stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one graph")
    source = p_solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="edge-list file (or use --gen)")
    source.add_argument("--gen", type=_parse_gen, metavar="N,M",
                        help="generate a random graph with n vertices, m edges")
    p_solve.add_argument("--algo", choices=("brute", "greedy", "qaoa", "all"),
                         default="qaoa")
    p_solve.add_argument("--depth", type=_parse_depths, default=(1,),
                         help="qaoa circuit depth(s), e.g. 2 or 1,2,3")
    p_solve.add_argument("--budget", type=_int, default=600,
                         help="objective-evaluation budget per qaoa run")
    p_solve.add_argument("--restarts", type=_int, default=3)
    p_solve.add_argument("--shots", type=_int, default=0,
                         help="sampled extraction shots (0 = exact enumeration)")
    p_solve.add_argument("--seed", type=_int, default=0,
                         help="seed for --gen and the optimizer")
    p_solve.add_argument("--latency", type=_decimal, default=0.0,
                         help="simulated per-offload latency in seconds")
    p_solve.add_argument("--no-refine", action="store_true",
                         help="skip the local-flip refinement stage")
    p_solve.add_argument("--no-warm", action="store_true",
                         help="disable the internal depth ladder")
    p_solve.add_argument("--csv", default=None, metavar="FILE",
                         help="also append CSV row(s) to FILE")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="sweep the size schedule, emit CSV")
    p_bench.add_argument("--sizes", type=_parse_sizes, default=DEFAULT_SCHEDULE,
                         help="comma list of n:m cells, default "
                         + ",".join(f"{n}:{m}" for n, m in DEFAULT_SCHEDULE))
    p_bench.add_argument("--depth", type=_parse_depths, default=DEFAULT_DEPTHS,
                         help="comma list of qaoa depths, default 1,2,3")
    p_bench.add_argument("--budget", type=_int, default=150,
                         help="objective-evaluation budget per depth")
    p_bench.add_argument("--restarts", type=_int, default=3)
    p_bench.add_argument("--shots", type=_int, default=0)
    p_bench.add_argument("--trials", type=_int, default=1,
                         help="repeat solvers on the same graph; runtimes are "
                         "averaged, cuts come from the first trial")
    p_bench.add_argument("--seed", type=_int, default=0, help="base graph seed")
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
