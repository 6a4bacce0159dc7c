"""The benchmark's four workloads: inputs from a seed, one operation, checks.

Every workload calls the program only through module attributes looked
up at call time (``pipeline.run_pipeline``, not a name imported once),
so the traced run's rebinding sees every call.  Inputs depend only on
the workload seed and the operation's position; outputs are checked
against :mod:`oracle`, which shares no code with the program.

Why these workloads:

* ``bench-cli`` is the command users run.  At n=12 an evaluation is
  cheap, so Nelder-Mead and run_qaoa overhead, CSV and plot-file I/O
  dominate, and a third of its evaluations run at depth 1.
* ``qaoa-n16`` is the simulator-kernel regime: the mixer is most of a
  p=2 evaluation and the warm-start ladder spends half the budget at
  depth 1.
* ``qaoa-n20`` has a working set larger than L2 but inside L3, builds a
  visible cut table, samples shots instead of scanning, and runs no
  depth-1 rung, so it bypasses a depth-1 fast path.
* ``classical`` runs no simulator or variational code at all, so a
  simulator change must show no change here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from qmaxcut import classical, cli, graph, pipeline, qaoa

from oracle import cut_of_labels

CSV_HEADER = "algorithm,n,m,depth,cut,runtime_s,seed,expectation"
_RUNTIME_COLUMN = 5
_TOL = 1e-9
_OFFLOAD_LATENCY = 0.001  # seconds priced per offload by run_pipeline


def derive_seed(seed: int, *parts) -> int:
    """Stable 31-bit seed for one input, derived from the workload seed."""
    text = "/".join(str(x) for x in (seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 33


@dataclass
class OpResult:
    """What one operation produced, reduced to what the metrics need."""

    problems: list[str] = field(default_factory=list)
    cut_ratios: list[float] = field(default_factory=list)  # reported cut / optimum
    unrefined_ratios: list[float] = field(default_factory=list)  # the same before refinement
    expectation_ratios: list[float] = field(default_factory=list)
    n_evaluations: int = 0
    fingerprint: str = ""  # output minus timings, compared with the traced rerun


def _check_expectation(res: OpResult, expectation: float, m: int, opt: int):
    if not (m / 2 - _TOL <= expectation <= opt + _TOL):
        res.problems.append(f"expectation {expectation!r} outside [{m / 2}, {opt}]")
    res.expectation_ratios.append(expectation / opt)


def _check_cut(res: OpResult, what: str, cut, edges, opt: int):
    recomputed = cut_of_labels(edges, cut.labels)
    if cut.cut_value != recomputed:
        res.problems.append(f"{what} cut {cut.cut_value} but labels give {recomputed}")
    if cut.cut_value > opt:
        res.problems.append(f"{what} cut {cut.cut_value} above optimum {opt}")


class Workload:
    """Base: a fixed list of operations per pass."""

    name: str
    ops_per_pass: int
    pass_seconds: float  # nominal pass time here; sets the pass count
    reference_kind: str  # the reference.KERNELS entry closest to this work

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def make_inputs(self, seed: int, pass_index: int, out_dir: Path) -> list:
        raise NotImplementedError

    def graph(self, op_input):
        """The operation's graph as ``[n, edges]``, for the oracle."""
        raise NotImplementedError

    def run(self, op_input):
        raise NotImplementedError

    def check(self, op_input, output, opt: int) -> OpResult:
        raise NotImplementedError

    def expected_calls(self, results: list[OpResult], tracer) -> dict:
        """Per-layer call counts the traced operations must produce."""
        raise NotImplementedError


class BenchCli(Workload):
    name = "bench-cli"
    ops_per_pass = 40
    pass_seconds = 7.0
    reference_kind = "numpy"
    n, m, depths, budget = 12, 20, (1, 2, 3), 40

    def make_inputs(self, seed, pass_index, out_dir):
        inputs = []
        for i in range(self.ops_per_pass):
            s = derive_seed(seed, self.name, pass_index, i)
            csv = out_dir / f"p{pass_index}-op{i}" / "bench.csv"
            argv = ["bench", "--sizes", f"{self.n}:{self.m}",
                    "--depth", ",".join(map(str, self.depths)),
                    "--budget", str(self.budget), "--seed", str(s), "--out", str(csv)]
            inputs.append((s, csv, argv))
        return inputs

    def graph(self, op_input):
        g = graph.generate_random_graph(self.n, self.m, op_input[0])
        return [g.n, g.edges]

    def run(self, op_input):
        _, csv, argv = op_input
        csv.parent.mkdir(parents=True, exist_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects usage this way
                return exc.code

    def check(self, op_input, code, opt):
        s, csv, _ = op_input
        res = OpResult()
        if code != 0:
            res.problems.append(f"exit code {code}")
            return res
        stem = str(csv.with_suffix(""))
        if not list(csv.parent.glob(Path(stem).name + ".runtime_vs_n.*.dat")):
            res.problems.append("no runtime_vs_n.*.dat file")
        if not Path(stem + ".runtime_vs_p.dat").is_file():
            res.problems.append("no runtime_vs_p.dat file")
        lines = csv.read_text().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            res.problems.append(f"CSV header {lines[:1]!r}")
            return res
        rows = [line.split(",") for line in lines[1:]]
        expected = [("brute_force", "0"), ("greedy", "0")] + [("qaoa", str(d)) for d in self.depths]
        if [(r[0], r[3]) for r in rows if len(r) == 8] != expected or len(rows) != len(expected):
            res.problems.append(f"CSV rows {[r[:4] for r in rows]!r}")
            return res
        for algo, n, m, _, cut, runtime, seed, expectation in rows:
            if (n, m, seed) != (str(self.n), str(self.m), str(s)):
                res.problems.append(f"{algo} row identity {(n, m, seed)!r}")
            if float(runtime) < 0:
                res.problems.append(f"{algo} negative runtime")
            if int(cut) > opt:
                res.problems.append(f"{algo} cut {cut} above optimum {opt}")
            if algo == "brute_force" and int(cut) != opt:
                res.problems.append(f"brute force cut {cut} != optimum {opt}")
            if algo == "qaoa":  # the CLI does not refine
                res.cut_ratios.append(int(cut) / opt)
                res.unrefined_ratios.append(int(cut) / opt)
                _check_expectation(res, float(expectation), self.m, opt)
            elif expectation != "":
                res.problems.append(f"{algo} row has an expectation")
        res.fingerprint = "\n".join(
            ",".join(r[:_RUNTIME_COLUMN] + r[_RUNTIME_COLUMN + 1:]) for r in rows
        )
        return res

    def expected_calls(self, results, tracer):
        ops = len(results)
        return {
            "cli.main.calls": ops,
            "graph.generate_random_graph.calls": ops,
            "qaoa.run_qaoa.calls": len(self.depths) * ops,
            "qaoa.evaluate_params.calls": tracer.qaoa_result_evaluations,
        }


class PipelineRun(Workload):
    """One ``run_pipeline`` call per operation."""

    reference_kind = "numpy"

    def __init__(self, name, n, m, ops_per_pass, pass_seconds, **qaoa_kwargs):
        self.name, self.n, self.m = name, n, m
        self.ops_per_pass, self.pass_seconds = ops_per_pass, pass_seconds
        self.qaoa_kwargs = qaoa_kwargs

    def make_inputs(self, seed, pass_index, out_dir):
        inputs = []
        for i in range(self.ops_per_pass):
            g = graph.generate_random_graph(
                self.n, self.m, derive_seed(seed, self.name, "graph", pass_index, i))
            cfg = pipeline.PipelineConfig(
                qaoa=qaoa.QaoaConfig(seed=derive_seed(seed, self.name, "qaoa", pass_index, i),
                                     **self.qaoa_kwargs),
                offload_latency=_OFFLOAD_LATENCY,
            )
            inputs.append((g, cfg))
        return inputs

    def graph(self, op_input):
        g = op_input[0]
        return [g.n, g.edges]

    def run(self, op_input):
        return pipeline.run_pipeline(*op_input)

    def check(self, op_input, report, opt):
        g, cfg = op_input
        res = OpResult()
        result = report.qaoa_result
        _check_cut(res, "refined", report.final_cut, g.edges, opt)
        _check_cut(res, "qaoa", result.best_cut, g.edges, opt)
        _check_expectation(res, result.best_expectation, g.m, opt)
        if result.n_evaluations > cfg.qaoa.budget:
            res.problems.append(f"{result.n_evaluations} evaluations over budget {cfg.qaoa.budget}")
        if report.offload_count != result.n_evaluations + 1:
            res.problems.append(f"offload_count {report.offload_count} != evaluations + 1")
        if report.simulated_comm_overhead != report.offload_count * cfg.offload_latency:
            res.problems.append(f"simulated_comm_overhead {report.simulated_comm_overhead!r}")
        res.cut_ratios.append(report.final_cut.cut_value / opt)
        res.unrefined_ratios.append(result.best_cut.cut_value / opt)
        res.n_evaluations = result.n_evaluations
        res.fingerprint = repr((report.final_cut, result.best_cut, result.best_params,
                                result.best_expectation, result.n_evaluations))
        return res

    def expected_calls(self, results, tracer):
        return {
            "graph.generate_random_graph.calls": len(results),
            "pipeline.run_pipeline.calls": len(results),
            "qaoa.evaluate_params.calls": sum(r.n_evaluations for r in results),
        }


class Classical(Workload):
    name = "classical"
    ops_per_pass = 5
    pass_seconds = 4.0
    reference_kind = "python"
    n, m = 18, 40

    def make_inputs(self, seed, pass_index, out_dir):
        return [graph.generate_random_graph(self.n, self.m,
                                            derive_seed(seed, self.name, pass_index, i))
                for i in range(self.ops_per_pass)]

    def graph(self, g):
        return [g.n, g.edges]

    def run(self, g):
        exact = classical.brute_force_maxcut(g)
        greedy = classical.greedy_maxcut(g).assignment
        return exact, greedy, pipeline.refine_assignment(g, greedy)

    def check(self, g, output, opt):
        exact, greedy, refined = output
        res = OpResult()
        _check_cut(res, "brute force", exact.assignment, g.edges, opt)
        if exact.assignment.cut_value != opt:
            res.problems.append(f"brute force cut {exact.assignment.cut_value} != optimum {opt}")
        _check_cut(res, "greedy", greedy, g.edges, opt)
        _check_cut(res, "refined greedy", refined, g.edges, opt)
        res.cut_ratios.append(refined.cut_value / opt)
        res.unrefined_ratios.append(greedy.cut_value / opt)
        res.fingerprint = repr((exact.assignment, greedy, refined))
        return res

    def expected_calls(self, results, tracer):
        ops = len(results)
        return {
            "graph.generate_random_graph.calls": ops,
            "classical.brute_force_maxcut.calls": ops,
            "classical.greedy_maxcut.calls": ops,
            "pipeline.refine_assignment.calls": ops,
            "qaoa.evaluate_params.calls": 0,
        }


WORKLOADS = {
    w.name: w
    for w in (
        BenchCli(),
        PipelineRun("qaoa-n16", 16, 30, ops_per_pass=3, pass_seconds=7.5,
                    p=2, budget=150, restarts=3, shots=0),
        PipelineRun("qaoa-n20", 20, 60, ops_per_pass=1, pass_seconds=8.5,
                    p=2, budget=10, restarts=2, shots=4096, warm_start=False),
        Classical(),
    )
}
