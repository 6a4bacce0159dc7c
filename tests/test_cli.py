import argparse
import io
import os
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden.regenerate import mask_timings, run_child
from qmaxcut import (
    CutAssignment,
    EdgeListParseError,
    PipelineConfig,
    QaoaConfig,
    QaoaParams,
    QaoaResult,
    SolveResult,
    cli,
    generate_random_graph,
    parse_edge_list,
    run_pipeline,
)
from qmaxcut.cli import _parse_depths, _parse_gen, _parse_sizes
from qmaxcut.graph import peak_bytes

CSV_HEADER = "algorithm,n,m,depth,cut,runtime_s,seed,expectation"


def run_cli(*args, env_extra=None, cwd=None):
    """``qmaxcut ARGS`` run by ``cli.main`` in this process, as a
    ``CompletedProcess``; argparse's ``SystemExit`` gives the exit code.
    ``env_extra`` is set and ``cwd`` entered for this call only."""
    argv = [str(a) for a in args]
    out, err, previous = io.StringIO(), io.StringIO(), os.getcwd()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.update(env_extra or {})
        try:
            os.chdir(cwd or previous)
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        finally:
            os.chdir(previous)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def kv_blocks(stdout):
    """Parse `key=value` stanza output into a list of dicts."""
    blocks = []
    for chunk in stdout.strip().split("\n\n"):
        blocks.append(dict(line.split("=", 1) for line in chunk.splitlines()))
    return blocks


class TestGen:
    def test_writes_parseable_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        res = run_cli("gen", "--n", 6, "--m", 9, "--seed", 4, "--out", path)
        assert res.returncode == 0
        g = parse_edge_list(path.read_text())
        assert (g.n, g.m) == (6, 9)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli("gen", "--n", 8, "--m", 12, "--seed", 9, "--out", a)
        run_cli("gen", "--n", 8, "--m", 12, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_complete_graph_when_m_is_max(self, tmp_path):
        path = tmp_path / "k4.txt"
        run_cli("gen", "--n", 4, "--m", 6, "--seed", 0, "--out", path)
        assert path.read_text() == "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

    def test_stdout_mode(self, tmp_path):
        path = tmp_path / "g.txt"
        run_cli("gen", "--n", 5, "--m", 4, "--seed", 2, "--out", path)
        res = run_cli("gen", "--n", 5, "--m", 4, "--seed", 2, "--out", "-")
        assert res.stdout == path.read_text()

    def test_m_out_of_range_is_usage_error(self, tmp_path):
        res = run_cli("gen", "--n", 3, "--m", 9, "--seed", 0, "--out", tmp_path / "x")
        assert res.returncode == 2
        assert "edge count" in res.stderr


class TestSolve:
    def test_brute_force_on_file(self, tmp_path):
        path = tmp_path / "k4.txt"
        run_cli("gen", "--n", 4, "--m", 6, "--seed", 0, "--out", path)
        res = run_cli("solve", "--graph", path, "--algo", "brute")
        assert res.returncode == 0
        (block,) = kv_blocks(res.stdout)
        assert block["algorithm"] == "brute_force"
        assert block["cut"] == "4"
        assert len(block["assignment"]) == 4
        assert set(block["assignment"]) <= {"+", "-"}
        assert float(block["runtime_s"]) >= 0.0

    def test_greedy_on_edgeless_generated_graph(self):
        res = run_cli("solve", "--algo", "greedy", "--gen", "5,0", "--seed", 1)
        assert res.returncode == 0
        (block,) = kv_blocks(res.stdout)
        assert block["cut"] == "0"
        assert block["assignment"] == "+++++"

    def test_all_runs_every_algorithm(self):
        res = run_cli(
            "solve", "--gen", "5,8", "--seed", 3, "--algo", "all",
            "--depth", 1, "--budget", 40,
        )
        assert res.returncode == 0
        blocks = kv_blocks(res.stdout)
        assert [b["algorithm"] for b in blocks] == ["brute_force", "greedy", "qaoa"]
        brute, greedy, qaoa = blocks
        assert int(greedy["cut"]) <= int(brute["cut"])
        assert int(qaoa["cut"]) <= int(brute["cut"])
        assert qaoa["depth"] == "1"
        assert "expectation" in qaoa and "offload_count" in qaoa

    def test_depth_list_produces_one_block_each(self):
        res = run_cli(
            "solve", "--gen", "4,4", "--seed", 2, "--algo", "qaoa",
            "--depth", "1,2", "--budget", 30,
        )
        blocks = kv_blocks(res.stdout)
        assert [b["depth"] for b in blocks] == ["1", "2"]

    def test_latency_accounting_in_output(self):
        res = run_cli(
            "solve", "--gen", "4,4", "--seed", 2, "--algo", "qaoa",
            "--depth", 1, "--budget", 30, "--latency", 0.5,
        )
        (block,) = kv_blocks(res.stdout)
        assert float(block["simulated_comm_overhead"]) == int(block["offload_count"]) * 0.5

    def test_qaoa_deterministic_apart_from_timings(self):
        args = ("solve", "--gen", "6,9", "--seed", 7, "--algo", "qaoa",
                "--depth", 2, "--budget", 50)
        a, b = run_cli(*args), run_cli(*args)

        def stable(block):
            return {k: v for k, v in block.items() if not k.endswith("_s")}

        assert list(map(stable, kv_blocks(a.stdout))) == list(map(stable, kv_blocks(b.stdout)))

    def test_csv_appends_with_single_header(self, tmp_path):
        csv = tmp_path / "runs.csv"
        args = ("solve", "--gen", "3,3", "--seed", 0, "--algo", "greedy", "--csv", csv)
        run_cli(*args)
        run_cli(*args)
        lines = csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert all(line.startswith("greedy,3,3,0,2,") for line in lines[1:])

    def test_csv_to_a_pipe_gets_its_header(self):
        # stdout already holds the stanzas: a stream's rows get their header
        # by the rule for streams, not by an empty file's position.
        res = run_cli("solve", "--gen", "5,4", "--algo", "greedy", "--csv", "-")
        assert res.returncode == 0, res.stderr
        (block,) = kv_blocks(res.stdout.split(CSV_HEADER)[0])
        header, row = res.stdout.splitlines()[-2:]
        assert header == CSV_HEADER
        assert row.startswith(f"greedy,5,4,0,{block['cut']},{block['runtime_s']},0,")

    def test_qaoa_runtime_is_the_sum_of_its_stage_times(self):
        res = run_cli("solve", "--gen", "5,4", "--algo", "qaoa", "--depth", "1,2",
                      "--budget", 20, "--csv", "-")
        assert res.returncode == 0, res.stderr
        blocks = kv_blocks(res.stdout.split(CSV_HEADER)[0])
        rows = [row.split(",") for row in res.stdout.splitlines()[-2:]]
        for block, row in zip(blocks, rows, strict=True):
            runtime = float(block["quantum_s"]) + float(block["postprocess_s"])
            assert block["runtime_s"] == row[5] == repr(runtime)

    @staticmethod
    def _solve_and_run(seed, *flags, shots=0, warm_start=True, refine=True):
        """``solve --gen 12,20 --depth 2 --seed SEED FLAGS``'s block, and the
        report of ``run_pipeline`` on that run with the given settings."""
        res = run_cli("solve", "--gen", "12,20", "--depth", 2, "--seed", seed, *flags)
        assert res.returncode == 0
        (block,) = kv_blocks(res.stdout)
        cfg = PipelineConfig(QaoaConfig(p=2, seed=seed, shots=shots, warm_start=warm_start),
                             postprocess_refine=refine)
        return block, run_pipeline(generate_random_graph(12, 20, seed), cfg)

    def test_no_warm_turns_off_the_depth_ladder(self):
        block, report = self._solve_and_run(3, "--no-warm", warm_start=False)
        assert block["expectation"] == repr(report.qaoa_result.best_expectation)
        assert block["n_evaluations"] == str(report.qaoa_result.n_evaluations)

    def test_no_refine_prints_the_unrefined_cut(self):
        # A sampled run, whose cut refinement moves, so a flag that is ignored
        # prints the refined cut; the warm run's expectation tells the flag
        # apart from --no-warm.
        block, report = self._solve_and_run(5, "--shots", 4, "--no-refine", shots=4, refine=False)
        refined = run_pipeline(generate_random_graph(12, 20, 5),
                               PipelineConfig(QaoaConfig(p=2, seed=5, shots=4)))
        assert refined.final_cut.cut_value > report.qaoa_result.best_cut.cut_value
        assert block["cut"] == str(report.qaoa_result.best_cut.cut_value)
        assert block["expectation"] == repr(report.qaoa_result.best_expectation)

    def test_classical_csv_rows_have_depth_zero_and_no_expectation(self, tmp_path):
        csv = tmp_path / "runs.csv"
        run_cli("solve", "--gen", "4,5", "--seed", 1, "--algo", "all",
                "--depth", 1, "--budget", 25, "--csv", csv)
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        by_algo = {r[0]: r for r in rows}
        for algo in ("brute_force", "greedy"):
            assert by_algo[algo][3] == "0"
            assert by_algo[algo][7] == ""
        assert by_algo["qaoa"][3] == "1"
        assert by_algo["qaoa"][7] != ""


class TestSolveErrors:
    def test_missing_file(self):
        res = run_cli("solve", "--graph", "no-such-file.txt", "--algo", "greedy")
        assert res.returncode == 2

    @pytest.mark.parametrize("args", [
        pytest.param(("solve", "--graph", "{dir}", "--algo", "greedy"), id="solve-graph"),
        pytest.param(("solve", "--gen", "4,3", "--algo", "greedy", "--csv", "{dir}"),
                     id="solve-csv"),
        pytest.param(("gen", "--n", "4", "--m", "3", "--out", "{dir}"), id="gen-out"),
        pytest.param(("bench", "--sizes", "4:3", "--depth", "1", "--out", "{dir}"),
                     id="bench-out"),
    ])
    def test_directory_as_path(self, tmp_path, args):
        res = run_cli(*(a.format(dir=tmp_path) for a in args))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        last = res.stderr.splitlines()[-1]
        assert last.startswith("qmaxcut: ") and str(tmp_path) in last

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0\n")
        res = run_cli("solve", "--graph", path, "--algo", "brute")
        assert res.returncode == 2
        assert "line 2" in res.stderr

    def test_graph_and_gen_are_mutually_exclusive(self, tmp_path):
        path = tmp_path / "g.txt"
        run_cli("gen", "--n", 3, "--m", 2, "--seed", 0, "--out", path)
        res = run_cli("solve", "--graph", path, "--gen", "3,2", "--algo", "greedy")
        assert res.returncode == 2

    def test_neither_graph_nor_gen(self):
        assert run_cli("solve", "--algo", "greedy").returncode == 2

    def test_qubit_cap_exceeded(self):
        res = run_cli(
            "solve", "--gen", "5,4", "--seed", 1, "--algo", "qaoa",
            env_extra={"QMAXCUT_QUBIT_CAP": "3"},
        )
        assert res.returncode == 3
        assert "cap" in res.stderr

    def test_brute_force_above_env_cap(self):
        res = run_cli(
            "solve", "--gen", "5,4", "--seed", 1, "--algo", "brute",
            env_extra={"QMAXCUT_QUBIT_CAP": "4"},
        )
        assert res.returncode == 3
        # Brute force's own bytes, at n=5 and at the cap.
        assert res.stderr == (f"qmaxcut: n=5 exceeds qubit cap 4: brute force needs "
                              f"{peak_bytes('brute force', 5):,} B, "
                              f"{peak_bytes('brute force', 4):,} B at the cap\n")

    def test_unknown_algorithm(self):
        assert run_cli("solve", "--gen", "3,2", "--algo", "anneal").returncode == 2

    @pytest.mark.parametrize("latency", ["nan", "inf"])
    def test_non_finite_latency(self, latency):
        res = run_cli("solve", "--gen", "6,8", "--algo", "qaoa", "--latency", latency)
        assert res.returncode == 2
        assert "latency" in res.stderr
        assert "Traceback" not in res.stderr

    def test_no_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2


class TestChecksBeforeSolving:
    """A bad setting or an output that cannot be written exits 2 before any
    solver runs: nothing is printed and no output file is left."""

    @pytest.mark.parametrize("args", [
        pytest.param(("solve", "--csv", "{dir}"), id="solve-csv-directory"),
        pytest.param(("solve", "--csv", "{out}", "--restarts", "0"), id="solve-restarts"),
        pytest.param(("solve", "--csv", "{out}", "--shots", "-1"), id="solve-shots"),
        pytest.param(("solve", "--csv", "{out}", "--budget", "2"), id="solve-budget-below-restarts"),
        pytest.param(("solve", "--csv", "{out}", "--latency", "-1"), id="solve-latency"),
        pytest.param(("bench", "--out", "{dir}"), id="bench-out-directory"),
        pytest.param(("bench", "--out", "{out}", "--restarts", "0"), id="bench-restarts"),
        pytest.param(("bench", "--out", "{out}", "--shots", "-1"), id="bench-shots"),
        pytest.param(("bench", "--out", "{out}", "--budget", "2"), id="bench-budget-below-restarts"),
        pytest.param(("bench", "--out", "{out}", "--trials", "0"), id="bench-trials"),
        # A classical --algo still checks the QAOA settings; it replaces the cell's "all".
        *(pytest.param(("solve", "--csv", "{out}", "--algo", algo, flag, value),
                       id=f"solve-{algo}-{flag[2:]}-{value}")
          for algo in ("brute", "greedy")
          for flag, value in (("--restarts", "0"), ("--shots", "-1"), ("--latency", "-1"),
                              ("--budget", "2"), ("--budget", "0"), ("--depth", "0,1"))),
    ])
    def test_exits_before_any_solver_runs(self, tmp_path, monkeypatch, args):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a solver ran")

        for name in ("brute_force_maxcut", "greedy_maxcut", "run_qaoa", "run_pipeline"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out.csv"
        cell = {"solve": ("--gen", "6,8", "--algo", "all", "--depth", "1,2"),
                "bench": ("--sizes", "4:3,6:8", "--depth", "1,2")}[args[0]]
        res = run_cli(args[0], *cell, *(a.format(dir=tmp_path, out=out) for a in args[1:]))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("qmaxcut: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_solve_removes_only_a_csv_it_created(self, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text(CSV_HEADER + "\n")
        for csv in (new, old):
            res = run_cli("solve", "--gen", "5,4", "--algo", "all", "--csv", csv,
                          env_extra={"QMAXCUT_QUBIT_CAP": "4"})
            assert res.returncode == 3
            assert res.stdout == ""
        assert not new.exists()
        assert old.read_text() == CSV_HEADER + "\n"

    def test_failed_bench_removes_every_file_it_created(self, tmp_path):
        blocker = tmp_path / "bench.runtime_vs_p.dat"  # the last plot file cannot be written
        blocker.mkdir()
        res = run_cli("bench", "--sizes", "4:3", "--depth", 1, "--budget", 10,
                      "--out", tmp_path / "bench.csv")
        assert res.returncode == 2
        assert str(blocker) in res.stderr
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("cap, blocker", [
        pytest.param("abc", None, id="unparsable-env-cap"),
        pytest.param(None, "bench.runtime_vs_p.dat", id="plot-path-is-a-directory"),
    ])
    def test_failed_bench_leaves_earlier_files_as_they_were(self, tmp_path, cap, blocker):
        earlier = {tmp_path / "bench.csv": b"earlier,csv\n",
                   tmp_path / "bench.runtime_vs_n.greedy.dat": b"4 earlier\n"}
        for path, data in earlier.items():
            path.write_bytes(data)
        if blocker:
            (tmp_path / blocker).mkdir()
        before = sorted(tmp_path.iterdir())
        argv = ("bench", "--sizes", "4:3", "--depth", 1, "--budget", 10,
                "--out", tmp_path / "bench.csv")
        res = run_cli(*argv, env_extra=cap and {"QMAXCUT_QUBIT_CAP": cap})
        assert res.returncode == 2
        assert res.stdout == ""
        assert sorted(tmp_path.iterdir()) == before
        assert {path: path.read_bytes() for path in earlier} == earlier

        # A run that succeeds rewrites each of them whole.
        if blocker:
            (tmp_path / blocker).rmdir()
        assert run_cli(*argv).returncode == 0
        assert all(b"earlier" not in path.read_bytes() for path in earlier)
        assert (tmp_path / "bench.csv").read_text().startswith(CSV_HEADER + "\n")


class TestEdgeCaseExitCodes:
    """Edge cases exit with their documented code, never with a traceback."""

    @pytest.mark.parametrize("args, env, code", [
        pytest.param(("solve", "--gen", "5,4", "--algo", "qaoa"),
                     {"QMAXCUT_QUBIT_CAP": "abc"}, 2, id="solve-unparsable-env-cap"),
        pytest.param(("bench", "--sizes", "4:3", "--depth", "1"),
                     {"QMAXCUT_QUBIT_CAP": "abc"}, 2, id="bench-unparsable-env-cap"),
        pytest.param(("solve", "--gen", "3,3", "--algo", "all", "--depth", "1,2", "--shots", "100"),
                     None, 0, id="solve-shots-above-2^n"),
        pytest.param(("bench", "--sizes", "3:2", "--shots", "100"), None, 0,
                     id="bench-shots-above-2^n"),
        pytest.param(("bench", "--sizes", "6:0"), None, 0, id="bench-edgeless"),
        pytest.param(("bench", "--sizes", "5:10"), None, 0, id="bench-complete"),
        pytest.param(("solve", "--gen", "6,0", "--algo", "all", "--depth", "1,2"), None, 0,
                     id="solve-edgeless"),
        pytest.param(("solve", "--gen", "5,10", "--algo", "all", "--depth", "1,2"), None, 0,
                     id="solve-complete"),
        # budget // depth = 2 evaluations per ladder rung, fewer than the 3 restarts.
        pytest.param(("solve", "--gen", "6,8", "--algo", "qaoa", "--depth", "3", "--budget", "6"),
                     None, 0, id="solve-ladder-rung-below-restarts"),
    ])
    def test_exit_code(self, args, env, code):
        res = run_cli(*args, env_extra=env)
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        if env:
            assert "QMAXCUT_QUBIT_CAP must be an integer, got 'abc'" in res.stderr

    # 10**17 shots need 711 PiB of draws, beyond every 64-bit address space:
    # numpy refuses the allocation at once, so nothing is allocated.
    @pytest.mark.parametrize("command, code", [("solve", 3), ("bench", 4)])
    def test_an_allocation_the_host_cannot_make(self, tmp_path, command, code):
        out = tmp_path / "out.csv"
        argv = {"solve": ("solve", "--gen", "3,2", "--algo", "qaoa", "--csv", out),
                "bench": ("bench", "--sizes", "3:2", "--out", out)}[command]
        res = run_cli(*argv, "--depth", 1, "--budget", 5, "--shots", 10**17)
        assert res.returncode == code
        err = res.stderr
        if command == "solve":
            assert err.startswith("qmaxcut: ") and not out.exists()
        else:  # a failed cell: its qaoa row is blank, the classical rows are filled
            assert "bench: qaoa failed on n=3 m=2: " in err
            rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
            assert [(r[0], r[4] != "") for r in rows] == [
                ("brute_force", True), ("greedy", True), ("qaoa", False)]

    @pytest.mark.parametrize("cap, argv", [
        pytest.param("-5", ("solve", "--gen", "2,1", "--algo", "brute", "--csv", "{out}"),
                     id="solve-brute"),
        pytest.param("0", ("bench", "--sizes", "4:3", "--depth", "1", "--out", "{out}"),
                     id="bench"),
    ])
    def test_qubit_cap_below_one(self, tmp_path, cap, argv):
        res = run_cli(*(a.format(out=tmp_path / "out.csv") for a in argv),
                      env_extra={"QMAXCUT_QUBIT_CAP": cap})
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"qmaxcut: QMAXCUT_QUBIT_CAP must be at least 1, got {cap}" in res.stderr
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        res = run_cli(
            "bench", "--sizes", "4:5,6:9", "--depth", "1,2",
            "--budget", 25, "--trials", 1, "--seed", 5, "--out", out,
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # 2 sizes x (brute + greedy + 2 qaoa depths)
        assert len(lines) == 1 + 2 * 4
        for line in lines[1:]:
            assert len(line.split(",")) == 8

    def test_rerun_is_byte_identical_apart_from_runtimes(self, tmp_path):
        args = ("bench", "--sizes", "4:5,6:9,8:12", "--depth", "1,2",
                "--budget", 25, "--trials", 1, "--seed", 0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_text() != ""
        assert mask_timings(a.name, a.read_text()) == mask_timings(b.name, b.read_text())

    def test_plot_data_files(self, tmp_path):
        out = tmp_path / "bench.csv"
        run_cli(
            "bench", "--sizes", "4:5,6:9", "--depth", "1,2",
            "--budget", 25, "--trials", 1, "--seed", 5, "--out", out,
        )
        series = ["brute_force", "greedy", "qaoa_p1", "qaoa_p2"]
        for name in series:
            data = (tmp_path / f"bench.runtime_vs_n.{name}.dat").read_text()
            rows = [line.split() for line in data.splitlines()]
            assert [r[0] for r in rows] == ["4", "6"]
            assert all(float(r[1]) >= 0.0 for r in rows)
        depth_rows = (tmp_path / "bench.runtime_vs_p.dat").read_text().splitlines()
        assert [r.split()[0] for r in depth_rows] == ["1", "2"]

    def test_stdout_mode_writes_no_files(self, tmp_path):
        res = run_cli(
            "bench", "--sizes", "4:3", "--depth", 1, "--budget", 25,
            "--trials", 1, "--seed", 0, "--out", "-", cwd=tmp_path,
        )
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == CSV_HEADER
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("depths", ["1", "1,2"])
    def test_oversized_cells_blank_brute_and_qaoa(self, tmp_path, depths):
        # Brute force and qaoa refuse n=8 under cap 6 by one rule: each
        # fails its rows, which stay blank, and says so on stderr.
        out = tmp_path / "bench.csv"
        res = run_cli(
            "bench", "--sizes", "4:3,8:10", "--depth", depths, "--budget", 20,
            "--trials", 1, "--seed", 2, "--out", out,
            env_extra={"QMAXCUT_QUBIT_CAP": "6"},
        )
        assert res.returncode == 4
        qaoa = [("qaoa", d) for d in depths.split(",")]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[3]) for r in rows] == 2 * [("brute_force", "0"), ("greedy", "0"), *qaoa]
        big = {r[0] for r in rows if r[1] == "8" and r[4] == r[5] == r[7] == ""}
        assert big == {"brute_force", "qaoa"}
        assert all(r[4] != "" for r in rows if r[1] == "4" or r[0] == "greedy")
        # The failure line quotes brute force's own refusal: n, the cap and its bytes.
        assert (f"bench: brute_force failed on n=8 m=10: n=8 exceeds qubit cap 6: brute force "
                f"needs {peak_bytes('brute force', 8):,} B, {peak_bytes('brute force', 6):,} B "
                f"at the cap\n") in res.stderr
        assert "skipping brute_force" not in res.stderr
        assert res.stderr.endswith(f"bench: {len(rows)} rows, 1 failed cells\n")
        # Only greedy's series has an n=8 point: a blank row plots nothing.
        series = {path.name.split(".")[2]: [row.split()[0] for row in path.open()]
                  for path in tmp_path.glob("bench.runtime_vs_n.*.dat")}
        assert series == {"brute_force": ["4"], "greedy": ["4", "8"],
                          **{f"qaoa_p{d}": ["4"] for _, d in qaoa}}

    def test_a_cell_that_cannot_be_generated_keeps_every_row_blank(self, tmp_path):
        out = tmp_path / "bench.csv"
        res = run_cli("bench", "--sizes", "4:3,8:10,30:1000", "--depth", 1, "--budget", 10,
                      "--out", out, env_extra={"QMAXCUT_QUBIT_CAP": "6"})
        assert res.returncode == 4
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("brute_force", "4"), ("greedy", "4"), ("qaoa", "4"),
            ("brute_force", "8"), ("greedy", "8"), ("qaoa", "8"),
            ("brute_force", "30"), ("greedy", "30"), ("qaoa", "30"),
        ]
        assert all(r[4] == r[5] == r[7] == "" for r in rows[-3:])
        err = res.stderr
        assert "bench: skipping cell n=30 m=1000: edge count 1000 outside [0, 435] for n=30" in err
        assert err.endswith("bench: 9 rows, 2 failed cells\n")

    @pytest.mark.parametrize("algo", ["brute_force", "greedy"])
    def test_a_classical_solver_out_of_memory_fails_only_its_row(self, tmp_path, monkeypatch,
                                                                 algo):
        # The cell's other rows are measured and the sweep goes on to n=6.
        solve = getattr(cli, f"{algo}_maxcut")

        def fail_on_8(g):
            if g.n == 8:
                raise MemoryError("no room on n=8")
            return solve(g)

        monkeypatch.setattr(cli, f"{algo}_maxcut", fail_on_8)
        out = tmp_path / "bench.csv"
        res = run_cli("bench", "--sizes", "4:3,8:10,6:8", "--depth", 1, "--budget", 10,
                      "--out", out)
        assert res.returncode == 4, res.stderr
        assert f"bench: {algo} failed on n=8 m=10: no room on n=8\n" in res.stderr
        assert res.stderr.endswith("bench: 9 rows, 1 failed cells\n")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            (a, n) for n in "486" for a in ("brute_force", "greedy", "qaoa")]
        assert [r for r in rows if "" in r[4:6]] == [[algo, "8", "10", "0", "", "", "1", ""]]

    def test_trials_report_the_first_trial_and_the_mean_runtime(self, tmp_path, monkeypatch):
        """Trial ``t`` runs with solver seed ``graph seed + 10000 t``, each
        depth warm-started from the same trial's previous depth; a row
        takes its cut and expectation from trial 0, its runtime from the
        mean over the trials."""
        graph_seed, labels = 7, (1,) * 5
        classical = {"brute_force": [(3, 1.0), (1, 2.0), (1, 6.0)],
                     "greedy": [(2, 0.5), (0, 1.5), (0, 1.0)]}

        def fake_solver(algo):
            def solve(g):
                cut, elapsed = classical[algo].pop(0)
                return SolveResult(CutAssignment(labels, cut), elapsed)
            return solve

        qaoa_runs = {}  # (trial, depth) -> (warm_params, result)

        def fake_run_qaoa(g, cfg, warm_params=None):
            trial, rest = divmod(cfg.seed - graph_seed, 10_000)
            assert rest == 0
            result = QaoaResult(
                best_params=QaoaParams((float(trial),) * cfg.p, (float(cfg.p),) * cfg.p),
                best_expectation=10.0 * cfg.p + trial,
                best_cut=CutAssignment(labels, cfg.p + trial),
                n_evaluations=1,
                elapsed=float((trial + 1) * cfg.p),
            )
            qaoa_runs[trial, cfg.p] = (warm_params, result)
            return result

        for algo in classical:
            monkeypatch.setattr(cli, f"{algo}_maxcut", fake_solver(algo))
        monkeypatch.setattr(cli, "run_qaoa", fake_run_qaoa)
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--sizes", "5:4", "--depth", "1,2", "--trials", 3,
                       "--seed", graph_seed, "--out", out).returncode == 0

        assert out.read_text().splitlines()[1:] == [
            "brute_force,5,4,0,3,3.0,7,",
            "greedy,5,4,0,2,1.0,7,",
            "qaoa,5,4,1,1,2.0,7,10.0",
            "qaoa,5,4,2,2,4.0,7,20.0",
        ]
        assert sorted(qaoa_runs) == [(t, d) for t in range(3) for d in (1, 2)]
        for trial in range(3):
            assert qaoa_runs[trial, 1][0] is None
            assert qaoa_runs[trial, 2][0] == qaoa_runs[trial, 1][1].best_params

    def test_bad_sizes_argument(self, tmp_path):
        res = run_cli("bench", "--sizes", "4-5", "--out", tmp_path / "x.csv")
        assert res.returncode == 2


# Any text, and text from the characters the parsers split and convert on
# (a non-ASCII digit and an underscore included, which ``int`` accepts).
PARSER_TEXT = st.one_of(st.text(), st.text(alphabet="0123456789-+,: _\u0663x", max_size=12))


def _parses_or_refuses(parse, text):
    """``parse(text)``, or ``None`` where it raises ``ArgumentTypeError``;
    any other exception propagates."""
    try:
        return parse(text)
    except argparse.ArgumentTypeError:
        return None


def _is_int_tuple(value, length=None):
    return (
        isinstance(value, tuple)
        and all(type(x) is int for x in value)
        and (length is None or len(value) == length)
    )


class TestArgumentParsers:
    """Every text either parses to integer tuples or raises
    ``argparse.ArgumentTypeError`` (a usage error, exit 2), never another
    exception (a traceback)."""

    @given(PARSER_TEXT)
    @example("4:5,6:9")
    @example("4:5:6")
    @example("")
    @settings(max_examples=300, deadline=None)
    def test_sizes(self, text):
        sizes = _parses_or_refuses(_parse_sizes, text)
        assert sizes is None or (sizes and all(_is_int_tuple(s, 2) for s in sizes))

    @given(PARSER_TEXT)
    @example("3,1,2,2")
    @example("0,1")
    @example(",")
    @settings(max_examples=300, deadline=None)
    def test_depths(self, text):
        depths = _parses_or_refuses(_parse_depths, text)
        assert depths is None or (_is_int_tuple(depths) and depths)

    @given(PARSER_TEXT)
    @example("6,8")
    @example("6,8,1")
    @example("1" * 5000 + ",2")  # past int's digit limit: a ValueError inside
    @settings(max_examples=300, deadline=None)
    def test_gen(self, text):
        gen = _parses_or_refuses(_parse_gen, text)
        assert gen is None or _is_int_tuple(gen, 2)


# Spellings that int() accepts or strips but the integer syntax, -?[0-9]+ in
# full, refuses; "\u0661" is ARABIC-INDIC DIGIT ONE.
REFUSED_INTEGERS = ["+1", "1_0", "\u0661", " 1", "1 ", "0x1"]


class TestOneIntegerSyntax:
    """Every channel that reads an integer from text refuses the same spellings."""

    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    @pytest.mark.parametrize("line, edge_list", [
        pytest.param(1, "{} 0\n", id="header"),
        pytest.param(2, "2 1\n{} 0\n", id="edge-line"),
    ])
    def test_edge_list(self, line, edge_list, text):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(edge_list.format(text))
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: expected two integers separated by")

    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    @pytest.mark.parametrize("argv", [
        pytest.param(("solve", "--gen", "{},0", "--algo", "greedy"), id="gen"),
        pytest.param(("bench", "--sizes", "{}:0", "--depth", "1", "--budget", "10"), id="sizes"),
        pytest.param(("solve", "--gen", "3,2", "--algo", "greedy", "--depth", "{}"), id="depth"),
        pytest.param(("gen", "--n", "3", "--m", "2", "--seed", "{}"), id="seed"),
    ])
    def test_cli_argument(self, argv, text):
        res = run_cli(*(a.format(text) for a in argv))
        assert res.returncode == 2
        assert res.stdout == ""
        assert "error: argument" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    def test_qubit_cap_variable(self, text):
        res = run_cli("solve", "--gen", "3,2", "--algo", "brute",
                      env_extra={"QMAXCUT_QUBIT_CAP": text})
        assert res.returncode == 2
        assert f"QMAXCUT_QUBIT_CAP must be an integer, got {text!r}" in res.stderr


class TestLatencyFlag:
    """``--latency`` is a decimal by the integer syntax's all-or-nothing rule."""

    @pytest.mark.parametrize("text", [*REFUSED_INTEGERS, "\u0661_0", "nan", "inf", "1.", ".5"])
    def test_refused(self, text, tmp_path):
        res = run_cli("solve", "--gen", "4,3", "--algo", "qaoa", "--latency", text,
                      "--csv", tmp_path / "out.csv")
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"argument --latency: invalid decimal value: {text!r}" in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["0", "-0", "0.5", "0.002", "1e-3"])
    def test_accepted_spellings_read_as_float(self, text):
        res = run_cli("solve", "--gen", "4,3", "--algo", "qaoa", "--latency", text)
        assert res.returncode == 0
        (block,) = kv_blocks(res.stdout)
        overhead = int(block["offload_count"]) * abs(float(text))  # -0 reads as 0.0
        assert block["simulated_comm_overhead"] == repr(overhead)


class TestStartup:
    def test_no_command_imports_scipy_or_numpy_random(self, tmp_path):
        # scipy.optimize alone once took ~0.5 s and 45 MiB of every start-up,
        # numpy.random 6 MiB of every import of the package.
        code = "\n".join([
            "import sys",
            "import qmaxcut",
            "from qmaxcut.cli import main",
            "assert main(['solve', '--gen', '8,12', '--algo', 'all', '--depth', '1,2',"
            " '--budget', '20', '--shots', '16']) == 0",
            "assert main(['bench', '--sizes', '4:5,6:9', '--depth', '1,2', '--budget', '12',"
            " '--out', 'bench.csv']) == 0",
            "print(sorted(name for name in sys.modules"
            " if name.split('.')[0] == 'scipy' or name.split('.')[:2] == ['numpy', 'random']))",
        ])
        res = run_child("-c", code, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"

    # The golden runs see only exit 0; each code is returned by ``main``.
    @pytest.mark.parametrize("code, args, cap", [
        pytest.param(0, ("solve", "--gen", "3,2", "--algo", "greedy"), None, id="success"),
        pytest.param(2, ("gen", "--n", "3", "--m", "9"), None, id="usage"),
        pytest.param(3, ("solve", "--gen", "5,4", "--algo", "brute"), "4", id="resource-limit"),
        pytest.param(4, ("bench", "--sizes", "4:3,8:10", "--depth", "1", "--budget", "10"), "6",
                     id="failed-cells"),
    ])
    def test_exit_code_reaches_the_shell(self, tmp_path, code, args, cap):
        res = run_child("-m", "qmaxcut", *args, cwd=tmp_path,
                        env_extra=cap and {"QMAXCUT_QUBIT_CAP": cap})
        assert res.returncode == code, res.stderr


@pytest.mark.slow
class TestDefaultBench:
    def test_default_schedule_shape(self, tmp_path):
        out = tmp_path / "bench.csv"
        res = run_cli("bench", "--out", out)
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        # 7 sizes x (brute + greedy + 3 qaoa depths)
        assert len(lines) == 1 + 7 * 5
        ns = sorted({int(line.split(",")[1]) for line in lines[1:]})
        assert ns == [4, 6, 8, 10, 12, 14, 16]
