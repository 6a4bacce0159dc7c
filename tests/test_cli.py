import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmaxcut
from qmaxcut import (
    CutAssignment,
    EdgeListParseError,
    QaoaParams,
    QaoaResult,
    SolveResult,
    cli,
    parse_edge_list,
)
from qmaxcut.cli import _parse_depths, _parse_gen, _parse_sizes

CSV_HEADER = "algorithm,n,m,depth,cut,runtime_s,seed,expectation"

# Directory holding the package this test process imported (``src/`` in a
# checkout), so a child started in another ``cwd`` finds the same code.
PACKAGE_ROOT = Path(qmaxcut.__file__).resolve().parents[1]


def run_cli(*args, env_extra=None, cwd=None):
    return run_python("-m", "qmaxcut", *map(str, args), env_extra=env_extra, cwd=cwd)


def run_python(*argv, env_extra=None, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "QMAXCUT_QUBIT_CAP"}
    # A relative PYTHONPATH entry (e.g. ``src``) means nothing once the
    # child runs in ``cwd``; pin the imported package first and make the
    # inherited entries absolute.
    inherited = env.get("PYTHONPATH")
    entries = inherited.split(os.pathsep) if inherited else []
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT), *(str(Path(e).resolve()) for e in entries)]
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def kv_blocks(stdout):
    """Parse `key=value` stanza output into a list of dicts."""
    blocks = []
    for chunk in stdout.strip().split("\n\n"):
        blocks.append(dict(line.split("=", 1) for line in chunk.splitlines()))
    return blocks


def mask_runtime_csv(text):
    rows = text.splitlines()
    out = [rows[0]]
    for row in rows[1:]:
        fields = row.split(",")
        fields[5] = "X"
        out.append(",".join(fields))
    return "\n".join(out)


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
        # The child's stdout is a pipe, which cannot report a position.
        res = run_cli("solve", "--gen", "5,4", "--algo", "greedy", "--csv", "-")
        assert res.returncode == 0, res.stderr
        (block,) = kv_blocks(res.stdout.split(CSV_HEADER)[0])
        header, row = res.stdout.splitlines()[-2:]
        assert header == CSV_HEADER
        assert row.startswith(f"greedy,5,4,0,{block['cut']},{block['runtime_s']},0,")

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
        assert "cap 4" in res.stderr
        assert "Traceback" not in res.stderr

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
    ])
    def test_exits_before_any_solver_runs(self, tmp_path, monkeypatch, capsys, args):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a solver ran")

        for name in ("brute_force_maxcut", "greedy_maxcut", "run_qaoa", "run_pipeline"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.delenv("QMAXCUT_QUBIT_CAP", raising=False)
        out = tmp_path / "out.csv"
        cell = {"solve": ("--gen", "6,8", "--algo", "all", "--depth", "1,2"),
                "bench": ("--sizes", "4:3,6:8", "--depth", "1,2")}[args[0]]
        argv = [args[0], *cell, *(a.format(dir=tmp_path, out=out) for a in args[1:])]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qmaxcut: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_solve_removes_only_a_csv_it_created(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "4")
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text(CSV_HEADER + "\n")
        for csv in (new, old):
            assert cli.main(["solve", "--gen", "5,4", "--algo", "all", "--csv", str(csv)]) == 3
        assert capsys.readouterr().out == ""
        assert not new.exists()
        assert old.read_text() == CSV_HEADER + "\n"

    def test_failed_bench_removes_every_file_it_created(self, tmp_path, capsys):
        blocker = tmp_path / "bench.runtime_vs_p.dat"  # the last plot file cannot be written
        blocker.mkdir()
        argv = ["bench", "--sizes", "4:3", "--depth", "1", "--budget", "10",
                "--out", str(tmp_path / "bench.csv")]
        assert cli.main(argv) == 2
        assert str(blocker) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [blocker]


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

    @pytest.mark.parametrize("cap, argv", [
        pytest.param("-5", ("solve", "--gen", "2,1", "--algo", "brute", "--csv", "{out}"),
                     id="solve-brute"),
        pytest.param("0", ("bench", "--sizes", "4:3", "--depth", "1", "--out", "{out}"),
                     id="bench"),
    ])
    def test_qubit_cap_below_one(self, tmp_path, monkeypatch, capsys, cap, argv):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", cap)
        assert cli.main([a.format(out=tmp_path / "out.csv") for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"qmaxcut: QMAXCUT_QUBIT_CAP must be at least 1, got {cap}" in captured.err
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
        assert mask_runtime_csv(a.read_text()) == mask_runtime_csv(b.read_text())

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

    def test_oversized_cells_skip_brute_and_blank_qaoa(self, tmp_path):
        out = tmp_path / "bench.csv"
        res = run_cli(
            "bench", "--sizes", "4:3,8:10", "--depth", 1, "--budget", 20,
            "--trials", 1, "--seed", 2, "--out", out,
            env_extra={"QMAXCUT_QUBIT_CAP": "6"},
        )
        assert res.returncode == 4
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        big = [r for r in rows if r[1] == "8"]
        assert [r[0] for r in big] == ["greedy", "qaoa"]
        greedy_row, qaoa_row = big
        assert greedy_row[4] != ""
        assert qaoa_row[4] == "" and qaoa_row[5] == "" and qaoa_row[7] == ""

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
                return SolveResult(CutAssignment(labels, cut), elapsed, algo)
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
        monkeypatch.delenv("QMAXCUT_QUBIT_CAP", raising=False)
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--sizes", "5:4", "--depth", "1,2", "--trials", "3",
                         "--seed", str(graph_seed), "--out", str(out)]) == 0

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
        assert depths is None or (_is_int_tuple(depths) and depths and depths[0] >= 1)

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
    def test_cli_argument(self, argv, text, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main([a.format(text) for a in argv])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    def test_qubit_cap_variable(self, text, monkeypatch, capsys):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", text)
        assert cli.main(["solve", "--gen", "3,2", "--algo", "brute"]) == 2
        assert f"QMAXCUT_QUBIT_CAP must be an integer, got {text!r}" in capsys.readouterr().err


class TestLatencyFlag:
    """``--latency`` is a decimal by the integer syntax's all-or-nothing rule."""

    @pytest.mark.parametrize("text", [*REFUSED_INTEGERS, "\u0661_0", "nan", "inf", "1.", ".5"])
    def test_refused(self, text, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["solve", "--gen", "4,3", "--algo", "qaoa", "--latency", text,
                      "--csv", str(out)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --latency: invalid decimal value: {text!r}" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["0", "0.5", "0.002", "1e-3"])
    def test_accepted_spellings_read_as_float(self, text, capsys):
        assert cli.main(["solve", "--gen", "4,3", "--algo", "qaoa", "--latency", text]) == 0
        (block,) = kv_blocks(capsys.readouterr().out)
        overhead = int(block["offload_count"]) * float(text)
        assert block["simulated_comm_overhead"] == repr(overhead)


class TestStartup:
    def test_no_command_imports_scipy(self, tmp_path):
        # scipy.optimize alone once took ~0.5 s and 45 MiB of every start-up.
        code = "\n".join([
            "import sys",
            "import qmaxcut",
            "from qmaxcut.cli import main",
            "assert main(['solve', '--gen', '8,12', '--algo', 'all', '--depth', '1,2',"
            " '--budget', '20', '--shots', '16']) == 0",
            "assert main(['bench', '--sizes', '4:5,6:9', '--depth', '1,2', '--budget', '12',"
            " '--out', 'bench.csv']) == 0",
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        ])
        res = run_python("-c", code, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"


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
