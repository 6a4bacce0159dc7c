"""Tests of the benchmark's own pieces: oracle, tail rule, self time, names.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
from oracle import cut_of_labels, optimum_cut  # noqa: E402
from qmaxcut import brute_force_maxcut, generate_random_graph  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("n,m,seed", [
    (1, 0, 0), (2, 1, 0), (3, 3, 1), (5, 4, 2), (6, 15, 3), (8, 12, 4), (9, 20, 5), (10, 0, 6),
    (12, 30, 7), (15, 40, 8),
])
def test_oracle_agrees_with_brute_force(n, m, seed):
    g = generate_random_graph(n, m, seed)
    exact = brute_force_maxcut(g).assignment
    assert optimum_cut(g.n, g.edges) == exact.cut_value
    assert cut_of_labels(g.edges, exact.labels) == exact.cut_value


def test_oracle_spans_several_chunks():
    # 2**16 partitions: 64 chunks of the enumeration.
    g = generate_random_graph(16, 24, 9)
    assert optimum_cut(g.n, g.edges) == brute_force_maxcut(g).assignment.cut_value


def test_optima_come_from_the_oracle_child_process():
    graphs = [[generate_random_graph(8, 12, s), generate_random_graph(9, 0, s)] for s in (1, 2)]
    optima = run._optima(WORKLOADS["classical"], graphs)
    assert optima == [[brute_force_maxcut(g).assignment.cut_value for g in p] for p in graphs]


def test_oracle_known_values():
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert optimum_cut(3, triangle) == 2
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert optimum_cut(4, k4) == 4
    assert cut_of_labels(triangle, (1, -1, 1)) == 2


@pytest.mark.parametrize("count,index,pct", [(11, 0, 100 / 11), (40, 29, 75.0), (1000, 989, 99.0)])
def test_tail_rule_picks_the_sample_with_ten_beyond(count, index, pct):
    values = list(range(count, 0, -1))  # unsorted input: count .. 1
    value, percentile, samples = tracing.tail(values)
    assert value == sorted(values)[index]
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(pct)
    assert samples == count


def test_tail_rule_needs_eleven_samples():
    assert tracing.tail(range(10)) is None
    assert tracing.tail_index(10) is None


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],   # overlaps a: together they cover [1, 6]
        ["c", 8.0, 12.0, 0, 0],  # sticks out past the parent: only [8, 10] counts
        ["leaf", 1.5, 2.0, 1, 0],
        ["other", 20.0, 21.0, -1, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5, 1.0])


def test_layer_metrics_cover_every_per_layer_name():
    t = tracing.Tracer()
    t.spans += [["qaoa.evaluate_params", 0.0, 0.002, -1, 0],
                ["simulator.apply_qaoa_circuit", 0.0, 0.0015, 0, 0],
                ["simulator.apply_mixer_layer", 0.0, 0.001, 1, 0],
                ["simulator.apply_mixer_layer", 0.003, 0.004, -1, 0]]  # outside any evaluation
    values = tracing.layer_metrics(t, bytes_written=5, overhead_frac=0.01)
    assert list(values) == [name for name, _ in tracing.PER_LAYER]
    assert values["qaoa.evaluate_params.calls"] == 1
    assert values["qaoa.evaluate_params.self_s"] == pytest.approx(0.0005)
    assert values["simulator.apply_mixer_layer.calls"] == 2
    assert values["simulator.apply_mixer_layer.share_of_eval"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_rebinds_every_import_site_and_restores_them():
    import qmaxcut
    from qmaxcut import cli, pipeline, qaoa, simulator

    originals = (qaoa.run_qaoa, simulator.apply_qaoa_circuit)
    t = tracing.Tracer()
    t.install()
    try:
        assert pipeline.run_qaoa is qaoa.run_qaoa is cli.run_qaoa is qmaxcut.run_qaoa
        assert qaoa.run_qaoa is not originals[0]
        assert qaoa.apply_qaoa_circuit is simulator.apply_qaoa_circuit is not originals[1]
        g = generate_random_graph(6, 8, 1)
        result = qaoa.run_qaoa(g, qaoa.QaoaConfig(p=2, budget=12, restarts=2))
    finally:
        t.uninstall()
    assert (qaoa.run_qaoa, simulator.apply_qaoa_circuit) == originals
    assert pipeline.run_qaoa is originals[0]
    names = [s[0] for s in t.spans]
    assert names.count("qaoa.evaluate_params") == result.n_evaluations == t.evaluations
    assert names.count("qaoa.run_qaoa") == 1
    assert all(s[1] <= s[2] for s in t.spans)
