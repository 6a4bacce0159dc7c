import math

import pytest

from qmaxcut import (
    CutAssignment,
    Graph,
    PipelineConfig,
    QaoaConfig,
    cut_value,
    generate_random_graph,
    labels_from_index,
    run_pipeline,
)
from qmaxcut.pipeline import STAGES, refine_assignment

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
PATH3 = Graph(3, ((0, 1), (1, 2)))


def small_cfg(seed=0, **kwargs):
    return PipelineConfig(
        qaoa=QaoaConfig(p=1, budget=30, restarts=3, seed=seed), **kwargs
    )


class TestRefine:
    def test_walks_path_to_optimum(self):
        # Starting all-positive: vertex 0 gains a crossing and flips, vertex 1
        # then sits level (one neighbour each side), vertex 2 flips.
        start = CutAssignment.from_labels(PATH3, (1, 1, 1))
        out = refine_assignment(PATH3, start)
        assert out.labels == (-1, 1, -1)
        assert out.cut_value == 2

    def test_triangle_reaches_optimum_from_every_start(self):
        for b in range(8):
            labels = labels_from_index(3, b)
            out = refine_assignment(TRIANGLE, CutAssignment.from_labels(TRIANGLE, labels))
            assert out.cut_value == 2

    def test_leaves_local_optimum_alone(self):
        start = CutAssignment.from_labels(PATH3, (1, -1, 1))
        assert refine_assignment(PATH3, start) == start

    def test_never_decreases(self):
        for seed in range(20):
            g = generate_random_graph(9, 18, seed)
            labels = labels_from_index(9, seed * 37 % 512)
            start = CutAssignment.from_labels(g, labels)
            assert refine_assignment(g, start).cut_value >= start.cut_value

    def test_result_is_single_flip_optimal(self):
        for seed in range(10):
            g = generate_random_graph(8, 16, seed)
            start = CutAssignment.from_labels(g, labels_from_index(8, seed))
            out = refine_assignment(g, start)
            for v in range(g.n):
                flipped = list(out.labels)
                flipped[v] = -flipped[v]
                assert cut_value(g, tuple(flipped)) <= out.cut_value

    def test_edgeless_graph_is_fixed(self):
        g = Graph(4, ())
        start = CutAssignment.from_labels(g, (1, -1, 1, -1))
        assert refine_assignment(g, start) == start


class TestPipelineConfig:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            PipelineConfig(qaoa=QaoaConfig(p=1), offload_latency=-0.1)

    @pytest.mark.parametrize("latency", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_latency(self, latency):
        # ``nan < 0`` is False, so a sign check alone lets NaN through.
        with pytest.raises(ValueError):
            PipelineConfig(qaoa=QaoaConfig(p=1), offload_latency=latency)

    def test_defaults(self):
        cfg = PipelineConfig(qaoa=QaoaConfig(p=1))
        assert cfg.offload_latency == 0.0
        assert cfg.postprocess_refine


class TestRunPipeline:
    def test_stage_timings_complete_and_nonnegative(self):
        report = run_pipeline(TRIANGLE, small_cfg())
        assert tuple(report.stage_timings) == STAGES == (
            "preprocess",
            "quantum",
            "postprocess",
        )
        assert all(t >= 0.0 for t in report.stage_timings.values())

    def test_offload_count_is_evaluations_plus_final_readout(self):
        report = run_pipeline(TRIANGLE, small_cfg())
        assert report.offload_count == report.qaoa_result.n_evaluations + 1

    def test_comm_overhead_is_exact_product(self):
        for latency in (0.0, 0.001, 0.25, 1.5):
            report = run_pipeline(TRIANGLE, small_cfg(offload_latency=latency))
            assert report.simulated_comm_overhead == report.offload_count * latency

    def test_comm_overhead_scales_linearly(self):
        a = run_pipeline(TRIANGLE, small_cfg(offload_latency=0.001))
        b = run_pipeline(TRIANGLE, small_cfg(offload_latency=0.002))
        assert b.simulated_comm_overhead == 2 * a.simulated_comm_overhead

    def test_refinement_never_loses_cut_weight(self):
        for seed in range(10):
            g = generate_random_graph(7, 12, seed)
            report = run_pipeline(g, small_cfg(seed=seed))
            assert report.final_cut.cut_value >= report.qaoa_result.best_cut.cut_value

    def test_refinement_can_be_disabled(self):
        g = generate_random_graph(7, 12, 3)
        report = run_pipeline(g, small_cfg(seed=3, postprocess_refine=False))
        assert report.final_cut == report.qaoa_result.best_cut

    def test_deterministic_up_to_timing(self):
        g = generate_random_graph(6, 9, 1)
        a = run_pipeline(g, small_cfg(seed=1, offload_latency=0.01))
        b = run_pipeline(g, small_cfg(seed=1, offload_latency=0.01))
        assert a.final_cut == b.final_cut
        assert a.offload_count == b.offload_count
        assert a.simulated_comm_overhead == b.simulated_comm_overhead

    def test_kv_lines_schema(self):
        report = run_pipeline(TRIANGLE, small_cfg(offload_latency=0.001))
        keys = [line.split("=", 1)[0] for line in report.as_kv_lines()]
        assert keys == [
            "cut",
            "expectation",
            "n_evaluations",
            "offload_count",
            "simulated_comm_overhead",
            "preprocess_s",
            "quantum_s",
            "postprocess_s",
        ]
        values = dict(line.split("=", 1) for line in report.as_kv_lines())
        assert values["cut"] == "2"
        assert float(values["simulated_comm_overhead"]) == report.simulated_comm_overhead
