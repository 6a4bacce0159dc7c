import math

import pytest

from harness import TRIANGLE
from qmaxcut import (
    CutAssignment,
    PipelineConfig,
    QaoaConfig,
    cut_value,
    generate_random_graph,
    labels_from_index,
    run_pipeline,
)
from qmaxcut.pipeline import hybrid_cost, refine_assignment


def small_cfg(seed=0, **kwargs):
    return PipelineConfig(
        qaoa=QaoaConfig(p=1, budget=30, restarts=3, seed=seed), **kwargs
    )


class TestRefine:
    @pytest.mark.parametrize("labels", [(1, 1), (1, 1, 1, -1)])
    def test_refuses_labels_of_another_size(self, labels):
        start = CutAssignment(labels, 0)
        with pytest.raises(ValueError, match=f"expected 3 labels, got {len(labels)}"):
            refine_assignment(TRIANGLE, start)

    def test_result_is_single_flip_optimal(self):
        for seed in range(10):
            g = generate_random_graph(8, 16, seed)
            start = CutAssignment.from_labels(g, labels_from_index(8, seed))
            out = refine_assignment(g, start)
            for v in range(g.n):
                flipped = list(out.labels)
                flipped[v] = -flipped[v]
                assert cut_value(g, tuple(flipped)) <= out.cut_value


def test_hybrid_cost_matches_hand_counts():
    # n=3, m=3, p=1: 3 + 1 jobs; 3 + 1*(3 + 3) gates each; 2**2 cuts of 3 edges.
    assert hybrid_cost(TRIANGLE, 1, 3, 0.5) == {
        "jobs": 4, "overhead": 2.0, "greedy": 6, "gates per job": 9, "qaoa": 36, "brute force": 12,
    }


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
    def test_stage_times_are_nonnegative_and_printed_as_stored(self):
        # Each stage's time is stored once and printed under its kv name.
        report = run_pipeline(TRIANGLE, small_cfg())
        assert report.qaoa_result.elapsed >= 0.0 and report.postprocess_s >= 0.0
        values = dict(line.split("=", 1) for line in report.as_kv_lines())
        assert values["quantum_s"] == repr(report.qaoa_result.elapsed)
        assert values["postprocess_s"] == repr(report.postprocess_s)

    def test_offload_count_is_evaluations_plus_final_readout(self):
        report = run_pipeline(TRIANGLE, small_cfg())
        assert report.offload_count == report.qaoa_result.n_evaluations + 1

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
            "quantum_s",
            "postprocess_s",
        ]
        values = dict(line.split("=", 1) for line in report.as_kv_lines())
        assert values["cut"] == "2"
        assert float(values["simulated_comm_overhead"]) == report.simulated_comm_overhead
