import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmaxcut import (
    Graph,
    QaoaConfig,
    QaoaParams,
    ResourceLimitError,
    cut_value,
    cut_values_by_basis,
    generate_random_graph,
    run_qaoa,
)
from qmaxcut import qaoa, simulator
from qmaxcut.qaoa import depth_one_expectation, evaluate_params, optimize_params
from qmaxcut.simulator import apply_qaoa_circuit, expectation_cut

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
EDGE = Graph(2, ((0, 1),))


@st.composite
def oracle_graphs(draw):
    """Graphs on 1-10 vertices, biased toward m=0, complete and triangle-rich."""
    n = draw(st.integers(min_value=1, max_value=10))
    top = n * (n - 1) // 2
    kind = draw(st.sampled_from(["edgeless", "complete", "cliques", "dense", "any"]))
    if kind == "cliques" and n > 1:  # a union of random cliques: many triangles, uneven degrees
        edges = set()
        for members in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2), max_size=3)):
            edges.update(itertools.combinations(sorted(members), 2))
        return Graph(n, tuple(edges))
    m = {"edgeless": 0, "complete": top}.get(kind)
    if m is None:
        low = (3 * top) // 4 if kind == "dense" else 0
        m = draw(st.integers(min_value=low, max_value=top))
    return generate_random_graph(n, m, draw(st.integers(min_value=0, max_value=2**32)))


def _forbid_cut_table(monkeypatch):
    def forbidden(g):
        raise AssertionError("cut table built")

    monkeypatch.setattr(qaoa, "cut_values_by_basis", forbidden)
    monkeypatch.setattr(simulator, "cut_values_by_basis", forbidden)


class TestDepthOneClosedForm:
    @given(
        oracle_graphs(),
        st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False),
        st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_statevector(self, g, gamma, beta):
        params = QaoaParams(gammas=(gamma,), betas=(beta,))
        statevector = expectation_cut(apply_qaoa_circuit(g, params), g)
        assert depth_one_expectation(g, gamma, beta) == pytest.approx(statevector, abs=1e-10)

    def test_evaluate_params_builds_no_cut_table(self, monkeypatch):
        _forbid_cut_table(monkeypatch)
        value = evaluate_params(EDGE, QaoaParams(gammas=(math.pi / 2,), betas=(math.pi / 8,)))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_cap_is_checked_before_the_cut_table_at_every_depth(self, monkeypatch):
        _forbid_cut_table(monkeypatch)
        g = Graph(8, ((0, 7),))
        for p in (1, 2):
            with pytest.raises(ResourceLimitError):
                evaluate_params(g, QaoaParams(gammas=(0.1,) * p, betas=(0.1,) * p), cap=7)

    def test_run_prepares_only_the_final_state(self, monkeypatch):
        prepared = []

        def counting(*args, **kwargs):
            prepared.append(args[1])
            return apply_qaoa_circuit(*args, **kwargs)

        monkeypatch.setattr(qaoa, "apply_qaoa_circuit", counting)
        result = run_qaoa(TRIANGLE, QaoaConfig(p=1, budget=40, restarts=3, seed=0))
        assert result.n_evaluations > 1
        assert prepared == [result.best_params]


@st.composite
def half_oracle_graphs(draw):
    """Graphs on 1-13 vertices with any edge count, n=1 and m=0 included."""
    n = draw(st.integers(min_value=1, max_value=13))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    return generate_random_graph(n, m, draw(st.integers(min_value=0, max_value=2**32)))


class TestFlipSymmetricHalf:
    @given(
        half_oracle_graphs(),
        st.integers(min_value=2, max_value=3).flatmap(
            lambda p: st.lists(
                st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False),
                min_size=2 * p,
                max_size=2 * p,
            )
        ),
    )
    @example(Graph(1, ()), [0.3, 0.7, 0.2, 0.5])  # no low qubits for the mixer
    @settings(max_examples=200, deadline=None)
    def test_matches_full_statevector(self, g, angles):
        params = QaoaParams.from_flat(angles)
        sv = apply_qaoa_circuit(g, params)
        # The invariant the half path rests on: amp[b] == amp[~b].
        np.testing.assert_allclose(sv.amplitudes, sv.amplitudes[::-1], rtol=0, atol=1e-12)
        assert evaluate_params(g, params) == pytest.approx(expectation_cut(sv, g), abs=1e-10)

    def test_peak_memory_is_one_and_a_half_states(self):
        # n=18: the full state would be 4 MiB.  The half path holds the
        # half state, the top qubit's half-size scratch and the mixer's (or
        # the phase gather's) half-size temporary; the full-state
        # evaluation peaked at 2.03x.
        g = generate_random_graph(18, 34, 0)
        table = cut_values_by_basis(g)
        params = QaoaParams(gammas=(0.3, 0.5), betas=(0.2, 0.7))
        full_state = (1 << g.n) * 16
        tracemalloc.start()
        try:
            evaluate_params(g, params, cut_table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * full_state, f"peak {peak / full_state:.2f}x the state"

    def test_cap_is_resolved_once_per_evaluation(self, monkeypatch):
        calls = []
        resolve = simulator.resolve_qubit_cap

        def counting(cap=None):
            calls.append(cap)
            return resolve(cap)

        monkeypatch.setattr(simulator, "resolve_qubit_cap", counting)
        evaluate_params(TRIANGLE, QaoaParams(gammas=(0.4, 0.1), betas=(0.3, 0.2)))
        assert len(calls) == 1


class TestEvaluateParams:
    def test_zero_angles_give_half_the_edges(self):
        params = QaoaParams(gammas=(0.0, 0.0), betas=(0.0, 0.0))
        for seed in range(5):
            g = generate_random_graph(7, 10, seed)
            assert evaluate_params(g, params) == pytest.approx(5.0, abs=1e-12)

    def test_single_edge_quarter_angles(self):
        # Closed form for one edge at depth 1: <C> = (1 + sin(4b) sin(g)) / 2,
        # so (pi/4, pi/8) lands at (2 + sqrt(2)) / 4, noticeably short of 1.
        params = QaoaParams(gammas=(math.pi / 4,), betas=(math.pi / 8,))
        expected = (2 + math.sqrt(2)) / 4
        assert evaluate_params(EDGE, params) == pytest.approx(expected, abs=1e-12)

    def test_single_edge_optimum(self):
        params = QaoaParams(gammas=(math.pi / 2,), betas=(math.pi / 8,))
        assert evaluate_params(EDGE, params) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
        st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_edge_closed_form(self, gamma, beta):
        params = QaoaParams(gammas=(gamma,), betas=(beta,))
        expected = 0.5 * (1.0 + math.sin(4 * beta) * math.sin(gamma))
        assert evaluate_params(EDGE, params) == pytest.approx(expected, abs=1e-9)

    def test_respects_cap(self):
        g = Graph(8, ((0, 7),))
        with pytest.raises(ResourceLimitError):
            evaluate_params(g, QaoaParams(gammas=(0.1,), betas=(0.1,)), cap=7)


class TestQaoaConfig:
    def test_defaults(self):
        cfg = QaoaConfig(p=2)
        assert cfg.budget >= cfg.restarts
        assert cfg.shots == 0
        assert cfg.warm_start

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0},
            {"p": 1, "restarts": 0},
            {"p": 1, "budget": 2, "restarts": 3},
            {"p": 1, "shots": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QaoaConfig(**kwargs)


class TestOptimizeParams:
    def test_budget_of_one_start_each_returns_zero_point(self):
        # With budget == restarts only the predefined start points are scored;
        # on a triangle the all-zero point (uniform state, m/2) wins.
        cfg = QaoaConfig(p=1, budget=3, restarts=3, seed=0)
        params, value, n_evals = optimize_params(TRIANGLE, cfg)
        assert n_evals == 3
        assert params == QaoaParams(gammas=(0.0,), betas=(0.0,))
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_depth_one_builds_no_cut_table(self, monkeypatch):
        _forbid_cut_table(monkeypatch)
        g = generate_random_graph(8, 12, 0)
        _, value, _ = optimize_params(g, QaoaConfig(p=1, budget=20, restarts=3, seed=0))
        assert value >= g.m / 2 - 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_never_below_random_assignment_baseline(self, seed):
        n = 4 + seed % 5
        g = generate_random_graph(n, min(2 * n, n * (n - 1) // 2), seed)
        _, value, _ = optimize_params(g, QaoaConfig(p=1, budget=30, restarts=3, seed=seed))
        assert value >= g.m / 2 - 1e-9

    def test_evaluation_budget_is_hard(self):
        for budget in (5, 17, 60):
            cfg = QaoaConfig(p=2, budget=budget, restarts=4, seed=2)
            _, _, n_evals = optimize_params(TRIANGLE, cfg)
            assert n_evals <= budget

    def test_deterministic(self):
        cfg = QaoaConfig(p=2, budget=80, restarts=3, seed=7)
        g = generate_random_graph(6, 9, 4)
        assert optimize_params(g, cfg) == optimize_params(g, cfg)

    def test_value_matches_reported_params(self):
        cfg = QaoaConfig(p=2, budget=100, restarts=3, seed=5)
        g = generate_random_graph(6, 10, 8)
        params, value, _ = optimize_params(g, cfg)
        assert evaluate_params(g, params) == pytest.approx(value, abs=1e-9)


class TestRunQaoa:
    def test_triangle_depth_one_finds_maximum_cut(self):
        result = run_qaoa(TRIANGLE, QaoaConfig(p=1, budget=500, restarts=3, seed=0))
        assert result.best_cut.cut_value == 2

    def test_single_edge_reaches_near_optimal_expectation(self):
        result = run_qaoa(EDGE, QaoaConfig(p=1, budget=500, restarts=3, seed=0))
        assert result.best_expectation >= 0.99
        assert result.best_cut.cut_value == 1

    def test_edgeless_graph(self):
        result = run_qaoa(Graph(3, ()), QaoaConfig(p=1, budget=10, restarts=2, seed=0))
        assert result.best_cut.cut_value == 0
        assert result.best_expectation == pytest.approx(0.0, abs=1e-12)

    def test_result_invariants(self):
        g = generate_random_graph(7, 12, 2)
        cfg = QaoaConfig(p=2, budget=120, restarts=3, seed=3)
        result = run_qaoa(g, cfg)
        assert result.best_params.p == 2
        assert result.n_evaluations <= cfg.budget
        assert 0 <= result.best_cut.cut_value <= g.m
        assert cut_value(g, result.best_cut.labels) == result.best_cut.cut_value
        assert evaluate_params(g, result.best_params) == pytest.approx(
            result.best_expectation, abs=1e-9
        )
        assert set(result.per_stage_timings) == {"optimize", "extract"}
        assert all(t >= 0.0 for t in result.per_stage_timings.values())
        assert result.elapsed >= max(result.per_stage_timings.values())

    def test_deterministic_up_to_timing(self):
        g = generate_random_graph(6, 8, 9)
        cfg = QaoaConfig(p=3, budget=90, restarts=3, seed=1)
        a = run_qaoa(g, cfg)
        b = run_qaoa(g, cfg)
        assert a.best_params == b.best_params
        assert a.best_expectation == b.best_expectation
        assert a.best_cut == b.best_cut
        assert a.n_evaluations == b.n_evaluations

    def test_warm_chain_never_loses_ground(self):
        # Feeding depth-p parameters into a depth-(p+1) run must not hurt:
        # the old point padded with zero-angle layers is evaluated as-is.
        for seed in (0, 1, 2):
            g = generate_random_graph(8, 14, seed)
            prev = None
            values = []
            for p in (1, 2, 3):
                cfg = QaoaConfig(p=p, budget=60, restarts=3, seed=seed, warm_start=True)
                result = run_qaoa(g, cfg, warm_params=prev)
                values.append(result.best_expectation)
                prev = result.best_params
            assert values[0] <= values[1] + 1e-9
            assert values[1] <= values[2] + 1e-9

    def test_warm_params_deeper_than_target_rejected(self):
        deep = QaoaParams(gammas=(0.1, 0.2), betas=(0.3, 0.4))
        with pytest.raises(ValueError):
            run_qaoa(TRIANGLE, QaoaConfig(p=1, budget=20, restarts=2, seed=0), warm_params=deep)

    def test_internal_ladder_respects_total_budget(self):
        cfg = QaoaConfig(p=3, budget=90, restarts=3, seed=1, warm_start=True)
        result = run_qaoa(TRIANGLE, cfg)
        assert result.n_evaluations <= 90

    def test_cold_start_supported(self):
        cfg = QaoaConfig(p=2, budget=60, restarts=3, seed=4, warm_start=False)
        result = run_qaoa(TRIANGLE, cfg)
        assert result.best_params.p == 2
        assert result.n_evaluations <= 60

    def test_sampled_extraction_is_deterministic_and_valid(self):
        g = generate_random_graph(6, 9, 5)
        cfg = QaoaConfig(p=1, budget=40, restarts=3, seed=6, shots=256)
        a = run_qaoa(g, cfg)
        b = run_qaoa(g, cfg)
        assert a.best_cut == b.best_cut
        assert cut_value(g, a.best_cut.labels) == a.best_cut.cut_value

    def test_shot_noise_cannot_invent_cuts(self):
        g = generate_random_graph(5, 7, 3)
        cfg = QaoaConfig(p=1, budget=40, restarts=3, seed=6, shots=64)
        result = run_qaoa(g, cfg)
        assert result.best_cut.cut_value <= 7


@pytest.mark.slow
def test_elapsed_grows_with_depth_at_fixed_budget():
    g = generate_random_graph(10, 20, 0)
    times = {}
    for p in (1, 3):
        cfg = QaoaConfig(p=p, budget=150, restarts=3, seed=0, warm_start=False)
        times[p] = run_qaoa(g, cfg).elapsed
    assert times[3] / times[1] >= 1.5
