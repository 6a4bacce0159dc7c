import itertools
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxcut import (
    Graph,
    ResourceLimitError,
    SolveResult,
    brute_force_maxcut,
    cut_value,
    generate_random_graph,
    greedy_maxcut,
    labels_from_index,
)

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
PATH3 = Graph(3, ((0, 1), (1, 2)))
K4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def exhaustive_best(g):
    """Independent oracle: try every +/-1 labeling, track the best crossing count."""
    best = -1
    best_labels = None
    for labels in itertools.product((1, -1), repeat=g.n):
        crossings = 0
        for u, v in g.edges:
            if labels[u] != labels[v]:
                crossings += 1
        if crossings > best:
            best = crossings
            best_labels = labels
    return best, best_labels


def reference_brute_force(g):
    """Test-only reference: the original double-loop brute force.

    Scans the labelings with vertex 0 at ``+1`` in basis-index order and
    keeps the first strict improvement, so ties go to the smallest even
    index.  Returns ``(labels, cut_value)``.
    """
    best_value = -1
    best_index = 0
    for k in range(1 << (g.n - 1)):
        index = k << 1
        value = cut_value(g, labels_from_index(g.n, index))
        if value > best_value:
            best_value = value
            best_index = index
    return labels_from_index(g.n, best_index), best_value


@st.composite
def small_graphs(draw):
    """Random graphs on 1-9 vertices, weighted towards m=0 and complete graphs."""
    n = draw(st.integers(1, 9))
    max_m = n * (n - 1) // 2
    m = draw(st.one_of(st.just(0), st.just(max_m), st.integers(0, max_m)))
    return generate_random_graph(n, m, draw(st.integers(0, 2**32)))


class TestBruteForce:
    def test_path_of_three(self):
        assert brute_force_maxcut(PATH3).assignment.cut_value == 2

    def test_complete_graph_k4(self):
        assert brute_force_maxcut(K4).assignment.cut_value == 4

    def test_single_edge(self):
        assert brute_force_maxcut(Graph(2, ((0, 1),))).assignment.cut_value == 1

    def test_edgeless(self):
        res = brute_force_maxcut(Graph(4, ()))
        assert res.assignment.cut_value == 0
        assert res.assignment.labels == (1, 1, 1, 1)

    def test_result_shape(self):
        res = brute_force_maxcut(TRIANGLE)
        assert isinstance(res, SolveResult)
        assert res.algorithm_tag == "brute_force"
        assert res.elapsed >= 0.0
        assert cut_value(TRIANGLE, res.assignment.labels) == res.assignment.cut_value

    def test_vertex_zero_pinned_positive(self):
        # Half the labelings are redundant by global flip; the survivor keeps
        # vertex 0 on the +1 side.
        for seed in range(10):
            g = generate_random_graph(7, 12, seed)
            assert brute_force_maxcut(g).assignment.labels[0] == 1

    def test_tie_break_is_lowest_basis_index(self):
        # On a triangle every optimal labeling cuts 2 edges; the smallest
        # qualifying basis index is 2 -> labels (+1, -1, +1).
        assert brute_force_maxcut(TRIANGLE).assignment.labels == (1, -1, 1)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_oracle(self, seed):
        n = 2 + seed % 7
        m = min((seed * 5) % 17, n * (n - 1) // 2)
        g = generate_random_graph(n, m, seed)
        expected, _ = exhaustive_best(g)
        res = brute_force_maxcut(g).assignment
        assert res.cut_value == expected
        assert (res.labels, res.cut_value) == reference_brute_force(g)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_labels_match_reference_including_ties(self, g):
        res = brute_force_maxcut(g).assignment
        assert (res.labels, res.cut_value) == reference_brute_force(g)
        assert res.cut_value == exhaustive_best(g)[0]

    def test_deterministic(self):
        g = generate_random_graph(8, 14, 3)
        assert brute_force_maxcut(g).assignment == brute_force_maxcut(g).assignment

    def test_refuses_oversized_instance(self, monkeypatch):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "24")
        big = Graph(30, ((0, 1),))
        with pytest.raises(ResourceLimitError):
            brute_force_maxcut(big)

    def test_cap_is_inclusive(self, monkeypatch):
        g = generate_random_graph(10, 5, 0)
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "10")
        assert brute_force_maxcut(g).assignment.cut_value >= 0
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "9")
        with pytest.raises(ResourceLimitError):
            brute_force_maxcut(g)

    def test_env_cap_applies(self, monkeypatch):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "8")
        assert brute_force_maxcut(generate_random_graph(8, 10, 0)).assignment.cut_value > 0
        with pytest.raises(ResourceLimitError, match="cap 8"):
            brute_force_maxcut(generate_random_graph(9, 10, 0))


class TestGreedy:
    def test_triangle_walk(self):
        # v0 -> +1 by convention; v1 sees one +1 neighbour so crosses to -1;
        # v2 sees one of each and the tie keeps it at +1.
        res = greedy_maxcut(TRIANGLE)
        assert res.assignment.labels == (1, -1, 1)
        assert res.assignment.cut_value == 2

    def test_four_cycle_is_solved_exactly(self):
        res = greedy_maxcut(C4)
        assert res.assignment.cut_value == 4

    def test_edgeless(self):
        res = greedy_maxcut(Graph(3, ()))
        assert res.assignment.cut_value == 0
        assert res.assignment.labels == (1, 1, 1)

    def test_result_shape(self):
        res = greedy_maxcut(C4)
        assert res.algorithm_tag == "greedy"
        assert res.elapsed >= 0.0
        assert cut_value(C4, res.assignment.labels) == res.assignment.cut_value

    @pytest.mark.parametrize("seed", range(40))
    def test_half_edges_guarantee(self, seed):
        n = 3 + seed % 12
        m = min(2 * n, n * (n - 1) // 2)
        g = generate_random_graph(n, m, seed ^ 0xBEEF)
        assert greedy_maxcut(g).assignment.cut_value >= (g.m + 1) // 2

    @pytest.mark.parametrize("seed", range(15))
    def test_never_beats_brute_force(self, seed):
        g = generate_random_graph(8, 16, seed)
        assert (
            greedy_maxcut(g).assignment.cut_value
            <= brute_force_maxcut(g).assignment.cut_value
        )

    def test_deterministic(self):
        g = generate_random_graph(40, 100, 11)
        assert greedy_maxcut(g).assignment == greedy_maxcut(g).assignment


class TestSolveResultValidation:
    def test_rejects_unknown_tag(self):
        a = greedy_maxcut(TRIANGLE).assignment
        with pytest.raises(ValueError):
            SolveResult(assignment=a, elapsed=0.0, algorithm_tag="annealing")

    def test_rejects_negative_elapsed(self):
        a = greedy_maxcut(TRIANGLE).assignment
        with pytest.raises(ValueError):
            SolveResult(assignment=a, elapsed=-1.0, algorithm_tag="greedy")


@pytest.mark.slow
def test_brute_force_runtime_grows_exponentially():
    """Median elapsed more than quadruples for each +4 vertices once n >= 12."""

    def median_elapsed(n, repeats=3):
        g = generate_random_graph(n, 2 * n, 0)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            brute_force_maxcut(g)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    assert median_elapsed(16) / median_elapsed(12) > 4.0
