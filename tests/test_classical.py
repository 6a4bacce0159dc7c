import itertools
import statistics
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harness import EDGE, TRIANGLE
from qmaxcut import (
    CutAssignment,
    Graph,
    SolveResult,
    brute_force_maxcut,
    cut_value,
    generate_random_graph,
    greedy_maxcut,
    labels_from_index,
    refine_assignment,
)

PATH3 = Graph(3, ((0, 1), (1, 2)))
K4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def neighbour_lists(g):
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def greedy_labels_reference(g):
    """The list-based greedy that ``greedy_maxcut`` replaced: same rule, no masks."""
    adj = neighbour_lists(g)
    labels = [0] * g.n
    labels[0] = 1
    for v in range(1, g.n):
        plus = sum(1 for w in adj[v] if labels[w] == 1)
        minus = sum(1 for w in adj[v] if labels[w] == -1)
        labels[v] = 1 if minus >= plus else -1
    return tuple(labels)


def refine_labels_reference(g, labels):
    """The list-based single-flip climb that ``refine_assignment`` replaced."""
    adj = neighbour_lists(g)
    labels = list(labels)
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            crossing = sum(1 for w in adj[v] if labels[w] != labels[v])
            if len(adj[v]) - 2 * crossing > 0:
                labels[v] = -labels[v]
                improved = True
    return tuple(labels)


@st.composite
def graphs_and_labels(draw):
    n = draw(st.integers(1, 14))
    m = draw(st.integers(0, n * (n - 1) // 2))
    g = generate_random_graph(n, m, draw(st.integers(0, 2**63)))
    return g, draw(st.tuples(*[st.sampled_from((1, -1))] * n))


@settings(max_examples=300, deadline=None)
@given(graphs_and_labels())
@example((C4, (1, 1, 1, 1)))
@example((Graph(3, ()), (1, -1, 1)))
@example((PATH3, (1, 1, 1)))
@example((PATH3, (1, -1, 1)))  # a local optimum: refinement leaves it
@example((Graph(4, ()), (1, -1, 1, -1)))
# The triangle from each of its eight starts.
@example((TRIANGLE, (1, 1, 1)))
@example((TRIANGLE, (-1, 1, 1)))
@example((TRIANGLE, (1, -1, 1)))
@example((TRIANGLE, (-1, -1, 1)))
@example((TRIANGLE, (1, 1, -1)))
@example((TRIANGLE, (-1, 1, -1)))
@example((TRIANGLE, (1, -1, -1)))
@example((TRIANGLE, (-1, -1, -1)))
def test_bit_mask_greedy_and_refinement_match_list_references(case):
    g, labels = case
    greedy = greedy_maxcut(g).assignment
    assert greedy.labels == greedy_labels_reference(g)
    assert greedy.cut_value == cut_value(g, greedy.labels)
    for start in (labels, greedy.labels):
        refined = refine_assignment(g, CutAssignment.from_labels(g, start))
        assert refined.labels == refine_labels_reference(g, start)
        assert refined.cut_value == cut_value(g, refined.labels)


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
    def test_result_shape(self):
        res = brute_force_maxcut(TRIANGLE)
        assert isinstance(res, SolveResult)
        assert res.elapsed >= 0.0
        assert cut_value(TRIANGLE, res.assignment.labels) == res.assignment.cut_value

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    @example(PATH3)
    @example(K4)
    @example(TRIANGLE)  # ties: every optimum cuts 2, the lowest is (+1, -1, +1)
    @example(EDGE)
    @example(Graph(4, ()))
    @example(generate_random_graph(7, 12, 0))
    def test_labels_match_reference_including_ties(self, g):
        res = brute_force_maxcut(g).assignment
        assert (res.labels, res.cut_value) == reference_brute_force(g)
        assert res.cut_value == exhaustive_best(g)[0]


class TestGreedy:
    def test_result_shape(self):
        res = greedy_maxcut(C4)
        assert res.elapsed >= 0.0
        assert cut_value(C4, res.assignment.labels) == res.assignment.cut_value


class TestSolveResultValidation:
    def test_rejects_negative_elapsed(self):
        a = greedy_maxcut(TRIANGLE).assignment
        with pytest.raises(ValueError):
            SolveResult(assignment=a, elapsed=-1.0)


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
